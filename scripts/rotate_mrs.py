#!/usr/bin/env python3
"""Rotate the phase of the Beilinson-Gamma marked reflection system of a
projective space through a full turn and print the mutation log and the
resulting monodromy data.

Usage: python3 scripts/rotate_mrs.py [N] [start_phase]
"""

import math
import sys

from qgamma.connection import spectrum_closed_form
from qgamma.mrs import euler_matrix, gram_of_rows, phase_rotation
from qgamma.rings import build_ring, compound


def main():
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    phase = float(sys.argv[2]) if len(sys.argv) > 2 else -(math.pi / 2 + 0.3)

    # run on integer rows over the collection, paired by the Euler matrix of
    # the Beilinson collection, so the monodromy matrix is readable
    G = euler_matrix(build_ring("P", N))
    print(f"P^{N - 1}, Gram in collection order:", *G, "", sep="\n")

    rows, log = phase_rotation(G, spectrum_closed_form(1, N), phase, phase - 2 * math.pi)
    for e in log:
        print(f"phase {e['crossing_angle']:+.6f}: {e['direction']}-mutation of "
              f"indices {e['affected_indices']} by marking "
              f"{e['moved_marking']:.4f}, {e['count']} time(s)")
    M = [list(col) for col in zip(*rows)]
    print("\nmonodromy matrix (columns = transported basis):", *M, sep="\n")
    print(f"det = {compound(M, N)[tuple(range(N)), tuple(range(N))]}")
    print(f"Gram preserved: {gram_of_rows(rows, G) == G}")


if __name__ == "__main__":
    main()
