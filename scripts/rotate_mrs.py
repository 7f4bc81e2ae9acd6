#!/usr/bin/env python3
"""Rotate the phase of the Beilinson-Gamma marked reflection system of a
projective space through a full turn and print the mutation log and the
resulting monodromy data.

Usage: python3 scripts/rotate_mrs.py [N] [start_phase]
"""

import math
import sys

import numpy as np

from qgamma.connection import spectrum_closed_form
from qgamma.mrs import MRS, euler_matrix, mutate_phase_rotation
from qgamma.rings import build_ring


def main():
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    phase = float(sys.argv[2]) if len(sys.argv) > 2 else -(math.pi / 2 + 0.3)

    # run on abstract integer vectors, paired by the Euler matrix of the
    # Beilinson collection, so the monodromy matrix is readable
    G = euler_matrix(build_ring("P", N))
    m = MRS(vectors=[np.eye(N, dtype=int)[i] for i in range(N)],
            markings=spectrum_closed_form(1, N), phase=phase,
            pairing=lambda a, b: a @ G @ b)
    print(f"P^{N - 1}, Gram in collection order:\n{G}\n")

    m2, log = mutate_phase_rotation(m, phase - 2 * math.pi)
    for e in log:
        print(f"phase {e['crossing_angle']:+.6f}: {e['direction']}-mutation of "
              f"indices {e['affected_indices']} by marking "
              f"{e['moved_marking']:.4f}, {e['count']} time(s)")
    M = np.array(m2.vectors).T
    print(f"\nmonodromy matrix (columns = transported basis):\n{M}")
    print(f"det = {round(np.linalg.det(M))}")
    print(f"Gram preserved: {np.array_equal(M.T @ G @ M, G)}")


if __name__ == "__main__":
    main()
