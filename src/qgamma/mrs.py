"""Semiorthonormal bases and marked reflection systems: Gram matrices,
mutations, the braid action, admissibility, phase-rotation mutation
sequences, Stokes matrices, and the exact Euler matrix of the Gamma basis.

Vectors are any objects supporting +, -, and scalar multiplication
(CohClass or numpy arrays); the pairing is an explicit callable, so the same
machinery runs on abstract integer Grams and on Gamma-basis cohomology
classes."""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np

from .charclasses import gamma_basis_class, bracket_pairing, bracket_row
from .connection import greedy_groups, spectrum_closed_form
from .rings import RingSpec, build_ring, compound, wedge_exponents


@dataclass
class SOB:
    vectors: list
    pairing: object       # callable (v, w) -> scalar, [v, w)


@dataclass
class MRS:
    vectors: list
    markings: list        # complex marking u_i per vector
    phase: float
    pairing: object


def gram(sob) -> np.ndarray:
    """[v_i, v_j) for all i, j, as a complex matrix (of an SOB or an MRS).
    Under the bracket pairing each left vector becomes its row a B once
    (bracket_row), so n classes cost n nnz(B) + n^2 rank products instead of
    n^2 nnz(B); any other pairing is called per entry."""
    vs = sob.vectors
    if sob.pairing is bracket_pairing:
        rows = [bracket_row(a) for a in vs]
    else:
        rows = [functools.partial(sob.pairing, a) for a in vs]
    return np.array([[row(b) for b in vs] for row in rows], dtype=complex)


def round_gram(g: np.ndarray):
    """(the integer matrix nearest to Re g, max |g - that matrix|);
    OverflowError for an entry of size 2^53 or more, past which float64 no
    longer holds every integer."""
    near = np.round(g.real)
    if not np.all(np.abs(near) < 2.0 ** 53):
        raise OverflowError("Gram entry of size 2^53 or more cannot be rounded exactly")
    return near.astype(int), float(np.max(np.abs(g - near)))


def integer_gram(sob):
    """(the Gram of a system rounded to Python ints, as an object array, and
    its rounding error); OverflowError when that error exceeds 1e-9, the
    Gram tolerance of criterion 4, or an entry reaches 2^53."""
    near, err = round_gram(gram(sob))
    if err > 1e-9:
        raise OverflowError(f"Gram rounding error {err:.3g} exceeds 1e-9")
    return np.array(near.tolist(), dtype=object), err


def is_uni_uppertriangular(g: np.ndarray) -> bool:
    """Unit diagonal and vanishing lower triangle, each to 1e-9."""
    n, tol = g.shape[0], 1e-9
    for i in range(n):
        if abs(g[i, i] - 1) > tol:
            return False
        for j in range(i):
            if abs(g[i, j]) > tol:
                return False
    return True


def right_mutation(v, u, pairing):
    """R_u v = v - [v, u) u."""
    return v - u * pairing(v, u)


def left_mutation(v, u, pairing):
    """L_u v = v - [u, v) u."""
    return v - u * pairing(u, v)


def braid_act(sob: SOB, word) -> SOB:
    """word: list of signed 1-based indices; +i applies sigma_i, -i its
    inverse.  sigma_i: (v_i, v_{i+1}) -> (v_{i+1}, R_{v_{i+1}} v_i)."""
    vs = list(sob.vectors)
    for g in word:
        i = abs(g) - 1
        if not (0 <= i < len(vs) - 1):
            raise ValueError(f"braid generator {g} out of range")
        if g > 0:
            vs[i], vs[i + 1] = vs[i + 1], right_mutation(vs[i], vs[i + 1], sob.pairing)
        else:
            vs[i], vs[i + 1] = left_mutation(vs[i + 1], vs[i], sob.pairing), vs[i]
    return SOB(vectors=vs, pairing=sob.pairing)


def h_phase(u: complex, phi: float) -> float:
    return (cmath.exp(-1j * phi) * u).imag


def is_admissible(markings, phi: float) -> bool:
    """True iff e^{i phi} is not parallel to any difference of distinct
    markings (checked on the sine of the angle, to 1e-10); False for a
    non-finite phi."""
    if not math.isfinite(phi):
        return False
    for u, v in itertools.combinations(markings, 2):
        d = u - v
        if abs(d) < 1e-10:
            continue
        if abs((d * cmath.exp(-1j * phi)).imag) / abs(d) < 1e-10:
            return False
    return True


def _phase_order(markings, phi: float) -> list:
    """Indices by strictly decreasing h_phi(u); ties allowed only for equal
    markings (kept in input order).  ValueError unless phi is admissible."""
    if not is_admissible(markings, phi):
        raise ValueError(f"phase {phi} is not admissible")
    return sorted(range(len(markings)), key=lambda i: (-h_phase(markings[i], phi), i))


def sort_by_phase(mrs: MRS) -> MRS:
    """The system with vectors and markings in phase order."""
    order = _phase_order(mrs.markings, mrs.phase)
    return replace(mrs, vectors=[mrs.vectors[i] for i in order],
                   markings=[mrs.markings[i] for i in order])


def _check_semiorthonormal(g: np.ndarray, u: list) -> None:
    """Raise ArithmeticError unless the Gram g of vectors marked u, both in
    phase order, has unit diagonal, vanishing lower triangle, and vanishing
    entries between equal distinct markings, each to 1e-9."""
    if not is_uni_uppertriangular(g):
        raise ArithmeticError("phase-ordered Gram is not uni-uppertriangular")
    for i in range(len(u)):
        for j in range(len(u)):
            if i != j and abs(u[i] - u[j]) < 1e-9 and abs(g[i, j]) > 1e-9:
                raise ArithmeticError("nonzero Gram entry between equal markings")


def stokes_matrix(mrs: MRS) -> np.ndarray:
    """Gram matrix in phase order; asserts unit diagonal, vanishing lower
    triangle, and vanishing entries between equal distinct markings."""
    s = sort_by_phase(mrs)
    g = gram(s)
    _check_semiorthonormal(g, s.markings)
    return g


# --- phase rotation ------------------------------------------------------

def mutate_phase_rotation(mrs: MRS, phi_target: float):
    """Continuously rotate the phase to phi_target, applying the block
    mutation at every crossing of a non-admissible direction.

    Convention: when the phase decreases through phi_c = arg(u_j - u_i), the
    marking u_j crosses the ray u_i + R_{>=0} e^{i phi} from the side of
    smaller h_phi, and the u_i-block is right-mutated by the u_j-block.
    Increasing phase gives left mutations.

    The mutations act on integer coefficient rows over the start vectors,
    paired through the start Gram rounded once by integer_gram (so the
    pairing must be bilinear; OverflowError past 1e-9 or 2^53), which must be
    semiorthonormal in phase order at phi0, checked as stokes_matrix does
    (ArithmeticError otherwise).  A full turn leaves the markings unchanged
    and acts by one matrix M, which must preserve the Gram exactly
    (ArithmeticError otherwise); k whole turns are M^k by squaring, then
    come the crossings of the remainder.  Each crossing is placed by its
    path length from phi0, in [0, 2 pi); these lengths, k and the remainder
    are computed in mpmath 128 bits past the exponent of the larger phase,
    so they are exact to far below float spacing for any finite phases.

    Returns (new MRS, log): one log entry per crossing of the first turn
    with "count": k, then one per crossing of the remainder with "count": 1;
    each "crossing_angle" is the float nearest to the exact crossing phase."""
    phi0, phi1 = mrs.phase, phi_target
    order = _phase_order(mrs.markings, phi0)
    if not is_admissible(mrs.markings, phi1):
        raise ValueError(f"phase {phi1} is not admissible")
    decreasing = phi1 < phi0
    sign = -1 if decreasing else 1
    groups = greedy_groups(mrs.markings, 1e-9)
    with mpmath.workprec(128 + max(0, *(math.frexp(p)[1] for p in (phi0, phi1)))):
        two_pi = 2 * mpmath.pi
        travelled = abs(mpmath.mpf(phi1) - phi0)
        turns = int(mpmath.floor(travelled / two_pi))
        paths = []    # (path length, -|d|, gi, gj) of each crossing in one turn
        for (gi, a), (gj, b) in itertools.permutations(enumerate(groups), 2):
            d = mpmath.mpc(mrs.markings[b[0]]) - mrs.markings[a[0]]
            paths.append(((sign * (mpmath.atan2(d.imag, d.real) - phi0)) % two_pi,
                          -abs(d), gi, gj))
        paths.sort()
        # (gi, gj, the float nearest to the crossing phase), in path order
        turn = [(gi, gj, float(phi0 + sign * x)) for x, _, gi, gj in paths]
        tail = [(gi, gj, float(phi0 + sign * (x + turns * two_pi)))
                for x, _, gi, gj in paths if x < travelled - turns * two_pi]
    G, _ = integer_gram(mrs)
    _check_semiorthonormal(np.array(G[np.ix_(order, order)], dtype=complex),
                           [mrs.markings[i] for i in order])

    def cross(rows, events):
        for gi, gj, _ in events:
            for i in groups[gi]:
                r = rows[i]
                for k in groups[gj]:
                    r = r - rows[k] * (r @ G @ rows[k] if decreasing else rows[k] @ G @ r)
                rows[i] = r
        return rows

    M = cross(np.eye(len(mrs.vectors), dtype=object), turn)
    if not np.array_equal(M @ G @ M.T, G):
        raise ArithmeticError("one-turn monodromy does not preserve the Gram")
    rows = cross(np.linalg.matrix_power(M, turns), tail)

    vectors = []
    for row in rows:
        # vector on the left: an mpmath scalar on the left would format repr
        terms = [v * c for v, c in zip(mrs.vectors, row) if c != 0]
        vectors.append(sum(terms[1:], terms[0]))

    def entry(gi, gj, angle, count):
        return {"crossing_angle": angle,
                "moved_marking": complex(mrs.markings[groups[gj][0]]),
                "affected_indices": list(groups[gi]),
                "direction": "R" if decreasing else "L",
                "count": count}
    log = [entry(*e, turns) for e in turn] if turns else []
    log += [entry(*e, 1) for e in tail]
    return replace(mrs, vectors=vectors, phase=phi_target), log


# --- Gamma-basis MRSs ----------------------------------------------------

def gamma_mrs(ring: RingSpec, phase: float = -0.05) -> MRS:
    """Vectors Gamma-hat Ch(S^nu V*) for nu in ring.basis, marked by the
    closed-form spectrum.  On P^{N-1}, S^(j) V* = O(j): the Beilinson basis."""
    vectors = [gamma_basis_class(nu, ring) for nu in ring.basis]
    return MRS(vectors=vectors, markings=spectrum_closed_form(ring.r, ring.N),
               phase=phase, pairing=bracket_pairing)


def beilinson_gamma_mrs(N: int, phase: float = -0.05) -> MRS:
    return gamma_mrs(build_ring("P", N), phase)


def kapranov_gamma_mrs(r: int, N: int, phase: float = -0.05) -> MRS:
    return gamma_mrs(build_ring("G", N, r), phase)


def euler_matrix(ring: RingSpec) -> np.ndarray:
    """chi(S^nu V*, S^mu V*) for nu, mu in ring.basis, as Python ints: the
    exact Gram of gamma_mrs(ring) by Gamma Conjecture II.  On P^{N-1} it is
    the Beilinson table chi(O(i), O(j)) = C(N-1+j-i, N-1); on G(r,N) it is
    the minor of that table on rows wedge_exponents(nu, r) and columns
    wedge_exponents(mu, r) (Kapranov, Ueda), read from its r-th compound."""
    N, r = ring.N, ring.r
    # both index tuples reversed to increasing order: the minor is unchanged
    keys = [wedge_exponents(nu, r)[::-1] for nu in ring.basis]
    if 2 * r <= N:
        minors = compound([[math.comb(N - 1 + j - i, N - 1) if j >= i else 0
                            for j in range(N)] for i in range(N)], r)
        return np.array([[minors[a, b] for b in keys] for a in keys], dtype=object)
    # Jacobi's complementary minors, so the compound has size N - r < r: the
    # table has determinant 1 and inverse (-1)^{j-i} C(N, j-i), so its minor
    # on (a, b) is (-1)^{sum a + sum b} times the inverse's on (b^c, a^c)
    minors = compound([[(-1) ** (j - i) * math.comb(N, j - i) if j >= i else 0
                        for j in range(N)] for i in range(N)], N - r)
    co = {a: tuple(k for k in range(N) if k not in a) for a in keys}
    return np.array([[(-1) ** (sum(a) + sum(b)) * minors[co[b], co[a]] for b in keys]
                     for a in keys], dtype=object)
