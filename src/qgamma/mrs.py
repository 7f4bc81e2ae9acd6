"""Semiorthonormal bases and marked reflection systems.

The integer layer runs on an exact Gram G and the markings, as lists of
lists of Python ints: Stokes matrices, the braid action and phase-rotation
mutation sequences act on integer coefficient rows over the start vectors,
through one mutation kernel on the bilinear form _pair, and never round;
one reader (_int_rows) takes Grams and rows to Python ints and refuses an
entry that is not an integer.  The exact Gram of the Gamma basis is its
Euler matrix (euler_matrix).  The numeric Gram of Gamma-basis classes
(integer_gram, or gram as a complex array) is what the checks compare
against it: a system (SOB, MRS) pairs its vectors by an explicit callable,
such as bracket_pairing on CohClass vectors."""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace

import mpmath

from .charclasses import gamma_basis_class, bracket_pairing, bracket_row
from .connection import identity, spectrum_closed_form
from .rings import RingSpec, build_ring, transpose_partition, wedge_matrix


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


def _pairings(sob) -> list:
    """[v_i, v_j) for all i, j, as rows of scalars in the pairing's own
    arithmetic (of an SOB or an MRS).  Under the bracket pairing each left
    vector becomes its row a B once (bracket_row), so n classes cost
    n nnz(B) + n^2 rank products instead of n^2 nnz(B); any other pairing
    is called per entry."""
    vs = sob.vectors
    if sob.pairing is bracket_pairing:
        rows = [bracket_row(a) for a in vs]
    else:
        rows = [functools.partial(sob.pairing, a) for a in vs]
    return [[row(b) for b in vs] for row in rows]


def gram(sob):
    """The Gram of a system as a complex numpy array."""
    import numpy as np
    return np.array(_pairings(sob), dtype=complex)


def _nearest_ints(rows):
    """(each entry x as the Python int nearest to Re x, taken in x's own
    arithmetic: ints of any size as they are, and mpmath numbers at their
    working precision, which round() would take through float64; the
    largest distance to them, as a float).  A non-finite entry is out of
    range (OverflowError naming it)."""
    def nearest(x, i, j):
        if not mpmath.isfinite(x):
            raise OverflowError(f"Gram entry ({i}, {j}) is {x}")
        return int(mpmath.nint(x.real) if isinstance(x, (mpmath.mpf, mpmath.mpc))
                   else round(x.real))
    ints = [[nearest(x, i, j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return ints, float(max(abs(x - k) for row, near in zip(rows, ints)
                           for x, k in zip(row, near)))


def _int_rows(M) -> list:
    """The 2-D sequence M as rows of Python ints, exact at any size: an int
    or numpy int as it is, another entry as its int() if equal to it, else
    ValueError naming (i, j).  The integer layer's one reader."""
    try:
        return [list(map(operator.index, row)) for row in M]
    except TypeError:
        return [[_int_entry(x, i, j) for j, x in enumerate(row)] for i, row in enumerate(M)]


def _int_entry(x, i: int, j: int) -> int:
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):   # not a real number, or not finite
        pass
    raise ValueError(f"entry ({i}, {j}) = {x!r} is not an integer")


def integer_gram(sob):
    """(the Gram of a system rounded to Python ints, its rounding error)."""
    return _nearest_ints(_pairings(sob))


def is_uni_uppertriangular(g) -> bool:
    """Unit diagonal and vanishing lower triangle, exactly."""
    return all(g[i][i] == 1 and not any(g[i][:i]) for i in range(len(g)))


def h_phase(u: complex, phi: float) -> float:
    return (cmath.exp(-1j * phi) * u).imag


def greedy_groups(values, tol: float) -> list:
    """Index groups of values in input order: each value joins the first
    group whose first member lies within tol, else opens a new group.  At
    tol = 1e-9 on markings this is the one rule for equal markings."""
    groups: list[list] = []
    for i, v in enumerate(values):
        for g in groups:
            if abs(values[g[0]] - v) < tol:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def is_admissible(markings, phi: float) -> bool:
    """True iff e^{i phi} is not parallel to any difference of the first
    members of two groups of equal markings (checked on the sine of the
    angle, to 1e-10); False for a non-finite phi."""
    if not math.isfinite(phi):
        return False
    firsts = [markings[g[0]] for g in greedy_groups(markings, 1e-9)]
    for u, v in itertools.combinations(firsts, 2):
        d = u - v
        if abs((d * cmath.exp(-1j * phi)).imag) / abs(d) < 1e-10:
            return False
    return True


def stokes_matrix(G, markings, phi: float) -> list:
    """The integer Gram G of vectors marked by markings, in the phase order
    of phi: indices by strictly decreasing h_phi(u), ties allowed only for
    equal markings (kept in input order).  ValueError unless phi is
    admissible and G integral (_int_rows); ArithmeticError unless it has unit
    diagonal, vanishing lower triangle and vanishing entries between distinct
    vectors of one group of equal markings (greedy_groups at 1e-9), exactly."""
    if not is_admissible(markings, phi):
        raise ValueError(f"phase {phi} is not admissible")
    G = _int_rows(G)
    order = sorted(range(len(markings)), key=lambda i: (-h_phase(markings[i], phi), i))
    S = [[G[i][j] for j in order] for i in order]
    if not is_uni_uppertriangular(S):
        raise ArithmeticError("phase-ordered Gram is not uni-uppertriangular")
    if any(G[i][j] for g in greedy_groups(markings, 1e-9)
           for i, j in itertools.permutations(g, 2)):
        raise ArithmeticError("nonzero Gram entry between equal markings")
    return S


def _matmul(a, b) -> list:
    """The matrix product of a and b, each rows of Python ints, as rows."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _power(M, k: int) -> list:
    """M^k by repeated squaring, for k >= 0."""
    out = identity(len(M))
    while k:
        out, M, k = (_matmul(out, M) if k & 1 else out), _matmul(M, M), k >> 1
    return out


def gram_of_rows(rows, G) -> list:
    """rows G rows^T, both read by _int_rows: the Gram after the change of basis."""
    rows = _int_rows(rows)
    return _matmul(_matmul(rows, _int_rows(G)), list(zip(*rows)))


def _pair(a, G, b):
    """a G b^T for rows a, b over the Gram G, skipping the zero entries of a."""
    return sum([x * sum(map(operator.mul, row, b)) for x, row in zip(a, G) if x])


def _mutation(v, u, G, right: bool):
    """R_u v = v - (v G u) u if right, else L_u v = v - (u G v) u, on rows
    over vectors paired by the Gram G."""
    c = _pair(v, G, u) if right else _pair(u, G, v)
    return [x - c * y for x, y in zip(v, u)]


def braid_act(G, word) -> list:
    """The rows over vectors paired by the Gram G (read by _int_rows) after
    the braid word: a list of signed 1-based indices; +i applies sigma_i, -i
    its inverse.  sigma_i: (v_i, v_{i+1}) -> (v_{i+1}, R_{v_{i+1}} v_i)."""
    G = _int_rows(G)
    rows = identity(len(G))
    for g in word:
        i = abs(g) - 1
        if not (0 <= i < len(rows) - 1):
            raise ValueError(f"braid generator {g} out of range")
        if g > 0:
            rows[i], rows[i + 1] = rows[i + 1], _mutation(rows[i], rows[i + 1], G, True)
        else:
            rows[i], rows[i + 1] = _mutation(rows[i + 1], rows[i], G, False), rows[i]
    return rows


# --- phase rotation ------------------------------------------------------

def phase_rotation(G, markings, phi0: float, phi1: float):
    """Continuously rotate the phase from phi0 to phi1, applying the block
    mutation at every crossing of a non-admissible direction, to the rows
    over vectors paired by the Gram G and marked by markings.

    Convention: when the phase decreases through phi_c = arg(u_j - u_i), the
    marking u_j crosses the ray u_i + R_{>=0} e^{i phi} from the side of
    smaller h_phi, and the u_i-block is right-mutated by the u_j-block.
    Increasing phase gives left mutations.

    Both phases must be admissible, phi0 checked first (ValueError).  G is
    rounded entry by entry in its own arithmetic, so an integer Gram is used
    as it is; a Gram more than 1e-9 from integral is out of range
    (OverflowError).  At phi0 it must pass stokes_matrix (ArithmeticError
    otherwise).  A full turn leaves the markings unchanged and acts by one
    matrix M, which must preserve the Gram exactly (ArithmeticError
    otherwise); k whole turns are M^k by squaring, then come the crossings
    of the remainder.  Each crossing is placed by its path length from phi0,
    in [0, 2 pi); these lengths, k and the remainder are computed in mpmath
    128 bits past the exponent of the larger phase, so they are exact to
    far below float spacing for any finite phases.

    Returns (rows, log): the integer rows, one per vector over the start
    vectors; one log entry per crossing of the first turn with
    "count": k, then one per crossing of the remainder with "count": 1;
    each "crossing_angle" is the float nearest to the exact crossing phase."""
    for phi in (phi0, phi1):
        if not is_admissible(markings, phi):
            raise ValueError(f"phase {phi} is not admissible")
    G, err = _nearest_ints(G)
    if err > 1e-9:
        raise OverflowError(f"Gram rounding error {err:.3g} exceeds 1e-9")
    stokes_matrix(G, markings, phi0)
    decreasing = phi1 < phi0
    sign = -1 if decreasing else 1
    groups = greedy_groups(markings, 1e-9)
    with mpmath.workprec(128 + max(0, *(math.frexp(p)[1] for p in (phi0, phi1)))):
        two_pi = 2 * mpmath.pi
        travelled = abs(mpmath.mpf(phi1) - phi0)
        turns = int(mpmath.floor(travelled / two_pi))
        paths = []    # (path length, -|d|, gi, gj) of each crossing in one turn
        for (gi, a), (gj, b) in itertools.permutations(enumerate(groups), 2):
            d = mpmath.mpc(markings[b[0]]) - markings[a[0]]
            paths.append(((sign * (mpmath.atan2(d.imag, d.real) - phi0)) % two_pi,
                          -abs(d), gi, gj))
        paths.sort()
        # (gi, gj, the float nearest to the crossing phase), in path order
        turn = [(gi, gj, float(phi0 + sign * x)) for x, _, gi, gj in paths]
        tail = [(gi, gj, float(phi0 + sign * (x + turns * two_pi)))
                for x, _, gi, gj in paths if x < travelled - turns * two_pi]

    def cross(rows, events):
        for gi, gj, _ in events:
            for i in groups[gi]:
                for k in groups[gj]:
                    rows[i] = _mutation(rows[i], rows[k], G, decreasing)
        return rows

    M = cross(identity(len(markings)), turn)
    if gram_of_rows(M, G) != G:
        raise ArithmeticError("one-turn monodromy does not preserve the Gram")
    rows = cross(_power(M, turns), tail)

    def entry(gi, gj, angle, count):
        return {"crossing_angle": angle,
                "moved_marking": complex(markings[groups[gj][0]]),
                "affected_indices": list(groups[gi]),
                "direction": "R" if decreasing else "L",
                "count": count}
    log = [entry(*e, turns) for e in turn] if turns else []
    log += [entry(*e, 1) for e in tail]
    return rows, log


def mutate_phase_rotation(mrs: MRS, phi_target: float):
    """phase_rotation of a system from its phase to phi_target, on its Gram
    in the pairing's own arithmetic (so the pairing must be bilinear), with
    the rows mapped back onto its vectors: (new MRS, log)."""
    rows, log = phase_rotation(_pairings(mrs), mrs.markings, mrs.phase, phi_target)
    vectors = []
    for row in rows:
        # vector on the left: an mpmath scalar on the left would format repr
        terms = [v * c for v, c in zip(mrs.vectors, row) if c != 0]
        vectors.append(sum(terms[1:], terms[0]))
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


def kapranov_gamma_mrs(r: int, N: int) -> MRS:
    return gamma_mrs(build_ring("G", N, r))


def euler_matrix(ring: RingSpec) -> list:
    """chi(S^nu V*, S^mu V*) for nu, mu in ring.basis, as Python ints: the
    exact Gram of gamma_mrs(ring) by Gamma Conjecture II.  On P^{N-1} it is
    the Beilinson table chi(O(i), O(j)) = C(N-1+j-i, N-1); on G(r,N) it is
    the minor of that table on rows wedge_exponents(nu, r) and columns
    wedge_exponents(mu, r) (Kapranov, Ueda): its r-th exterior power
    (rings.wedge_matrix)."""
    N, r = ring.N, ring.r
    if 2 * r <= N:
        return wedge_matrix([[math.comb(N - 1 + j - i, N - 1) if j >= i else 0
                              for j in range(N)] for i in range(N)], r, ring.basis)
    # 2r > N: by Jacobi, each minor is the complementary one of the inverse
    # (-1)^{j-i} C(N, j-i), at N - 1 - wedge_exponents(nu^T, N - r); the signs
    # cancel, and the exterior power has size N - r < r
    return wedge_matrix([[math.comb(N, j - i) if j >= i else 0 for j in range(N)]
                         for i in range(N)], N - r, map(transpose_partition, ring.basis))
