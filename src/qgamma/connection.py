"""The quantum connection at tau = 0: (c_1 *), its spectrum and Property O,
the recursive inverse series of the canonical fundamental solution,
J-function coefficients and quantum periods.

(c_1 *) = rho + q G_N is built in one place, `_c1_operator`, as a sparse
record: rho = N (sigma_1 cup .) read off the ring's cup table, G_N from
Bertram's quantum Pieri rule for sigma_1.  Every solve reads that record,
and so does the spectrum: the closed form, certified in F_p by one exact
left eigen-row per point of Spec QH.  One back-substitution, `_solve`, solves
m X + L X - X rho = rhs, and one generator, `_series`, runs the exact
recursion on it: integers over one denominator per order, the right-hand
side X_{m-N} G_N summed over the nonempty columns of G_N only, and each
order checked exactly by a residual pass of its own over the final X.
From the identity (L = rho) it gives the inverse series U_n, whose column
0 is the J_n of `j_coefficients`, the one exact J entry point; from the
1 x n start [w] of a class g with c1 cup g = 0 (L = 0, as w rho = 0) it
gives the row w U_n in O(nnz rho) per order, which
`pairing_rows` yields for the quantum period and the Apery ratios.  Both J
and the rows are refused at the first order past the digits Python prints.
A scaled float path (n! J_n instead of J_n, as Python lists) on the same
`_solve` gives the rows that `asympt` sums into J(t).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import isprime

from .rings import (RingSpec, CohClass, build_ring, cup, normalize_partition,
                    partitions_in_box, transpose_partition, wedge_exponents, wedge_matrix)


# --- (c_1 *) on the Schubert basis ----------------------------------------

@dataclass(frozen=True)
class _C1:
    """(c_1 *) = rho + q G_N in the sparse form every solver reads: rows[i]
    and cols[j] list the nonzero entries (k, value) of row i and column j."""
    rho_rows: list
    rho_cols: list
    gn_cols: list
    order: list    # every (i, j), by increasing deg_i - deg_j
    levels: int    # 2 dim + 1 values of deg_i - deg_j: ad_rho^levels = 0


def _transpose(cols, n: int) -> list:
    """Sparse rows of the n x n matrix with the given sparse columns."""
    rows = [[] for _ in range(n)]
    for j, col in enumerate(cols):
        for k, c in col:
            rows[k].append((j, c))
    return rows


def _c1_operator(ring: RingSpec) -> _C1:
    """rho = N (sigma_1 cup .) from the cup table, and G_N from Bertram's
    quantum Pieri rule for sigma_1: the q-term of sigma_1 * sigma_lam is
    sigma_(lam_2 - 1, ..., lam_r - 1) when lam has r parts and
    lam_1 = N - r, and zero otherwise."""
    N, r, n = ring.N, ring.r, ring.rank
    s1 = ring.index[(1,)]
    rho_cols = [[(k, N * c) for k, c in ring.cup_table[(s1, j)]] for j in range(n)]
    gn_cols = [[(ring.index[normalize_partition(p - 1 for p in lam[1:])], N)]
               if len(lam) == r and lam[0] == N - r else [] for lam in ring.basis]
    # the stable sort by deg_i - deg_j, by bucketing j by degree
    degs = ring.degrees()
    by_degree: dict = {}
    for j, d in enumerate(degs):
        by_degree.setdefault(d, []).append(j)
    order = [(i, j) for shift in range(-ring.dim, ring.dim + 1)
             for i, d in enumerate(degs) for j in by_degree.get(d - shift, ())]
    return _C1(_transpose(rho_cols, n), rho_cols, gn_cols, order, 2 * ring.dim + 1)


# --- spectrum and Property O --------------------------------------------

@dataclass
class SpectrumReport:
    eigenvalues: list          # (value, multiplicity) clusters
    T: float
    T_prime: float
    T_multiplicity: int
    property_o_holds: bool
    violated_clause: int | None


def spectrum_closed_form(r: int, N: int) -> list:
    """Spec(c1 *) on G(r,N), one eigenvalue per partition nu in basis order:
    sum_i N e^{(r-1) pi i / N} e^{-2 pi i k_i / N}, k = wedge_exponents(nu, r).
    This is also the marking rule of the Gamma basis Gamma-hat Ch(S^nu V*):
    the sum of the rotated P^{N-1} markings of O(k_1), ..., O(k_r)."""
    rot = cmath.exp(1j * math.pi * (r - 1) / N)
    return [sum(N * rot * cmath.exp(-2j * math.pi * k / N) for k in wedge_exponents(nu, r))
            for nu in partitions_in_box(r, N - r)]


@functools.cache
def _field(N: int) -> tuple:
    """(p, [z^e for e < 2N]): p the first prime = 1 mod 2N above 2^61 and z
    of order exactly 2N in F_p, so that z^a stands for e^{pi i a / N}."""
    p = next(p for p in itertools.count(2 ** 61 // (2 * N) * 2 * N + 1, 2 * N)
             if p > 2 ** 61 and isprime(p))
    for g in itertools.count(2):
        z = pow(g, (p - 1) // (2 * N), p)
        zs = [pow(z, e, p) for e in range(2 * N)]
        if len(set(zs)) == 2 * N:
            return p, tuple(zs)


def _exact_spectrum(ring: RingSpec) -> list:
    """Each nu's closed-form eigenvalue N sum_i x_i in F_p, x_i = z^(r - 1 -
    2 k_i) the roots of x^N = (-1)^(r-1) at k = wedge_exponents(nu, r), once
    checked to be Spec(c1 *) (ArithmeticError if not).  Each such point x of
    Spec QH (Siebert-Tian) gives the left eigenvector w_mu = s_mu(x) V(x),
    eigenvalue N sum x, as row nu of the exterior power (rings.wedge_matrix)
    of the powers x^e, e < N, of the N roots.  Rows sharing an eigenvalue
    must be Poincare-orthogonal with nonzero squares, so all n rows are
    independent.  For 2r > N they are the rows of G(N - r, N) at transposed
    partitions (sigma_mu -> sigma_mu^T is a ring isomorphism fixing c1), as
    the compound costs about 2^N."""
    N, name = ring.N, f"spectrum {ring.kind}({ring.r},{ring.N})"
    p, zs = _field(N)
    r, label = (N - ring.r, transpose_partition) if 2 * ring.r > N else (ring.r, tuple)
    rows = wedge_matrix([[zs[(r - 1 - 2 * k) * e % (2 * N)] for e in range(N)]
                         for k in range(N)], r, map(label, ring.basis))
    op = _c1_operator(ring)
    cols = [rc + gc for rc, gc in zip(op.rho_cols, op.gn_cols)]
    groups: dict = {}
    for nu, row in zip(ring.basis, rows):
        w = [m % p for m in row]
        lam = N * sum(zs[(r - 1 - 2 * k) % (2 * N)] for k in wedge_exponents(label(nu), r)) % p
        if any((sum(w[k] * c for k, c in col) - lam * w[j]) % p for j, col in enumerate(cols)):
            raise ArithmeticError(f"{name}: the row of {list(nu)} is not an eigenvector mod {p}")
        groups.setdefault(lam, []).append(w)
    if any(bool(sum(u[i] * v[j] for i, j in enumerate(ring.dual)) % p) != (u is v)
           for rows in groups.values() for k, u in enumerate(rows) for v in rows[:k + 1]):
        raise ArithmeticError(f"{name}: the eigen-rows mod {p} are not independent")
    exact = [N * sum(zs[(ring.r - 1 - 2 * k) % (2 * N)] for k in wedge_exponents(nu, ring.r)) % p
             for nu in ring.basis]
    if Counter(exact) != {lam: len(rows) for lam, rows in groups.items()}:
        raise ArithmeticError(f"{name}: the eigenvalues mod {p} are not the closed form")
    return exact


def spectrum(ring: RingSpec) -> SpectrumReport:
    """Spec(c1 *) as `spectrum_closed_form`, certified exactly by
    `_exact_spectrum` (ArithmeticError when a check fails).  Multiplicities
    are those of the exact values; the clusters, in order of their rounded
    values, T, T' and the Property O clauses read the complex values."""
    tol = 1e-8
    exact = _exact_spectrum(ring)
    vals = spectrum_closed_form(ring.r, ring.N)
    groups: dict = {}
    for i in sorted(range(ring.rank), key=lambda i: (round(vals[i].real, 6), round(vals[i].imag, 6))):
        groups.setdefault(exact[i], []).append(vals[i])
    clusters = [(vs[0], len(vs)) for vs in groups.values()]
    T = max(abs(v) for v, _ in clusters)
    T_mult = next((m for v, m in clusters if abs(v - T) < tol), 0)
    roots = [cmath.exp(2j * math.pi * k / ring.fano_index) for k in range(ring.fano_index)]
    clause = (1 if not T_mult else
              2 if any(min(abs(v / T - u) for u in roots) > 1e-6
                       for v, _ in clusters if abs(abs(v) - T) < tol) else
              3 if T_mult != 1 else None)
    T_prime = max((v.real for v, _ in clusters if abs(v - T) >= tol), default=float("-inf"))
    return SpectrumReport(eigenvalues=clusters, T=float(T), T_prime=float(T_prime),
                          T_multiplicity=T_mult, property_o_holds=clause is None,
                          violated_clause=clause)


# --- exact inverse series ------------------------------------------------

def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _right_mul(a, cols, s):
    """s a @ B for the scalar s, with B given by its sparse columns: only the
    nonempty columns are summed, every other entry is the zero 0 * s."""
    zero, filled = 0 * s, [(j, col) for j, col in enumerate(cols) if col]
    out = []
    for row in a:
        new = [zero] * len(cols)
        for j, col in filled:
            new[j] = s * sum(row[k] * c for k, c in col)
        out.append(new)
    return out


def _solve(m: int, rhs, left, op: _C1, order, div):
    """Solve m X + L X - X rho = rhs (m >= 1), L = rho (left = op.rho_rows)
    or L = 0 (left = [[]], a 1 x n row); exact for Fractions with truediv,
    and for integers with floordiv when m^levels divides rhs.

    rho raises degree by exactly one, so entry (i, j) reads only entries of
    X whose deg_i - deg_j is one less, solved before it when order lists
    (i, j) by increasing deg_i - deg_j: one pass, O(nnz(rho)) per row of X,
    skipping zeros of X.  The solution is sum_{l < levels} (-ad)^l rhs /
    m^(l+1), ad X = L X - X rho."""
    X = [[0] * len(row) for row in rhs]
    rho_cols = op.rho_cols
    for i, j in order:
        s = rhs[i][j]
        for k, c in left[i]:
            x = X[k][j]
            if x:
                s -= c * x
        Xi = X[i]
        for k, c in rho_cols[j]:
            x = Xi[k]
            if x:
                s += c * x
        if s:
            Xi[j] = div(s, m)
    return X


def _series(first, N: int, op: _C1, left, order, levels: int):
    """Yield X_0 = first, then X_m solving m X_m + L X_m - X_m rho =
    X_{m-N} G_N (X_{m-N} = 0 for m < N, so X_m = 0 unless N divides m) as
    (Y_m, d_m), X_m = Y_m / d_m in lowest terms, Y_m an integer matrix.
    Scaling the right-hand side by d_{m-N} m^levels makes every division
    exact.  Each order is checked on its own pass over the final X: every
    entry of m X + L X - X rho - rhs must be 0 (ArithmeticError if not)."""
    rho_cols = op.rho_cols
    Y, d = first
    zero = [[0] * len(row) for row in Y], 1   # every zero order: read, never changed
    yield first
    for m in itertools.count(N, N):
        for _ in range(N - 1):
            yield zero
        if not any(map(any, Y)):
            Y, d = zero
        else:
            scale = m ** levels
            rhs = _right_mul(Y, op.gn_cols, scale)
            X = _solve(m, rhs, left, op, order, operator.floordiv)
            for i, j in order:
                Xi = X[i]
                s = rhs[i][j] - m * Xi[j]
                for k, c in left[i]:
                    s -= c * X[k][j]
                for k, c in rho_cols[j]:
                    s += c * Xi[k]
                if s:
                    raise ArithmeticError(f"exact solve at order {m}: residual {s} at ({i}, {j})")
            g = math.gcd(d * scale, *itertools.starmap(math.gcd, X))
            Y, d = [[x // g for x in row] for row in X], d * scale // g
        yield Y, d


# --- one exact row: <g, J_n> for c_1 cup g = 0 --------------------------

def pairing_rows(ring: RingSpec, g: CohClass):
    """Yield (Y_n, d_n) for n = 0, 1, 2, ...: the row w U_n = Y_n / d_n of
    the inverse series, w = ((g, sigma_j))_j for g with int or Fraction
    coefficients, Y_n an integer list over one d_n in lowest terms, so
    <g, J_n> = Y_n[0] / d_n.  As c_1 cup g = 0 gives w rho = 0, w times the
    recursion is w U_m (m - rho) = w U_{m-N} G_N: the series from the 1 x n
    start [w] with L = 0 and levels dim + 1, columns by decreasing degree.
    Raises ValueError unless c_1 cup g = 0, and OverflowError at the first
    order with d_n or an entry past sys.get_int_max_str_digits() digits (the
    limit on printing it), before solving any later order."""
    op = _c1_operator(ring)
    w = [g.coeffs[j] for j in ring.dual]
    d = math.lcm(*(c.denominator for c in w))
    w = [int(c * d) for c in w]
    if any(sum(w[k] * c for k, c in col) for col in op.rho_cols):
        raise ValueError("c1 cup g != 0: <g, J_n> closes on one row only for "
                         "a class with c1 cap gamma = 0")
    q = math.gcd(d, *w)
    series = _series(([[x // q for x in w]], d // q), ring.N, op, [[]],
                     [(i, j) for i, j in op.order if i == 0], ring.dim + 1)
    return ((list(row), d)   # the zero orders share one row
            for (row,), d in _printable(series, ring.N, "rows <g, U_n>", lambda Y: Y[0]))


def _printable(series, N: int, name: str, part):
    """The orders (Y, d) of series, refused once d or an entry of part(Y)
    reaches 10^limit; only the orders N divides can be nonzero."""
    limit = sys.get_int_max_str_digits()   # 0: no limit
    too_long = 10 ** limit
    for n, (Y, d) in enumerate(series):
        if limit and not n % N and max(d, *map(abs, part(Y))) >= too_long:
            raise OverflowError(f"exact {name} pass {limit} digits, the first at n = {n}")
        yield Y, d


# --- J-function ----------------------------------------------------------

def j_coefficients(ring: RingSpec, nmax: int) -> list:
    """Exact J_0..J_nmax as CohClass with Fraction coefficients: J_n is
    column 0 of U_n, the inverse series m U_m + [rho, U_m] = U_{m-N} G_N
    from U_0 = id.  Raises OverflowError at the first J_n with d_n or a
    numerator past sys.get_int_max_str_digits() digits (the limit on
    printing it), before solving any later order."""
    if nmax < 0:
        raise ValueError(f"order must be >= 0, got {nmax}")
    op = _c1_operator(ring)
    U = _series((identity(ring.rank), 1), ring.N, op, op.rho_rows, op.order, op.levels)
    U = _printable(itertools.islice(U, nmax + 1), ring.N, "J_n", lambda Y: [row[0] for row in Y])
    zero = Fraction(0)
    return [CohClass(ring, [Fraction(row[0], d) if row[0] else zero for row in Y]) for Y, d in U]


def j_scaled(ring: RingSpec, nmax: int) -> list:
    """Float path: row n holds n! * J_n (basis coefficients, a list of
    floats).  W_m = m! U_m solves m W_m + [rho, W_m] = m!/(m-N)! W_{m-N} G_N
    by `_solve`.  Raises OverflowError at the first row not finite in float64."""
    n, N = ring.rank, ring.N
    op = _c1_operator(ring)
    W, zero = [identity(n)], [[0] * n for _ in range(n)]   # zero: read, never changed
    for m in range(1, nmax + 1):
        if m < N or not any(map(any, W[m - N])):
            W.append(zero)
            continue
        rhs = _right_mul(W[m - N], op.gn_cols, float(math.perm(m, N)))
        W.append(_solve(m, rhs, op.rho_rows, op, op.order, operator.truediv))
        if not all(math.isfinite(row[0]) for row in W[m]):
            raise OverflowError(f"non-finite float64 rows n! J_n, the first at n = {m}")
    return [[float(row[0]) for row in Wm] for Wm in W]


_RISING: dict = {}


def rising_inverses(ring: RingSpec, sign: int, one):
    """Yield prod_{k=1}^{n} (h + sign k)^{-N} for n = 0, 1, 2, ... on
    ring = P^{N-1}; one is the scalar 1 of the result's type (Fraction or
    mpf).  Each order makes one cup, by the class
    (h + c)^{-N} = sum_j C(N+j-1, j) (-h)^j / c^{N+j}, c = sign n, once per
    ring, sign, type of one and precision: _RISING keeps tuple coefficients."""
    N = ring.N
    made = _RISING.setdefault((ring.kind, N, sign, type(one), mp.prec),
                              [CohClass(ring, tuple((ring.unit() * one).coeffs))])
    for n in itertools.count(1):
        yield CohClass(ring, list(made[n - 1].coeffs))
        if n == len(made):
            c = sign * n * one
            inv = [(-1) ** j * math.comb(N + j - 1, j) / c ** (N + j) for j in range(ring.rank)]
            made.append(CohClass(ring, tuple(cup(made[-1], CohClass(ring, inv)).coeffs)))


def j_closed_form_P(N: int, nmax: int) -> list:
    """J_{N n} = 1 / prod_{k=1}^{n} (h + k)^N on P^{N-1}, exact Fractions."""
    ring = build_ring("P", N)
    inverses = rising_inverses(ring, 1, Fraction(1))
    return [ring.zero() if m % N else next(inverses) for m in range(nmax + 1)]


def quantum_period(ring: RingSpec, nmax: int, exact: bool = True):
    """G_n = <[pt], J_n>, the degree-0 component of J_n, for n = 0..nmax,
    read off the exact row of the point class (`pairing_rows`).  exact:
    Fractions; otherwise the scaled terms n! G_n, each the correctly rounded
    float64 of the exact term.  Raises OverflowError at the first n whose
    n! G_n is not finite in float64, before solving any later order."""
    if nmax < 0:
        raise ValueError(f"order must be >= 0, got {nmax}")
    rows = itertools.islice(pairing_rows(ring, ring.basis_class(ring.top())), nmax + 1)
    if exact:
        return [Fraction(Y[0], d) for Y, d in rows]
    out, fact = [], 1
    for n, (Y, d) in enumerate(rows):
        fact *= max(n, 1)
        try:
            out.append(Y[0] * fact / d)   # int / int rounds correctly
        except OverflowError:
            raise OverflowError("non-finite float64 terms n! G_n, "
                                f"the first at n = {n}") from None
    return out

