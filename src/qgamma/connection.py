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
0 is the J_n of `j_coefficients`, the one exact J entry point.  J_n is read
by one minor reader, `_minors`, from one of two series, whichever takes
fewer steps: that of the target itself (its 1 x 1 minors on column 0), or,
by quantum Satake QH(G(r,N)) = Lambda^r QH(P^{N-1}) at q -> (-1)^(r-1) q,
the N x N series of the twisted P^{N-1}, whose r x r minors on its first r
columns are U_n's column 0 once `_satake_operator` has checked (c_1 *) of
G(r,N) to be the derivation of the twisted operator on wedges.  From the
1 x n start [w] of a class g with c1 cup g = 0 (L = 0, as w rho = 0) the
series gives the row w U_n in O(nnz rho) per order, which `pairing_rows`
yields for the quantum period and the Apery ratios.  Both J and the rows
are refused at the first order past the digits Python prints.  A scaled
float path (n! J_n instead of J_n, as Python lists) on the same `_solve`
yields the rows that `asympt` sums into J(t), as far as that sum reads.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass, replace
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
    return _C1(_transpose(rho_cols, n), rho_cols, gn_cols, 2 * ring.dim + 1)


def _degree_order(ring: RingSpec) -> list:
    """Every (i, j), by increasing deg_i - deg_j: the stable sort, by
    bucketing j by degree, that `_solve` runs the square series in."""
    degs = ring.degrees()
    by_degree: dict = {}
    for j, d in enumerate(degs):
        by_degree.setdefault(d, []).append(j)
    return [(i, j) for shift in range(-ring.dim, ring.dim + 1)
            for i, d in enumerate(degs) for j in by_degree.get(d - shift, ())]


def _twisted(op: _C1, r: int) -> _C1:
    """op with G_N scaled by (-1)^(r-1): (c_1 *) of P^{N-1} at
    q -> (-1)^(r-1) q, whose r-th exterior power quantum Satake reads."""
    sign = (-1) ** (r - 1)
    return replace(op, gn_cols=[[(k, sign * c) for k, c in col] for col in op.gn_cols])


def _satake_operator(ring: RingSpec, wedges: list) -> _C1:
    """The twisted (c_1 *) of P^{N-1} whose derivation on the wedges
    h^{k_1} ^ ... ^ h^{k_r}, k = wedges[j] decreasing for basis class j, is
    (c_1 *) of ring, checked on every column of rho and of G_N
    (ArithmeticError if not).  The derivation replaces one k_i by each entry
    of its column and sorts the wedge back, with the sign of the reordering;
    the twist cancels the sign of moving h^0 past the other r - 1 factors."""
    op = _c1_operator(ring)
    wedge = _twisted(_c1_operator(build_ring("P", ring.N)), len(wedges[0]))
    index = {k: j for j, k in enumerate(wedges)}
    for j, k in enumerate(wedges):
        for part, cols, want in (("rho", wedge.rho_cols, op.rho_cols[j]),
                                 ("G_N", wedge.gn_cols, op.gn_cols[j])):
            got: dict = {}
            for i, ki in enumerate(k):
                for e, c in cols[ki]:
                    if e == ki or e not in k:
                        w = tuple(sorted(k[:i] + (e,) + k[i + 1:], reverse=True))
                        at = index[w]   # e moves past |w.index(e) - i| factors
                        got[at] = got.get(at, 0) + (-c if (w.index(e) - i) % 2 else c)
            if {at: c for at, c in got.items() if c} != dict(want):
                raise ArithmeticError(
                    f"Satake {ring.kind}({ring.r},{ring.N}): (c1 *) is not the wedge "
                    f"derivation of the twisted P^{ring.N - 1} on the {part} column "
                    f"of {list(ring.basis[j])}")
    return wedge


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
    zero, rows = [0] * n, []
    for i in range(n):
        rows.append(zero.copy())
        rows[i][i] = 1
    return rows


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
    degs = ring.degrees()
    order = [(0, j) for j in sorted(range(ring.rank), key=lambda j: -degs[j])]
    rows = ((row, d) for (row,), d in _series(([[x // q for x in w]], d // q), ring.N, op,
                                               [[]], order, ring.dim + 1))
    return ((list(row), d)   # the zero orders share one row
            for row, d in _printable(rows, ring.N, "rows <g, U_n>"))


def _printable(series, N: int, name: str):
    """The orders (Y, d) of series, Y / d an integer vector in lowest terms,
    refused once d or an entry of Y reaches 10^limit; only the orders N
    divides can be nonzero."""
    limit = sys.get_int_max_str_digits()   # 0: no limit
    too_long = 10 ** limit
    for n, (Y, d) in enumerate(series):
        if limit and not n % N and max(d, *map(abs, Y)) >= too_long:
            raise OverflowError(f"exact {name} pass {limit} digits, the first at n = {n}")
        yield Y, d


# --- J-function ----------------------------------------------------------

def _minors(series, N: int, r: int, keys):
    """Yield (Z, D) for n = 0, 1, 2, ...: Z / D in lowest terms, Z[i] the
    coefficient of t^n in the r x r minor on rows keys[i] (increasing) of
    the first r columns of series, which yields (Y_n, d_n), zero unless N
    divides n.  Level k holds the minors of columns 0..k-1 as series in t^N,
    each order a sparse dict {bitmask of the rows: integer} over one
    denominator: level 1 is column 0, and level k + 1 the Laplace expansion
    along column k of level k, read as soon as the series yields an order."""
    masks = [sum(1 << x for x in key) for key in keys]
    zero = [0] * len(keys), 1
    cols: list = []                       # the nonzero (x, Y[x][c]), c < r, and d per order
    lower: list = [[] for _ in range(r)]  # lower[k][a]: level k at order a
    for m, (Y, d) in enumerate(series):
        if m % N:
            yield zero
            continue
        if r == 1:
            yield _lowest([Y[x][0] for x, in keys], d)
            continue
        cols.append(([[(x, row[c]) for x, row in enumerate(Y) if row[c]] for c in range(r)], d))
        level = {1 << x: y for x, y in cols[-1][0][0]}, d
        for k in range(1, r):
            lower[k].append(level)
            level = _expand(cols, lower[k], k)
        yield _lowest([level[0].get(mask, 0) for mask in masks], level[1])


def _expand(cols, low, c: int) -> tuple:
    """Order a = len(cols) - 1 of the level after low, expanded along column
    c: the minor on rows S is the sum over b <= a and x in S of (-1)^(c +
    the position of x in S) col_b[x] low[a - b][S - x], over one
    denominator with the common factor taken out."""
    a = len(cols) - 1
    pairs = [(cols[b][0][c], cols[b][1], *low[a - b]) for b in range(a + 1)]
    D = math.lcm(*(d * e for _, d, _, e in pairs))
    acc: dict = {}
    for col, d, sub, e in pairs:
        f = D // (d * e)
        ys = [(1 << x, (1 << x) - 1, f * y) for x, y in col]
        for mask, z in sub.items():
            for bit, below, y in ys:
                if not mask & bit:
                    v = y * z if ((mask & below).bit_count() + c) % 2 == 0 else -y * z
                    acc[mask | bit] = acc.get(mask | bit, 0) + v
    g = math.gcd(D, *acc.values())
    return {mask: v // g for mask, v in acc.items() if v}, D // g


def _lowest(Z, D) -> tuple:
    """Z / D with the common factor of D and every entry of Z taken out."""
    g = math.gcd(D, *Z)
    return ([z // g for z in Z], D // g) if g > 1 else (Z, D)


def j_coefficients(ring: RingSpec, nmax: int) -> list:
    """Exact J_0..J_nmax as CohClass with Fraction coefficients: J_n is
    column 0 of U_n, the inverse series m U_m + [rho, U_m] = U_{m-N} G_N
    from U_0 = id, read by `_j_series` on the route with fewer steps.  With
    r' = min(r, N - r) and K = nmax // N, the r' x r' minors of quantum
    Satake cost about C(N, r') r' K^2 and the solve on ring itself rank^2 K,
    so a Grassmannian takes the Satake route while r' K <= 5 rank.  The 5
    is fitted to timings of both routes on G(2,4)..G(5,10): from rank 15
    on the Satake route is the faster one up to r' K between about 4.5
    and 7 rank; on G(2,4) and G(2,5) it is slower by at most 2 ms.  Raises
    OverflowError at the first J_n whose numerator or denominator over one
    denominator in lowest terms has more than sys.get_int_max_str_digits()
    digits (the limit on printing it), before solving any later order."""
    if nmax < 0:
        raise ValueError(f"order must be >= 0, got {nmax}")
    satake = ring.kind == "G" and min(ring.r, ring.N - ring.r) * (nmax // ring.N) <= 5 * ring.rank
    return _j_series(ring, nmax, satake)


def _j_series(ring: RingSpec, nmax: int, satake: bool) -> list:
    """J_0..J_nmax as the minors of one exact series.  satake: by quantum
    Satake QH(G(r,N)) = Lambda^r QH(P^{N-1}) at q -> (-1)^(r-1) q, the
    series of the twisted P^{N-1} (an N x N solve), whose r x r minors on
    the first r columns at the rows wedge_exponents(nu, r) are J_n of ring,
    once `_satake_operator` has checked that (c1 *) of ring is the
    derivation of its operator on the wedges: Lambda^r U then solves the
    recursion of ring from U_0 = id, and so is ring's U.  For 2r > N the
    wedges are those of G(N - r, N) at transposed partitions.  Otherwise
    the series of ring itself, whose 1 x 1 minors on column 0 are J_n."""
    N = ring.N
    if satake:
        r = min(ring.r, N - ring.r)
        label = transpose_partition if 2 * ring.r > N else tuple
        wedges = [wedge_exponents(label(nu), r) for nu in ring.basis]
        series_ring, op = build_ring("P", N), _satake_operator(ring, wedges)
        keys = [k[::-1] for k in wedges]
    else:
        series_ring, op, r, keys = ring, _c1_operator(ring), 1, [(i,) for i in range(ring.rank)]
    U = _series((identity(series_ring.rank), 1), N, op, op.rho_rows,
                _degree_order(series_ring), op.levels)
    J = _printable(_minors(itertools.islice(U, nmax + 1), N, r, keys), N, "J_n")
    zero = Fraction(0)
    return [CohClass(ring, [Fraction(x, d) if x else zero for x in Z]) for Z, d in J]


def j_scaled(ring: RingSpec):
    """Float path: yield the rows n! J_n (basis coefficients, float lists), n =
    0, 1, ...: W_m = m! U_m solves m W_m + [rho, W_m] = m!/(m-N)! W_{m-N} G_N
    by `_solve`.  Raises OverflowError at the first row not finite in float64."""
    N, op, order = ring.N, _c1_operator(ring), _degree_order(ring)
    W = identity(ring.rank)
    yield [float(row[0]) for row in W]
    for m in itertools.count(N, N):
        yield from ([0.0] * ring.rank for _ in range(N - 1))
        rhs = _right_mul(W, op.gn_cols, float(math.perm(m, N)))
        W = _solve(m, rhs, op.rho_rows, op, order, operator.truediv)
        if not all(math.isfinite(row[0]) for row in W):
            raise OverflowError(f"non-finite float64 rows n! J_n, the first at n = {m}")
        yield [float(row[0]) for row in W]


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

