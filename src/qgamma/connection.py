"""The quantum connection at tau = 0: matrix of (c_1 *), spectrum and
Property O, the recursive canonical fundamental solution, J-function
coefficients, quantum periods, and central charges.

Two arithmetic paths are provided: exact Fractions for the recursion and its
order-by-order identities, and a scaled float path (carrying n! J_n instead
of J_n) for the long runs used by radius and Apery estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf, exp as mp_exp, log as mp_log

from .rings import RingSpec, CohClass, build_ring, cup, quantum_pieri, poincare_pair
from .charclasses import BundleClass, gamma_class, ch_modified, bracket_pairing


# --- matrices of (c_1 *) -------------------------------------------------

def _pieri_columns(ring: RingSpec):
    """Classical and quantum parts of (sigma_1 *) as integer column data."""
    classical = [[0] * ring.rank for _ in range(ring.rank)]
    quantum = [[0] * ring.rank for _ in range(ring.rank)]
    for j, lam in enumerate(ring.basis):
        parts = quantum_pieri(1, lam, ring)
        for i in range(ring.rank):
            classical[i][j] = parts[0].coeffs[i]
            quantum[i][j] = parts[1].coeffs[i]
    return classical, quantum


def graded_pieces(ring: RingSpec):
    """G_0 = rho = (c_1 cup .) and G_N = the q-part of (c_1 *), exact ints."""
    classical, quantum = _pieri_columns(ring)
    N = ring.N
    G0 = [[N * classical[i][j] for j in range(ring.rank)] for i in range(ring.rank)]
    GN = [[N * quantum[i][j] for j in range(ring.rank)] for i in range(ring.rank)]
    return G0, GN


def c1_matrix(ring: RingSpec, q: complex = 1.0) -> np.ndarray:
    G0, GN = graded_pieces(ring)
    return np.array(G0, dtype=complex) + q * np.array(GN, dtype=complex)


# --- spectrum and Property O --------------------------------------------

@dataclass
class SpectrumReport:
    eigenvalues: list          # (value, multiplicity) clusters
    T: float
    T_prime: float
    T_multiplicity: int
    property_o_holds: bool
    violated_clause: int | None
    closed_form_match: bool


def spectrum_closed_form(r: int, N: int) -> list:
    """Spec(c1 *) on G(r,N): N e^{(r-1) pi i / N} (zeta^{i_1}+...+zeta^{i_r})."""
    import itertools
    zeta = np.exp(2j * np.pi / N)
    rot = N * np.exp(1j * np.pi * (r - 1) / N)
    return [rot * sum(zeta ** i for i in subset)
            for subset in itertools.combinations(range(N), r)]


def _cluster(values, tol=1e-8):
    clusters: list[list] = []
    for v in sorted(values, key=lambda z: (round(z.real, 6), round(z.imag, 6))):
        for c in clusters:
            if abs(v - c[0]) < tol:
                c.append(v)
                break
        else:
            clusters.append([v])
    return [(complex(np.mean(c)), len(c)) for c in clusters]


def spectrum(ring: RingSpec, tol: float = 1e-8) -> SpectrumReport:
    eig = np.linalg.eigvals(c1_matrix(ring, q=1.0))
    clusters = _cluster(eig, tol)
    T = max(abs(v) for v, _ in clusters)
    t_cluster = [(v, m) for v, m in clusters if abs(v - T) < tol]
    holds, clause = True, None
    if not t_cluster:
        holds, clause = False, 1
        T_mult = 0
    else:
        T_mult = t_cluster[0][1]
    rf = ring.fano_index
    if holds:
        for v, _ in clusters:
            if abs(abs(v) - T) < tol:
                ratio = v / T
                if min(abs(ratio - np.exp(2j * np.pi * k / rf)) for k in range(rf)) > 1e-6:
                    holds, clause = False, 2
                    break
    if holds and T_mult != 1:
        holds, clause = False, 3
    T_prime = max((v.real for v, _ in clusters if abs(v - T) >= tol), default=float("-inf"))

    closed = spectrum_closed_form(ring.r, ring.N)
    closed_match = _multisets_match(eig, closed, tol)
    return SpectrumReport(eigenvalues=clusters, T=float(T), T_prime=float(T_prime),
                          T_multiplicity=T_mult, property_o_holds=holds,
                          violated_clause=clause, closed_form_match=closed_match)


def _multisets_match(a, b, tol=1e-8) -> bool:
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    for v in a:
        best = min(range(len(b)), key=lambda i: abs(b[i] - v))
        if abs(b[best] - v) > tol:
            return False
        b.pop(best)
    return True


# --- exact fundamental solution -----------------------------------------

def _mat_zero(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _mat_id(n):
    m = _mat_zero(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def _mat_mul(a, b):
    n = len(a)
    out = _mat_zero(n)
    for i in range(n):
        ai = a[i]
        for k in range(n):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(n):
                if bk[j] != 0:
                    oi[j] += c * bk[j]
    return out


def _mat_add(a, b, sb=1):
    return [[a[i][j] + sb * b[i][j] for j in range(len(a))] for i in range(len(a))]


def _mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def _sparse_rows(a):
    """Nonzero entries of each row of a, as [(column, value), ...]."""
    return [[(k, x) for k, x in enumerate(row) if x] for row in a]


def _right_mul(a, cols):
    """a @ B, with B given by its sparse columns."""
    return [[sum(row[k] * c for k, c in col) for col in cols] for row in a]


def _left_mul(rows, a):
    """B @ a, with B given by its sparse rows."""
    n = len(a)
    return [[sum(c * a[k][j] for k, c in row) for j in range(n)] for row in rows]


@dataclass(frozen=True)
class _SparseRho:
    """rho = (c_1 cup .) in the form the graded solver reads."""
    rows: list     # rows[i] = [(k, rho[i][k]), ...], nonzero entries only
    cols: list     # cols[j] = [(k, rho[k][j]), ...], nonzero entries only
    order: list    # every (i, j), by increasing deg_i - deg_j


def _sparse_rho(ring: RingSpec, G0) -> _SparseRho:
    degs = ring.degrees()
    n = ring.rank
    order = sorted(((i, j) for i in range(n) for j in range(n)),
                   key=lambda ij: degs[ij[0]] - degs[ij[1]])
    return _SparseRho(_sparse_rows(G0), _sparse_rows(zip(*G0)), order)


def _minus_commutator(s, rho: _SparseRho, X, i: int, j: int):
    """s - [rho, X][i][j], skipping zero entries of X."""
    for k, c in rho.rows[i]:
        x = X[k][j]
        if x:
            s -= c * x
    Xi = X[i]
    for k, c in rho.cols[j]:
        x = Xi[k]
        if x:
            s += c * x
    return s


def _solve_graded(m: int, rhs, rho: _SparseRho):
    """Solve m X + [rho, X] = rhs (m >= 1, rhs a Fraction matrix) exactly.

    rho raises degree by exactly one, so [rho, X][i][j] reads only entries of
    X whose deg_i - deg_j is one less.  Visiting (i, j) in rho.order finds them
    already solved: one back-substitution pass, O(n^2 nnz(rho))."""
    X = _mat_zero(len(rhs))
    for i, j in rho.order:
        s = _minus_commutator(rhs[i][j], rho, X, i, j)
        if s:
            X[i][j] = s / m
    return X


def _check_graded(m: int, X, rhs, rho: _SparseRho):
    """Raise ArithmeticError unless m X + [rho, X] == rhs exactly."""
    for i, j in rho.order:
        s = _minus_commutator(rhs[i][j] - m * X[i][j], rho, X, i, j)
        if s:
            raise ArithmeticError(
                f"graded solve at order {m}: residual {s} at ({i}, {j})")


def _graded_series(M: int, N: int, rho: _SparseRho, step) -> list:
    """X_0 = id and m X_m + [rho, X_m] = step(X_{m-N}) for m = 1..M, with
    X_{m-N} = 0 for m < N; each solve is checked exactly."""
    n = len(rho.rows)
    out = [_mat_id(n)]
    for m in range(1, M + 1):
        if m < N or not any(map(any, out[m - N])):
            out.append(_mat_zero(n))
            continue
        rhs = step(out[m - N])
        X = _solve_graded(m, rhs, rho)
        _check_graded(m, X, rhs, rho)
        out.append(X)
    return out


@dataclass
class FundamentalSolution:
    """The canonical fundamental solution up to `order`.  U and J are
    computed with it; T is computed by the same graded solver on first
    access, so callers that need only J never build it."""
    ring: RingSpec
    order: int
    U: list        # inverse series, U[0] = id, U[m] exact Fraction matrices
    J: list        # J[m] = U[m][.][0] as CohClass with Fraction coefficients
    _T: list | None = field(default=None, repr=False, compare=False)

    @property
    def T(self) -> list:
        """T[0] = id, T[m] exact Fraction matrices:
        m T_m + [rho, T_m] + G_N T_{m-N} = 0."""
        if self._T is None:
            G0, GN = graded_pieces(self.ring)
            minus_gn = _sparse_rows([[-x for x in row] for row in GN])
            self._T = _graded_series(self.order, self.ring.N, _sparse_rho(self.ring, G0),
                                     lambda A: _left_mul(minus_gn, A))
        return self._T


def fundamental_solution(ring: RingSpec, M: int) -> FundamentalSolution:
    if M < 0:
        raise ValueError(f"order must be >= 0, got {M}")
    G0, GN = graded_pieces(ring)
    gn_cols = _sparse_rows(zip(*GN))
    # inverse series: m U_m + [rho, U_m] = U_{m-N} G_N
    U = _graded_series(M, ring.N, _sparse_rho(ring, G0), lambda A: _right_mul(A, gn_cols))
    J = [CohClass(ring, [row[0] for row in Um]) for Um in U]
    return FundamentalSolution(ring=ring, order=M, U=U, J=J)


def recursion_residual(fs: FundamentalSolution):
    """Max |m T_m + sum_k G_k T_{m-k} + [rho, T_m]| over m (exact zero)."""
    G0, GN = graded_pieces(fs.ring)
    rho = [[Fraction(x) for x in row] for row in G0]
    GNf = [[Fraction(x) for x in row] for row in GN]
    worst = Fraction(0)
    for m in range(1, fs.order + 1):
        acc = _mat_scale(fs.T[m], Fraction(m))
        acc = _mat_add(acc, _mat_add(_mat_mul(rho, fs.T[m]), _mat_mul(fs.T[m], rho), sb=-1))
        if m >= fs.ring.N:
            acc = _mat_add(acc, _mat_mul(GNf, fs.T[m - fs.ring.N]))
        worst = max(worst, max(abs(x) for row in acc for x in row))
    return worst


def pairing_identity_residual(fs: FundamentalSolution):
    """Prop-2.1 pairing: with S_m[i,j] = T_{m + deg_j - deg_i}[i,j],
    sum_{a+b=m} (-1)^a S_a^t P S_b = delta_{m,0} P, exactly.

    S_m draws on T up to order m + dim, so only m <= order - dim is checked."""
    ring = fs.ring
    n = ring.rank
    degs = ring.degrees()
    mmax = fs.order - ring.dim
    P = [[Fraction(x) for x in row] for row in ring.pairing_matrix]

    def S(m):
        out = _mat_zero(n)
        for i in range(n):
            for j in range(n):
                k = m + degs[j] - degs[i]
                if 0 <= k <= fs.order:
                    out[i][j] = fs.T[k][i][j]
        return out

    S_cache = [S(m) for m in range(max(mmax, 0) + 1)]
    worst = Fraction(0)
    for m in range(max(mmax, 0) + 1):
        acc = _mat_zero(n)
        for a in range(m + 1):
            Sa_t = [[S_cache[a][j][i] for j in range(n)] for i in range(n)]
            term = _mat_mul(_mat_mul(Sa_t, P), S_cache[m - a])
            acc = _mat_add(acc, _mat_scale(term, Fraction((-1) ** a)))
        if m == 0:
            acc = _mat_add(acc, P, sb=-1)
        worst = max(worst, max(abs(x) for row in acc for x in row))
    return worst


def degree_shift_ok(fs: FundamentalSolution) -> bool:
    """T_k[i,j] = 0 unless deg_i - deg_j >= 1 - k (endomorphism degree bound)."""
    degs = fs.ring.degrees()
    for k in range(1, fs.order + 1):
        for i in range(fs.ring.rank):
            for j in range(fs.ring.rank):
                if fs.T[k][i][j] != 0 and degs[i] - degs[j] < 1 - k:
                    return False
    return True


# --- J-function ----------------------------------------------------------

def j_coefficients(ring: RingSpec, nmax: int) -> list:
    """Exact J_0..J_nmax as CohClass with Fraction coefficients."""
    return fundamental_solution(ring, nmax).J


def j_scaled(ring: RingSpec, nmax: int) -> np.ndarray:
    """Float path: row n holds n! * J_n (basis coefficients)."""
    n = ring.rank
    G0, GN = graded_pieces(ring)
    rho = np.array(G0, dtype=float)
    GNf = np.array(GN, dtype=float)
    N = ring.N
    W_prev: list = [np.zeros((n, n))] * (N - 1) + [np.eye(n)]  # W_{m-N}..W_{m-1}
    out = np.zeros((nmax + 1, n))
    out[0][0] = 1.0
    for m in range(1, nmax + 1):
        W_mN = W_prev[0]
        if not W_mN.any():
            W = np.zeros((n, n))
        else:
            rising = 1.0
            for i in range(m - N + 1, m + 1):
                rising *= i
            rhs = rising * (W_mN @ GNf)
            term = rhs
            W = term / m
            l = 1
            while term.any():
                term = rho @ term - term @ rho
                W = W + ((-1) ** l / m ** (l + 1)) * term
                l += 1
                if l > 2 * ring.dim + 4:
                    break
        out[m] = W[:, 0]
        W_prev = W_prev[1:] + [W]
    return out


def j_closed_form_P(N: int, nmax: int) -> list:
    """J_{N n} = 1 / prod_{k=1}^{n} (h + k)^N on P^{N-1}, exact Fractions."""
    ring = build_ring("P", N)
    dim = ring.dim
    out = []
    prod = [Fraction(1)] + [Fraction(0)] * dim   # prod (1 + h/k)^N
    fact_pow = Fraction(1)
    n = 0
    for m in range(nmax + 1):
        if m % N == 0 and m > 0:
            n += 1
            fact_pow *= Fraction(n) ** N
            for _ in range(N):
                prod = _useries_mul(prod, [Fraction(1), Fraction(1, n)], dim)
        if m % N == 0:
            inv = _useries_inv(prod, dim)
            out.append(CohClass(ring, [c / fact_pow for c in inv]))
        else:
            out.append(ring.zero())
    return out


def _useries_mul(a, b, cap):
    out = [Fraction(0)] * (cap + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j <= cap and y != 0:
                out[i + j] += x * y
    return out


def _useries_inv(a, cap):
    out = [Fraction(0)] * (cap + 1)
    out[0] = 1 / a[0]
    for k in range(1, cap + 1):
        s = sum(a[i] * out[k - i] for i in range(1, k + 1))
        out[k] = -s / a[0]
    return out


def quantum_period(ring: RingSpec, nmax: int, exact: bool = True):
    """G_n = <[pt], J_n> = degree-0 component of J_n."""
    if exact:
        return [J.coeffs[0] for J in j_coefficients(ring, nmax)]
    return [row[0] for row in j_scaled(ring, nmax)]   # scaled: n! G_n


def central_charge(V: BundleClass, t, nmax: int):
    """Z(V) = (2 pi i)^{dim} [J(e^{pi i} t), Gamma Ch(V)), with
    log(e^{pi i} t) = log t + pi i."""
    ring = V.ring
    J = j_coefficients(ring, nmax)
    logt = mp_log(mpf(t)) + mpc(0, 1) * mp.pi
    # sum J_n e^{n log t}
    total = ring.zero()
    last = mpf(0)
    biggest = mpf(0)
    for n, Jn in enumerate(J):
        if all(c == 0 for c in Jn.coeffs):
            continue
        coeffs = [mp_exp(n * logt) * mpf(c.numerator) / mpf(c.denominator)
                  for c in Jn.coeffs]
        term = CohClass(ring, coeffs)
        total = total + term
        last = max(abs(c) for c in coeffs)
        biggest = max(biggest, last)
    if last > mpf("1e-30") * (1 + biggest):
        raise ArithmeticError("J series tail not converged at nmax")
    # e^{rho log t} via nilpotent exponential
    term = total
    c1 = ring.c1()
    for k in range(1, ring.dim + 1):
        term = (logt / k) * cup(c1, term)
        total = total + term
    gv = cup(gamma_class(ring), ch_modified(V))
    return mpc(0, 2 * mp.pi) ** ring.dim * bracket_pairing(total, gv)
