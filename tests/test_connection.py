"""Quantum connection: the sparse (c1 *) against the general quantum Pieri
oracle, c1 spectra and Property O, the exact inverse series U of the
canonical fundamental solution and the identities of T = U^{-1}, J-function
oracles, central charges."""

import itertools
import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, pi as mp_pi, exp as mp_exp, mpc

from qgamma.rings import (CohClass, build_ring, cup, normalize_partition, poincare_pair,
                          transpose_partition)
from qgamma.connection import (spectrum, spectrum_closed_form, j_coefficients, j_scaled,
                               j_closed_form_P, rising_inverses, quantum_period,
                               pairing_rows, _c1_operator, _degree_order, _field, _series,
                               _solve, identity)
from qgamma import connection
from qgamma.asympt import central_charge
from qgamma.cli import main
from qgamma.mrs import greedy_groups
from qgamma.wedgecheck import check_wedge_spectrum

P1 = build_ring("P", 2)
P2 = build_ring("P", 3)
G24 = build_ring("G", 4, 2)
G25 = build_ring("G", 5, 2)
G36 = build_ring("G", 6, 3)


def _mat_zero(n):
    return [[0] * n for _ in range(n)]


# --- the quantum Pieri oracle ------------------------------------------------

def quantum_pieri(k: int, lam, ring) -> dict:
    """sigma_k * sigma_lam as {q_power: CohClass} for any 1 <= k <= N - r:
    q^0 the cup product, q^1 Bertram's rule (every mu of degree
    |lam| + k - N with lam_i - 1 >= mu_i >= lam_{i+1} - 1)."""
    lam = normalize_partition(lam)
    if not (1 <= k <= ring.cols):
        raise ValueError(f"Pieri class index {k} out of range 1..{ring.cols}")
    if lam not in ring.index:
        raise ValueError(f"{lam} not in the {ring.r}x{ring.cols} box")
    classical = cup(ring.basis_class((k,)), ring.basis_class(lam))

    r = ring.r
    padded = list(lam) + [0] * (r - len(lam))
    target = sum(lam) + k - ring.N
    quantum = ring.zero()
    if target >= 0:
        for mu in ring.basis:
            if sum(mu) != target:
                continue
            mp = list(mu) + [0] * (r - len(mu))
            ok = all(padded[i] - 1 >= mp[i] for i in range(r)) and \
                all(mp[i] >= padded[i + 1] - 1 for i in range(r - 1))
            if ok:
                quantum = quantum + ring.basis_class(mu)
    return {0: classical, 1: quantum}


def graded_pieces(ring):
    """Dense G_0 = rho = (c_1 cup .) and G_N = the q-part of (c_1 *), exact
    ints, from the general rule at k = 1."""
    G0, GN = _mat_zero(ring.rank), _mat_zero(ring.rank)
    for j, lam in enumerate(ring.basis):
        parts = quantum_pieri(1, lam, ring)
        for i in range(ring.rank):
            G0[i][j] = ring.N * parts[0].coeffs[i]
            GN[i][j] = ring.N * parts[1].coeffs[i]
    return G0, GN


def test_quantum_pieri_classical_part_matches_cup():
    for ring in [G24, G25]:
        for k in range(1, ring.cols + 1):
            for lam in ring.basis:
                out = quantum_pieri(k, lam, ring)
                cl = cup(ring.basis_class((k,)), ring.basis_class(lam))
                assert out[0].coeffs == cl.coeffs


def test_quantum_pieri_examples():
    out = quantum_pieri(1, (2, 1), G24)
    assert out[0][(2, 2)] == 1
    assert out[1].coeffs == G24.unit().coeffs
    out = quantum_pieri(1, (2, 2), G24)
    assert all(c == 0 for c in out[0].coeffs)
    assert out[1][(1,)] == 1
    out = quantum_pieri(2, (2, 2), G24)
    assert out[1][(1, 1)] == 1 and out[1][(2,)] == 0


def test_quantum_pieri_degree():
    for ring in [G24, G25]:
        for k in range(1, ring.cols + 1):
            for lam in ring.basis:
                out = quantum_pieri(k, lam, ring)
                for mu, c in zip(ring.basis, out[1].coeffs):
                    if c:
                        assert sum(mu) == sum(lam) + k - ring.N


def _dense(entries, n, transpose=False):
    """The n x n int matrix with sparse columns (rows if transpose) entries."""
    out = _mat_zero(n)
    for j, line in enumerate(entries):
        for k, c in line:
            if transpose:
                out[j][k] = c
            else:
                out[k][j] = c
    return out


@pytest.mark.parametrize("kind,N,r", [("P", N, 1) for N in range(2, 12)]
                         + [("G", N, r) for N in range(2, 11) for r in range(1, N)]
                         + [("G", 25, 2), ("G", 13, 3)])
def test_c1_operator_matches_the_quantum_pieri_oracle(kind, N, r):
    ring = build_ring(kind, N, r)
    op, n = _c1_operator(ring), ring.rank
    G0, GN = graded_pieces(ring)
    assert _dense(op.rho_cols, n) == _dense(op.rho_rows, n, transpose=True) == G0
    assert _dense(op.gn_cols, n) == GN
    assert all(type(c) is int and c for lines in (op.rho_cols, op.gn_cols, op.rho_rows)
               for line in lines for _, c in line)
    assert np.array_equal(c1_matrix(ring), np.array(G0) + np.array(GN))
    # the degree buckets give the stable sort of every (i, j) by deg_i - deg_j
    degs = ring.degrees()
    assert _degree_order(ring) == sorted(((i, j) for i in range(n) for j in range(n)),
                              key=lambda ij: degs[ij[0]] - degs[ij[1]])


# --- dense Fraction-matrix oracles ----------------------------------------

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


def _fractions(series):
    """Fraction matrices Y / d from the solver's integer pairs (Y, d)."""
    return [[[Fraction(x, d) for x in row] for row in Y] for Y, d in series]


def _u_series(ring, M):
    """U_0..U_M as the solver's integer pairs (Y, d): the exact series that
    j_coefficients runs, from the identity with L = rho."""
    op = _c1_operator(ring)
    return list(itertools.islice(_series((identity(ring.rank), 1), ring.N, op, op.rho_rows,
                                         _degree_order(ring), op.levels), M + 1))


def _t_series(ring, M):
    """T = U^{-1} to order M as Fraction matrices, by exact power-series
    inversion of the solver's U: T_0 = id, T_m = -sum_{b=1}^m U_b T_{m-b}.
    This is the T of m T_m + [rho, T_m] + G_N T_{m-N} = 0: t d/dt + ad rho
    is a derivation, so the two recursions make TU solve m X_m + [rho, X_m]
    = [X_{m-N}, G_N] from X_0 = id, whose only solution is id."""
    U = _fractions(_u_series(ring, M))
    T = [U[0]]
    for m in range(1, M + 1):
        acc = _mat_zero(ring.rank)
        for b in range(ring.N, m + 1, ring.N):
            acc = _mat_add(acc, _mat_mul(U[b], T[m - b]), sb=-1)
        T.append(acc)
    return T


def recursion_residual(ring, T):
    """Max |m T_m + sum_k G_k T_{m-k} + [rho, T_m]| over m (exact zero)."""
    G0, GN = graded_pieces(ring)
    rho = [[Fraction(x) for x in row] for row in G0]
    GNf = [[Fraction(x) for x in row] for row in GN]
    worst = Fraction(0)
    for m in range(1, len(T)):
        acc = _mat_scale(T[m], Fraction(m))
        acc = _mat_add(acc, _mat_add(_mat_mul(rho, T[m]), _mat_mul(T[m], rho), sb=-1))
        if m >= ring.N:
            acc = _mat_add(acc, _mat_mul(GNf, T[m - ring.N]))
        worst = max(worst, max(abs(x) for row in acc for x in row))
    return worst


def pairing_identity_residual(ring, T):
    """Prop-2.1 pairing: with S_m[i,j] = T_{m + deg_j - deg_i}[i,j],
    sum_{a+b=m} (-1)^a S_a^t P S_b = delta_{m,0} P, exactly.

    S_m draws on T up to order m + dim, so only m <= order - dim is checked."""
    n = ring.rank
    degs = ring.degrees()
    order = len(T) - 1
    mmax = order - ring.dim
    P = [[Fraction(int(j == ring.dual[i])) for j in range(n)] for i in range(n)]

    def S(m):
        out = _mat_zero(n)
        for i in range(n):
            for j in range(n):
                k = m + degs[j] - degs[i]
                if 0 <= k <= order:
                    out[i][j] = T[k][i][j]
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


def degree_shift_ok(ring, T) -> bool:
    """T_k[i,j] = 0 unless deg_i - deg_j >= 1 - k (endomorphism degree bound)."""
    degs = ring.degrees()
    for k in range(1, len(T)):
        for i in range(ring.rank):
            for j in range(ring.rank):
                if T[k][i][j] != 0 and degs[i] - degs[j] < 1 - k:
                    return False
    return True



def _neumann_solve(m, rhs, rho):
    """Oracle: m X + [rho, X] = rhs by the finite Neumann series
    X = sum_l (-ad_rho)^l (rhs) / m^{l+1} (ad_rho is nilpotent)."""
    term = rhs
    out = _mat_scale(term, Fraction(1, m))
    l = 1
    while True:
        term = _mat_add(_mat_mul(rho, term), _mat_mul(term, rho), sb=-1)
        if all(x == 0 for row in term for x in row):
            return out
        out = _mat_add(out, _mat_scale(term, Fraction((-1) ** l, m ** (l + 1))))
        l += 1


def _neumann_series(ring, M):
    """Oracle T and U: the dense recursion, solved by _neumann_solve."""
    n, N = ring.rank, ring.N
    G0, GN = graded_pieces(ring)
    rho = [[Fraction(x) for x in row] for row in G0]
    GNf = [[Fraction(x) for x in row] for row in GN]
    T, U = [identity(n)], [identity(n)]
    for m in range(1, M + 1):
        if m < N:
            T.append(_mat_zero(n))
            U.append(_mat_zero(n))
            continue
        T.append(_neumann_solve(m, _mat_scale(_mat_mul(GNf, T[m - N]), Fraction(-1)), rho))
        U.append(_neumann_solve(m, _mat_mul(U[m - N], GNf), rho))
    return T, U


def c1_matrix(ring):
    """(c_1 *) at q = 1 as a dense complex matrix, the oracle for LAPACK
    (rho and G_N never share an entry: they shift degree by 1 and by 1 - N)."""
    op = _c1_operator(ring)
    m = np.zeros((ring.rank, ring.rank), dtype=complex)
    for j, col in enumerate(op.rho_cols):
        for k, c in col + op.gn_cols[j]:
            m[k][j] = c
    return m


def test_c1_matrix_p1():
    m = c1_matrix(P1)
    assert np.allclose(m, [[0, 2], [2, 0]])


def test_spectrum_projective():
    for N in range(2, 7):
        rep = spectrum(build_ring("P", N))
        assert rep.property_o_holds
        assert abs(rep.T - N) < 1e-8


def test_spectrum_g24():
    rep = spectrum(G24)
    assert abs(rep.T - 4 * math.sqrt(2)) < 1e-8
    assert rep.property_o_holds
    zero = [m for v, m in rep.eigenvalues if abs(v) < 1e-8]
    assert zero == [2]


def test_spectrum_g25():
    rep = spectrum(G25)
    assert abs(rep.T - 5 * math.sin(2 * math.pi / 5) / math.sin(math.pi / 5)) < 1e-8
    assert rep.T_multiplicity == 1
    assert abs(rep.T_prime - 2.5) < 1e-8
    assert rep.property_o_holds


def test_spectrum_closed_form_count():
    assert len(spectrum_closed_form(2, 5)) == 10
    assert len(spectrum_closed_form(3, 6)) == 20


@pytest.mark.parametrize("kind,N,r", [("P", N, 1) for N in range(2, 7)]
                         + [("G", 4, 2), ("G", 5, 2)])
def test_spectrum_matches_closed_form(kind, N, r):
    rep = spectrum(build_ring(kind, N, r))
    closed = spectrum_closed_form(r, N)
    assert sum(m for _, m in rep.eigenvalues) == len(closed)
    for v, m in rep.eigenvalues:
        assert v in closed and sum(abs(z - v) < 1e-12 for z in closed) == m
    # the Satake spectrum check reads the same certified spectrum
    assert check_wedge_spectrum(r, N).max_residual == 0.0


# --- the old spectrum route: LAPACK eigenvalues clustered at 1e-8 ------------

def lapack_spectrum(ring):
    """(clusters, T, T', T multiplicity, Property O verdict, clause) from
    numpy's eigenvalues of the dense c1_matrix, clustered at 1e-8 with the
    mean of each cluster, in order of the rounded values."""
    tol = 1e-8
    eig = sorted(np.linalg.eigvals(c1_matrix(ring)),
                 key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    clusters = [(complex(np.mean([eig[i] for i in g])), len(g))
                for g in greedy_groups(eig, tol)]
    T = max(abs(v) for v, _ in clusters)
    t_cluster = [(v, m) for v, m in clusters if abs(v - T) < tol]
    T_mult = t_cluster[0][1] if t_cluster else 0
    clause = None if t_cluster else 1
    rf = ring.fano_index
    if clause is None and any(
            min(abs(v / T - np.exp(2j * np.pi * k / rf)) for k in range(rf)) > 1e-6
            for v, _ in clusters if abs(abs(v) - T) < tol):
        clause = 2
    if clause is None and T_mult != 1:
        clause = 3
    T_prime = max((v.real for v, _ in clusters if abs(v - T) >= tol), default=float("-inf"))
    return clusters, T, T_prime, T_mult, clause is None, clause


SMALL_TARGETS = ([("P", N, 1) for N in range(2, 36)]
                 + [("G", N, r) for N in range(3, 36) for r in range(1, N)
                    if math.comb(N, r) <= 35] + [("G", 9, 2), ("G", 9, 7)])


@pytest.mark.parametrize("kind,N,r", SMALL_TARGETS)
def test_spectrum_matches_the_lapack_route(kind, N, r):
    ring = build_ring(kind, N, r)
    rep = spectrum(ring)
    clusters, T, T_prime, T_mult, holds, clause = lapack_spectrum(ring)
    assert [m for _, m in rep.eigenvalues] == [m for _, m in clusters]
    assert max(abs(v - w) for (v, _), (w, _) in zip(rep.eigenvalues, clusters)) < 1e-9
    assert abs(rep.T - T) < 1e-9
    assert rep.T_prime == T_prime or abs(rep.T_prime - T_prime) < 1e-9
    assert (rep.T_multiplicity, rep.property_o_holds, rep.violated_clause) == \
        (T_mult, holds, clause)


@pytest.mark.parametrize("kind,N,r", [("G", 25, 2), ("G", 13, 3), ("G", 10, 5),
                                      ("G", 25, 23), ("P", 300, 1)])
def test_spectrum_certifies_the_top_of_the_cap(kind, N, r):
    ring = build_ring(kind, N, r)
    rep = spectrum(ring)
    # T is the sum of r consecutive roots: N sin(r pi / N) / sin(pi / N)
    assert abs(rep.T - N * math.sin(r * math.pi / N) / math.sin(math.pi / N)) < 1e-9 * N
    assert rep.property_o_holds and rep.T_multiplicity == 1
    assert sum(m for _, m in rep.eigenvalues) == ring.rank


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the twelve prime bases 2..37: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_oracle_matches_a_sieve():
    sieve = [False, False] + [True] * (10 ** 5 - 2)
    for d in range(2, math.isqrt(10 ** 5) + 1):
        sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [n for n in range(10 ** 5) if _is_prime(n)] == [n for n in range(10 ** 5) if sieve[n]]
    assert not _is_prime(3215031751)   # a strong pseudoprime to the bases 2, 3, 5, 7


def test_field_prime_and_root_of_unity():
    """p is the first prime = 1 mod 2N above 2^61 and z = zs[1] has order
    exactly 2N, for every N of the desk-scale cap."""
    for N in range(2, 301):
        p, zs = _field(N)
        assert p > 2 ** 61 and p % (2 * N) == 1 and _is_prime(p)
        assert not any(_is_prime(q) for q in range(p - 2 * N, 2 ** 61, -2 * N))
        z = zs[1]
        assert zs == tuple(pow(z, e, p) for e in range(2 * N)) and pow(z, 2 * N, p) == 1
        primes = [q for q in range(2, 2 * N + 1) if (2 * N) % q == 0 and _is_prime(q)]
        assert all(pow(z, 2 * N // q, p) != 1 for q in primes)


def _corrupt(monkeypatch, field):
    """Add 1 to the first entry of the first nonempty column of rho or G_N."""
    build = connection._c1_operator

    def corrupted(ring):
        op = build(ring)
        cols = getattr(op, field)
        j = next(j for j, col in enumerate(cols) if col)
        (k, c), *rest = cols[j]
        cols[j] = [(k, c + 1), *rest]
        return op
    monkeypatch.setattr(connection, "_c1_operator", corrupted)


@pytest.mark.parametrize("field,target", [("rho_cols", "G(3,6)"), ("gn_cols", "G(2,5)")])
def test_a_corrupted_operator_fails_the_spectrum_check(monkeypatch, capsys, field, target):
    _corrupt(monkeypatch, field)
    r, N = map(int, target[2:-1].split(","))
    with pytest.raises(ArithmeticError, match=r"^spectrum G"):
        spectrum(build_ring("G", N, r))
    for cmd in ["spectrum", "satake"]:
        assert main([cmd, "--target", target]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("check failed: spectrum")


def test_fundamental_solution_p1():
    T = _t_series(P1, 6)
    assert T[2][0][0] == Fraction(-1) and T[2][0][1] == Fraction(-1)
    assert T[2][1][0] == Fraction(2) and T[2][1][1] == Fraction(1)
    assert recursion_residual(P1, T) == 0


def test_fundamental_solution_integer_pairs():
    """Every order of U is an int matrix over one int d >= 1, in lowest
    terms; a zero order is (0, 1)."""
    U = _u_series(G36, 18)
    assert U[1] == (_mat_zero(G36.rank), 1)
    for Y, d in U:
        assert type(d) is int and d >= 1
        assert all(type(x) is int for row in Y for x in row)
        assert math.gcd(d, *(x for row in Y for x in row)) == 1


def test_fundamental_solution_identities():
    for ring in [P1, P2, G24]:
        T = _t_series(ring, ring.dim + 6)
        assert recursion_residual(ring, T) == 0
        assert pairing_identity_residual(ring, T) == 0
        assert degree_shift_ok(ring, T)


def test_graded_solver_matches_neumann_oracle():
    for ring in [P1, P2, G24, G25, G36]:
        M = 2 * ring.N + 1
        T, U = _neumann_series(ring, M)
        assert _fractions(_u_series(ring, M)) == U
        assert _t_series(ring, M) == T
        assert [J.coeffs for J in j_coefficients(ring, M)] == [[row[0] for row in Um] for Um in U]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([P2, G24, G25]), st.integers(1, 40), st.data())
def test_solve_graded_random_rhs(ring, m, data):
    n = ring.rank
    entries = data.draw(st.lists(st.fractions(-50, 50, max_denominator=30),
                                 min_size=n * n, max_size=n * n))
    rhs = [entries[i * n:(i + 1) * n] for i in range(n)]
    G0, _ = graded_pieces(ring)
    rho = [[Fraction(x) for x in row] for row in G0]
    want = _neumann_solve(m, rhs, rho)
    op = _c1_operator(ring)
    order = _degree_order(ring)
    assert _solve(m, rhs, op.rho_rows, op, order, operator.truediv) == want
    # integer path: clear denominators, scale by m^(2 dim + 1), divide exactly
    scale = math.lcm(*(x.denominator for x in entries)) * m ** (2 * ring.dim + 1)
    Y = _solve(m, [[int(x * scale) for x in row] for row in rhs],
               op.rho_rows, op, order, operator.floordiv)
    assert all(type(y) is int for row in Y for y in row)
    assert [[Fraction(y, scale) for y in row] for row in Y] == want
    # a 1 x n row with L = 0: v (m - rho) = r has v = sum_l r rho^l / m^(l+1)
    r = entries[:n]
    want_row, term = [Fraction(0)] * n, r
    for l in range(ring.dim + 1):
        want_row = [a + b / m ** (l + 1) for a, b in zip(want_row, term)]
        term = [sum(term[k] * rho[k][j] for k in range(n)) for j in range(n)]
    assert not any(term)
    row_order = [(i, j) for i, j in order if i == 0]
    assert _solve(m, [r], [[]], op, row_order, operator.truediv) == [want_row]
    scale = math.lcm(*(x.denominator for x in r)) * m ** (ring.dim + 1)
    v = _solve(m, [[int(x * scale) for x in r]], [[]], op, row_order, operator.floordiv)
    assert [Fraction(y, scale) for y in v[0]] == want_row


def _reduce(s, X, left, op, i: int, j: int):
    """s - (L X - X rho)[i][j], L given by its sparse rows; skips zeros of X."""
    for k, c in left[i]:
        x = X[k][j]
        if x:
            s -= c * x
    Xi = X[i]
    for k, c in op.rho_cols[j]:
        x = Xi[k]
        if x:
            s += c * x
    return s


def _per_entry_solve(m, rhs, left, op, order, div):
    """Reference back-substitution: one _reduce call per entry of X."""
    X = [[0] * len(row) for row in rhs]
    for i, j in order:
        s = _reduce(rhs[i][j], X, left, op, i, j)
        if s:
            X[i][j] = div(s, m)
    return X


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([P2, G24, G25]), st.integers(1, 40), st.booleans(),
       st.sampled_from(["fraction", "integer", "float"]), st.data())
def test_solve_matches_the_per_entry_reference(ring, m, square, kind, data):
    """_solve equals the per-entry back-substitution exactly, types and
    float roundings included: for L = rho and for the 1 x n row with L = 0,
    on Fractions (truediv), integers scaled by m^(2 dim + 1) (floordiv) and
    floats (truediv)."""
    n = ring.rank
    op = _c1_operator(ring)
    order = _degree_order(ring)
    rows, left, order = ((n, op.rho_rows, order) if square else
                         (1, [[]], [(i, j) for i, j in order if i == 0]))
    entries, div = {
        "fraction": (st.fractions(-50, 50, max_denominator=30), operator.truediv),
        "integer": (st.integers(-50, 50).map(lambda x: x * m ** (2 * ring.dim + 1)),
                    operator.floordiv),
        "float": (st.floats(-50, 50), operator.truediv)}[kind]
    flat = data.draw(st.lists(st.one_of(st.just(0), entries), min_size=rows * n,
                              max_size=rows * n))
    rhs = [flat[i * n:(i + 1) * n] for i in range(rows)]
    assert repr(_solve(m, rhs, left, op, order, div)) == repr(
        _per_entry_solve(m, rhs, left, op, order, div))


def test_series_checks_the_final_x_whatever_the_solve_order():
    # solved against its order, each entry reads neighbours not solved yet;
    # the residual pass recomputes every entry from the final X and refuses it
    op = _c1_operator(G24)
    series = _series((identity(G24.rank), 1), G24.N, op, op.rho_rows,
                     _degree_order(G24)[::-1], op.levels)
    assert len(list(itertools.islice(series, G24.N))) == G24.N   # orders 0..N-1: no solve
    with pytest.raises(ArithmeticError, match=f"exact solve at order {G24.N}: residual"):
        next(series)


def test_j_coefficients_hold_only_fractions():
    J = j_coefficients(G36, 18)
    assert all(type(c) is Fraction for Jn in J for c in Jn.coeffs)
    zero_orders = [Jn for n, Jn in enumerate(J) if n % G36.N]
    assert len(zero_orders) == 15
    assert all(Jn.coeffs == G36.zero().coeffs for Jn in zero_orders)


def test_zero_orders_are_the_zero_class_and_unshared():
    # the series yields one zero matrix for every zero order; no J_n and no
    # pairing row handed out is that matrix
    J = j_coefficients(G36, 18)
    zeros = [Jn for n, Jn in enumerate(J) if n % G36.N]
    assert len(zeros) == 15
    assert all(Jn == G36.zero() and all(type(c) is Fraction for c in Jn.coeffs) for Jn in zeros)
    rows = _rows(P2, P2.basis_class(P2.top()), 5)
    rows[1][0][0] = 7
    assert [rows[n][0] for n in (2, 4, 5)] == [[0] * P2.rank] * 3


def test_corrupted_solve_raises(monkeypatch):
    solve = connection._solve

    def corrupted(m, rhs, left, op, order, div):
        X = solve(m, rhs, left, op, order, div)
        X[-1][0] += 1
        return X

    monkeypatch.setattr(connection, "_solve", corrupted)
    with pytest.raises(ArithmeticError, match="solve at order 3: residual"):
        j_coefficients(P2, 9)


# --- J by quantum Satake: minors of the twisted P^{N-1} series -------------

def _direct_j(ring, M):
    """J_0..J_M as Fraction lists: column 0 of the rank x rank series of
    ring itself."""
    return [[Fraction(row[0], d) for row in Y] for Y, d in _u_series(ring, M)]


def _coeffs(J):
    return [Jn.coeffs for Jn in J]


def _recorded_sizes(monkeypatch):
    """The (rows, columns) of every right-hand side _solve sees."""
    solve, sizes = connection._solve, set()

    def recorded(m, rhs, *args):
        sizes.add((len(rhs), len(rhs[0])))
        return solve(m, rhs, *args)
    monkeypatch.setattr(connection, "_solve", recorded)
    return sizes


SATAKE_TARGETS = ([("G", N, r) for N in range(2, 36) for r in range(1, N)
                   if math.comb(N, r) <= 35]
                  + [("G", 25, 2), ("G", 13, 3), ("G", 10, 4), ("G", 10, 5)])


@pytest.mark.parametrize("kind,N,r", SATAKE_TARGETS,
                         ids=[f"G{r},{N}" for _, N, r in SATAKE_TARGETS])
def test_satake_j_equals_the_direct_solve(monkeypatch, kind, N, r):
    ring = build_ring(kind, N, r)
    want = _direct_j(ring, 3 * N)
    sizes = _recorded_sizes(monkeypatch)
    assert _coeffs(j_coefficients(ring, 3 * N)) == want
    assert sizes == {(N, N)}   # to 3N every target of the cap takes the Satake route
    assert _coeffs(connection._j_series(ring, 3 * N, False)) == want
    assert sizes == {(N, N), (ring.rank, ring.rank)}


@pytest.mark.parametrize("N,r,nmax,size", [(5, 2, 50, 5), (5, 2, 125, 5), (5, 2, 130, 10),
                                           (5, 2, 200, 10), (6, 3, 78, 6), (6, 3, 84, 6),
                                           (6, 3, 198, 6), (6, 3, 204, 20), (8, 3, 24, 8)])
def test_j_on_both_sides_of_the_route_rule(monkeypatch, N, r, nmax, size):
    # the Satake route while r' (nmax // N) <= 5 rank, the direct solve after
    ring = build_ring("G", N, r)
    want = _direct_j(ring, nmax)
    sizes = _recorded_sizes(monkeypatch)
    J = j_coefficients(ring, nmax)
    assert sizes == {(size, size)}
    assert _coeffs(J) == want
    assert all(type(c) is Fraction for Jn in J for c in Jn.coeffs)


@pytest.mark.parametrize("N,r", [(N, r) for N in range(3, 9) for r in range(1, N)])
def test_j_at_mu_is_j_of_the_dual_grassmannian_at_mu_transposed(N, r):
    ring, dual = build_ring("G", N, r), build_ring("G", N, N - r)
    J, J_dual = j_coefficients(ring, 3 * N), j_coefficients(dual, 3 * N)
    for Jn, Jn_dual in zip(J, J_dual):
        assert Jn.coeffs == [Jn_dual[transpose_partition(mu)] for mu in ring.basis]


def test_j_refused_on_the_direct_route_solves_only_its_own_series(monkeypatch):
    sizes = _recorded_sizes(monkeypatch)
    with pytest.raises(OverflowError, match="the first at n = 1688"):
        j_coefficients(G24, 3000)
    assert sizes == {(6, 6)}


@pytest.mark.parametrize("N,r", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_both_routes_refuse_the_same_first_j(N, r):
    ring, limit = build_ring("G", N, r), sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        errors = []
        for satake in [True, False]:
            with pytest.raises(OverflowError, match="exact J_n pass 640 digits") as exc:
                connection._j_series(ring, 3000, satake)
            errors.append(str(exc.value))
    finally:
        sys.set_int_max_str_digits(limit)
    assert errors[0] == errors[1]


def _flip_twist(monkeypatch):
    twisted = connection._twisted
    monkeypatch.setattr(connection, "_twisted", lambda op, r: twisted(op, r + 1))


@pytest.mark.parametrize("target", ["G(3,6)", "G(2,5)", "G(3,5)"])
@pytest.mark.parametrize("break_it", [_flip_twist,
                                      lambda mp: _corrupt(mp, "rho_cols"),
                                      lambda mp: _corrupt(mp, "gn_cols")],
                         ids=["twist-sign", "rho-entry", "gn-entry"])
def test_a_broken_satake_identity_fails_the_j_check(monkeypatch, capsys, target, break_it):
    r, N = map(int, target[2:-1].split(","))
    ring = build_ring("G", N, r)
    assert main(["jfun", "--target", target, "--nmax", str(3 * N)]) == 0
    capsys.readouterr()
    break_it(monkeypatch)
    with pytest.raises(ArithmeticError, match=rf"^Satake G\({r},{N}\): \(c1 \*\) is not"):
        j_coefficients(ring, 3 * N)
    assert main(["jfun", "--target", target, "--nmax", str(3 * N)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"check failed: Satake G({r},{N})")


def test_corrupted_solve_of_the_satake_series_raises(monkeypatch):
    solve = connection._solve

    def corrupted(m, rhs, left, op, order, div):
        X = solve(m, rhs, left, op, order, div)
        X[-1][0] += 1
        return X

    sizes = _recorded_sizes(monkeypatch)
    assert len(j_coefficients(G36, 18)) == 19 and sizes == {(6, 6)}
    monkeypatch.setattr(connection, "_solve", corrupted)
    with pytest.raises(ArithmeticError, match="solve at order 6: residual"):
        j_coefficients(G36, 18)


def test_fundamental_solution_rejects_negative_order():
    with pytest.raises(ValueError):
        j_coefficients(P1, -1)
    assert len(j_coefficients(P1, 0)) == 1


def test_j_oracle_projective():
    for N in range(2, 6):
        ring = build_ring("P", N)
        rec = j_coefficients(ring, 200)
        closed = j_closed_form_P(N, 200)
        for a, b in zip(rec, closed):
            assert a.coeffs == b.coeffs


def _rising_inverses_by_n_cups(ring, sign, one):
    """The former rising_inverses: N cups per order with
    1/(h + c) = sum_j (-h)^j / c^{j+1}."""
    prod = one * ring.unit()
    for n in itertools.count(1):
        yield prod
        c = sign * n * one
        inv = CohClass(ring, [(-1) ** j / c ** (j + 1) for j in range(ring.rank)])
        for _ in range(ring.N):
            prod = cup(prod, inv)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
def test_rising_inverses_invert_the_products(N, sign):
    """prod_{k<=n} (h + sign k)^{-N} cup prod_{k<=n} (h + sign k)^N = 1
    exactly; the one-cup Fractions equal the N-cup oracle's, and the mpf
    classes agree with them to 1e-35 relative."""
    ring = build_ring("P", N)
    h = ring.basis_class((1,))
    prod = ring.unit()
    exact = rising_inverses(ring, sign, Fraction(1))
    oracle = _rising_inverses_by_n_cups(ring, sign, Fraction(1))
    floats = rising_inverses(ring, sign, mpf(1))
    for n, inv, old, inv_mp in zip(range(13), exact, oracle, floats):
        assert all(type(c) is Fraction for c in inv.coeffs)
        assert inv.coeffs == old.coeffs
        assert cup(inv, prod).coeffs == ring.unit().coeffs
        assert all(type(c) is mpf for c in inv_mp.coeffs)
        assert all(abs(b - a) <= mpf("1e-35") * abs(a) for a, b in zip(inv.coeffs, inv_mp.coeffs))
        for _ in range(N):
            prod = cup(prod, h + sign * (n + 1) * ring.unit())


def test_rising_inverses_cup_once_per_order(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return cup(a, b)
    monkeypatch.setattr(connection, "cup", counted)
    monkeypatch.setattr(connection, "_RISING", {})   # make every product here
    ring = build_ring("P", 5)
    first = []
    for n, prod in zip(range(10), rising_inverses(ring, -1, mpf(1))):
        assert len(calls) == n
        first.append(prod)
    # a second pass reads the kept products, as fresh lists
    again = list(zip(range(10), rising_inverses(ring, -1, mpf(1))))
    assert len(calls) == 9
    assert [p.coeffs for _, p in again] == [p.coeffs for p in first]
    assert all(type(p.coeffs) is list for _, p in again)
    (kept,) = connection._RISING.values()
    assert all(type(p.coeffs) is tuple for p in kept)
    # 40 and 60 digits are separate entries; the order-3 product is not dyadic
    with mp.workdps(60):
        prod60 = list(zip(range(4), rising_inverses(ring, -1, mpf(1))))[-1][1]
    assert len(connection._RISING) == 2
    assert len(calls) == 12
    assert prod60.coeffs != first[3].coeffs
    assert all(abs(a - b) < mpf("1e-38") * abs(b) for a, b in zip(prod60.coeffs, first[3].coeffs))


def test_j_scaled_matches_exact():
    for ring in [P2, G24, G25, G36]:
        exact = j_coefficients(ring, 12)
        rows = list(itertools.islice(j_scaled(ring), 13))
        fact = 1
        for n in range(13):
            fact *= max(n, 1)
            for j in range(ring.rank):
                want = float(exact[n].coeffs[j]) * fact
                assert abs(rows[n][j] - want) <= 1e-12 * (1 + abs(want))
                if exact[n].coeffs[j] == 0:
                    assert rows[n][j] == 0.0


def test_j_support_divisibility():
    for ring, rf in [(P2, 3), (G25, 5)]:
        for n, row in enumerate(j_coefficients(ring, 2 * rf)):
            if n % rf:
                assert all(c == 0 for c in row.coeffs)


def test_quantum_period_g24():
    gs = quantum_period(G24, 8)
    assert gs[0] == 1 and gs[4] == 2 and gs[8] == Fraction(3, 8)
    assert all(gs[n] == 0 for n in range(9) if n % 4)


# --- the exact row of a class g with c1 cup g = 0 ---------------------------

PERIOD_TARGETS = ([("P", N, 1) for N in range(2, 36)]
                 + [("G", N, r) for N in range(4, 9) for r in range(2, N - 1)
                    if math.comb(N, r) <= 35])


def _rows(ring, g, M):
    return list(itertools.islice(pairing_rows(ring, g), M + 1))


@pytest.mark.parametrize("kind,N,r", PERIOD_TARGETS,
                         ids=[f"{k}{r},{N}" for k, N, r in PERIOD_TARGETS])
def test_point_row_matches_the_column_recursion(kind, N, r):
    ring = build_ring(kind, N, r)
    J = j_coefficients(ring, 3 * N)
    assert quantum_period(ring, 3 * N) == [Jn.coeffs[0] for Jn in J]
    for Y, d in _rows(ring, ring.basis_class(ring.top()), 3 * N):
        assert type(d) is int and d >= 1 and all(type(y) is int for y in Y)
        assert math.gcd(d, *Y) == 1


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_point_row_matches_the_column_recursion_to_order_600(N):
    ring = build_ring("P", N)
    assert quantum_period(ring, 600) == [Jn.coeffs[0] for Jn in j_coefficients(ring, 600)]


def test_apery_row_matches_the_column_recursion():
    g = G25.basis_class((3, 1)) - G25.basis_class((2, 2))
    J = j_coefficients(G25, 200)
    rows = _rows(G25, g, 200)
    assert [Fraction(Y[0], d) for Y, d in rows] == [poincare_pair(g, Jn) for Jn in J]
    # Fraction coefficients: the row of g / 2 is half the row of g
    halves = _rows(G25, Fraction(1, 2) * g, 200)
    assert [[Fraction(y, 2 * d) for y in Y] for Y, d in rows] == \
        [[Fraction(y, d) for y in Y] for Y, d in halves]


def _kernel_of_c1(ring) -> list:
    """An integer basis of the classes g with c1 cup g = 0, by Fraction
    row reduction of the matrix of c1 cup."""
    n = ring.rank
    cols = [cup(ring.c1(), ring.basis_class(lam)).coeffs for lam in ring.basis]
    rows = [[Fraction(cols[j][i]) for j in range(n)] for i in range(n)]
    pivots, k = [], 0
    for j in range(n):
        p = next((i for i in range(k, n) if rows[i][j]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [x / rows[k][j] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][j]:
                rows[i] = [a - rows[i][j] * b for a, b in zip(rows[i], rows[k])]
        pivots.append(j)
        k += 1
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, j in enumerate(pivots):
            v[j] = -rows[i][f]
        scale = math.lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])
    return basis


KERNEL_RINGS = [G25, build_ring("G", 6, 2), G36]
_KERNELS = {id(ring): _kernel_of_c1(ring) for ring in KERNEL_RINGS}
_U: dict = {}


def _inverse_series(ring) -> list:
    """U_0..U_{3N}, solved on first use: a solver defect then fails the tests
    that read it, one by one, rather than the collection of this module."""
    if id(ring) not in _U:
        _U[id(ring)] = _u_series(ring, 3 * ring.N)
    return _U[id(ring)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KERNEL_RINGS), st.data())
def test_random_kernel_class_rows_match_the_column_recursion(ring, data):
    kernel = _KERNELS[id(ring)]
    assert len(kernel) >= 2 and all(cup(ring.c1(), CohClass(ring, v)).coeffs == [0] * ring.rank
                                    for v in kernel)
    a = data.draw(st.lists(st.integers(-20, 20), min_size=len(kernel), max_size=len(kernel)))
    g = CohClass(ring, [sum(x * v[i] for x, v in zip(a, kernel)) for i in range(ring.rank)])
    w = [g.coeffs[j] for j in ring.dual]   # w_j = (g, sigma_j)
    for (Y, d), (U, e) in zip(_rows(ring, g, 3 * ring.N), _inverse_series(ring)):
        want = [Fraction(sum(w[i] * U[i][j] for i in range(ring.rank)), e)
                for j in range(ring.rank)]
        assert [Fraction(y, d) for y in Y] == want


def test_pairing_rows_need_c1_cup_g_zero():
    for g in [G25.basis_class((2,)), G25.unit(), P2.basis_class((1,))]:
        with pytest.raises(ValueError, match="c1 cup g != 0"):
            pairing_rows(g.ring, g)


def test_corrupted_row_solve_raises(monkeypatch):
    solve = connection._solve

    def corrupted(m, rhs, left, op, order, div):
        X = solve(m, rhs, left, op, order, div)
        X[0][-1] += 1
        return X

    # G_{3k} = 1 / (k!)^3 on P^2
    assert quantum_period(P2, 9) == [1, 0, 0, 1, 0, 0, Fraction(1, 8), 0, 0, Fraction(1, 216)]
    monkeypatch.setattr(connection, "_solve", corrupted)
    for exact in [True, False]:
        with pytest.raises(ArithmeticError, match="solve at order 3: residual"):
            quantum_period(P2, 9, exact=exact)


def test_central_charge_p1():
    # Z(O) on P^1 at t: (2 pi i) [J(e^{i pi} t), Gamma-hat)
    z1 = central_charge(P1.unit(), mpf(2), 150)
    z2 = central_charge(P1.unit(), mpf(2), 200)
    assert abs(z1 - z2) < 1e-20 * (1 + abs(z1))
