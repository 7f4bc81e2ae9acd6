"""Quantum connection: c1 spectra and Property O, the canonical fundamental
solution and its exact identities, J-function oracles, central charges."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf, pi as mp_pi, exp as mp_exp, mpc

from qgamma.rings import build_ring
from qgamma.charclasses import trivial_bundle, gamma_class, ch_modified, line_on_P
from qgamma.connection import (c1_matrix, spectrum, spectrum_closed_form,
                               fundamental_solution, recursion_residual,
                               pairing_identity_residual, degree_shift_ok,
                               j_coefficients, j_scaled, j_closed_form_P,
                               quantum_period, central_charge, graded_pieces,
                               _mat_add, _mat_id, _mat_mul, _mat_scale, _mat_zero,
                               _solve_graded, _sparse_rho)
from qgamma import connection

P1 = build_ring("P", 2)
P2 = build_ring("P", 3)
G24 = build_ring("G", 4, 2)
G25 = build_ring("G", 5, 2)
G36 = build_ring("G", 6, 3)


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
    T, U = [_mat_id(n)], [_mat_id(n)]
    for m in range(1, M + 1):
        if m < N:
            T.append(_mat_zero(n))
            U.append(_mat_zero(n))
            continue
        T.append(_neumann_solve(m, _mat_scale(_mat_mul(GNf, T[m - N]), Fraction(-1)), rho))
        U.append(_neumann_solve(m, _mat_mul(U[m - N], GNf), rho))
    return T, U


def test_c1_matrix_p1():
    m = c1_matrix(P1)
    assert np.allclose(m, [[0, 2], [2, 0]])


def test_spectrum_projective():
    for N in range(2, 7):
        rep = spectrum(build_ring("P", N))
        assert rep.property_o_holds and rep.closed_form_match
        assert abs(rep.T - N) < 1e-8


def test_spectrum_g24():
    rep = spectrum(G24)
    assert abs(rep.T - 4 * math.sqrt(2)) < 1e-8
    assert rep.property_o_holds and rep.closed_form_match
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


def test_fundamental_solution_p1():
    fs = fundamental_solution(P1, 6)
    assert fs.T[2][0][0] == Fraction(-1) and fs.T[2][0][1] == Fraction(-1)
    assert fs.T[2][1][0] == Fraction(2) and fs.T[2][1][1] == Fraction(1)
    assert recursion_residual(fs) == 0


def test_fundamental_solution_identities():
    for ring in [P1, P2, G24]:
        fs = fundamental_solution(ring, ring.dim + 6)
        assert recursion_residual(fs) == 0
        assert pairing_identity_residual(fs) == 0
        assert degree_shift_ok(fs)


def test_graded_solver_matches_neumann_oracle():
    for ring in [P1, P2, G24, G25, G36]:
        M = 2 * ring.N + 1
        fs = fundamental_solution(ring, M)
        T, U = _neumann_series(ring, M)
        assert fs.U == U
        assert fs.T == T
        assert [J.coeffs for J in fs.J] == [[row[0] for row in Um] for Um in U]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([P2, G24, G25]), st.integers(1, 40), st.data())
def test_solve_graded_random_rhs(ring, m, data):
    n = ring.rank
    entries = data.draw(st.lists(st.fractions(-50, 50, max_denominator=30),
                                 min_size=n * n, max_size=n * n))
    rhs = [entries[i * n:(i + 1) * n] for i in range(n)]
    G0, _ = graded_pieces(ring)
    rho = [[Fraction(x) for x in row] for row in G0]
    assert _solve_graded(m, rhs, _sparse_rho(ring, G0)) == _neumann_solve(m, rhs, rho)


def test_corrupted_solve_raises(monkeypatch):
    solve = connection._solve_graded

    def corrupted(m, rhs, rho):
        X = solve(m, rhs, rho)
        X[-1][0] += 1
        return X

    fs = fundamental_solution(P2, 9)
    monkeypatch.setattr(connection, "_solve_graded", corrupted)
    with pytest.raises(ArithmeticError):
        fundamental_solution(P2, 9)
    with pytest.raises(ArithmeticError):
        fs.T


def test_fundamental_solution_rejects_negative_order():
    with pytest.raises(ValueError):
        fundamental_solution(P1, -1)
    assert len(fundamental_solution(P1, 0).J) == 1


def test_j_oracle_projective():
    for N in range(2, 6):
        ring = build_ring("P", N)
        rec = j_coefficients(ring, 3 * N)
        closed = j_closed_form_P(N, 3 * N)
        for a, b in zip(rec, closed):
            assert a.coeffs == b.coeffs


def test_j_scaled_matches_exact():
    for ring in [P2, G24]:
        exact = j_coefficients(ring, 12)
        rows = j_scaled(ring, 12)
        fact = 1
        for n in range(13):
            fact *= max(n, 1)
            for j in range(ring.rank):
                want = float(exact[n].coeffs[j]) * fact
                assert abs(rows[n][j] - want) <= 1e-12 * (1 + abs(want))


def test_j_support_divisibility():
    for ring, rf in [(P2, 3), (G25, 5)]:
        for n, row in enumerate(j_coefficients(ring, 2 * rf)):
            if n % rf:
                assert all(c == 0 for c in row.coeffs)


def test_quantum_period_g24():
    gs = quantum_period(G24, 8)
    assert gs[0] == 1 and gs[4] == 2 and gs[8] == Fraction(3, 8)
    assert all(gs[n] == 0 for n in range(9) if n % 4)


def test_central_charge_p1():
    # Z(O) on P^1 at t: (2 pi i) [J(e^{i pi} t), Gamma-hat)
    z1 = central_charge(trivial_bundle(P1), mpf(2), 150)
    z2 = central_charge(trivial_bundle(P1), mpf(2), 200)
    assert abs(z1 - z2) < 1e-20 * (1 + abs(z1))
