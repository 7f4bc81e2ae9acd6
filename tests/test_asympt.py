"""Asymptotics: Gamma Conjecture I limits, Apery ratios, radius estimates,
and the Mellin-Barnes solution Psi."""

import itertools
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from qgamma import asympt, charclasses, connection
from qgamma.rings import CohClass, build_ring, cup, exp_cup, poincare_pair
from qgamma.charclasses import gamma_class
from qgamma.connection import spectrum, quantum_period, j_scaled, rising_inverses
from qgamma.asympt import (limit_ratio, central_charge, apery_precondition,
                           apery_ratios, radius_estimate, mellin_psi,
                           psi_residue_sum, psi_gamma_pi, frobenius_Pi,
                           psi_asymptotic_constant)

P2 = build_ring("P", 3)
G24 = build_ring("G", 4, 2)
G25 = build_ring("G", 5, 2)


def test_limit_ratio_p2():
    rep = limit_ratio(P2, [8, 10, 12], tol=1e-6)
    assert rep.converged
    assert rep.notes["gap_to_gamma"] < 1e-10


def test_limit_ratio_g24():
    rep = limit_ratio(G24, [4, 5, 6], tol=1e-4)
    assert rep.converged


def test_limit_target_is_gamma():
    rep = limit_ratio(P2, [10, 12], tol=1e-6)
    gam = [float(c) for c in gamma_class(P2).coeffs]
    assert rep.target == gam


def test_apery_precondition():
    g = G25.basis_class((3, 1)) - G25.basis_class((2, 2))
    assert apery_precondition(G25, g)
    bad = G25.basis_class((2,))
    assert not apery_precondition(G25, bad)


def test_apery_limit_is_zeta2():
    g = G25.basis_class((3, 1)) - G25.basis_class((2, 2))
    rep = apery_ratios(G25, g, [20, 30, 40], tol=1e-6)
    assert rep.converged
    assert abs(rep.target - math.pi ** 2 / 6) < 1e-12
    assert rep.notes["gap"] < 1e-10


def test_radius_projective():
    for N, nmax in [(2, 600), (3, 600)]:
        ring = build_ring("P", N)
        est = radius_estimate(quantum_period(ring, nmax, exact=False))
        T = spectrum(ring).T
        assert abs(est["ratio_refined"] - T) / T < 0.02


def test_radius_g25():
    est = radius_estimate(quantum_period(G25, 300, exact=False))
    T = spectrum(G25).T
    assert abs(est["ratio_refined"] - T) / T < 0.05


def test_radius_refuses_non_finite_terms():
    # n! G_n = (4k)! / (k!)^4 at n = 4k on P^3 overflows float64 from
    # n = 520 on, so the period to order 600 is refused before the radius
    # sees it
    with pytest.raises(OverflowError, match="the first at n = 520"):
        quantum_period(build_ring("P", 4), 600, exact=False)
    with pytest.raises(OverflowError):
        radius_estimate([1.0] * 150 + [math.nan] + [1.0] * 49)


def test_eval_j_and_apery_refuse_overflowing_rows():
    # n! J_n of P^3 overflows float64 from n = 500 on (every 4th row is
    # nonzero); the limit at t = 40, 60 has converged before that row
    P3 = build_ring("P", 4)
    with pytest.raises(OverflowError, match="the first at n = 500"):
        list(itertools.islice(j_scaled(P3), 600))
    assert limit_ratio(P3, [40, 60]).converged
    # the Apery ratios read exact rows: at r_F n = 100 and 400 they
    # converge, and they are refused once the rows pass the printable digits
    # (near order 1865 on G(2,5))
    g = G25.basis_class((3, 1)) - G25.basis_class((2, 2))
    rep = apery_ratios(G25, g, [20, 80])
    assert rep.converged and rep.notes["gap"] == 0.0
    with pytest.raises(OverflowError, match=f"pass {sys.get_int_max_str_digits()} digits"):
        apery_ratios(G25, g, [20, 400])


def test_quantum_period_refuses_rows_too_long_to_print():
    # G_{3k} = 1 / (k!)^3 on P^2: the point row passes the printable digits
    # at order 1830, and the period is refused there, not after order 3000
    limit = sys.get_int_max_str_digits()
    with pytest.raises(OverflowError, match=f"pass {limit} digits, the first at n = 1830"):
        quantum_period(P2, 3000)
    assert quantum_period(P2, 1829)[1827] == Fraction(1, math.factorial(609) ** 3)


def test_psi_n1_exponential():
    for t in [0.5, 1, 2]:
        assert abs(mellin_psi(1, t) - math.exp(-t)) < 1e-10


def test_psi_three_routes_agree():
    for N in [2, 3]:
        for t in [0.5, 1, 2]:
            a, b, c = mellin_psi(N, t), psi_residue_sum(N, t), psi_gamma_pi(N, t)
            assert max(abs(a - b), abs(b - c)) < 1e-8


@pytest.mark.parametrize("N", [2, 3, 4])
def test_gamma_pi_pairing_matches_meijer_g(N):
    """int_P Gamma-hat cup Pi(t) = Psi(t) = G^{N,0}_{0,N}(t^N | 0, ..., 0)
    to 30 of the 40 working digits."""
    ring = build_ring("P", N)
    for t in [0.5, 1, 2]:
        got = poincare_pair(gamma_class(ring), frobenius_Pi(N, t))
        want = mp.meijerg([[], []], [[0] * N, []], mpf(t) ** N)
        assert abs(got - want) < mpf("1e-30") * abs(want)


@pytest.mark.parametrize("route", [psi_residue_sum, psi_gamma_pi])
@pytest.mark.parametrize("N,t", [(3, 40), (2, 20)])
def test_psi_series_refuse_catastrophic_cancellation(route, N, t):
    # true values: 6.93e-54 and 1.68e-18; at 40 digits the sums keep too few
    # right digits, and at (3, 40) the series has not converged by n = 80
    with pytest.raises(OverflowError, match="keeps fewer than 9"):
        route(N, t)


def _frobenius_Pi_by_classes(N, t, nmax):
    """The class-based Pi loop the raw kernel replaced: each term the class
    P_n t^{Nn}, added to the running class in mpmath."""
    t = mpf(t)
    ring = build_ring("P", N)
    series = ring.zero()
    tn, tN, biggest = mpf(1), t ** N, mpf(0)
    for n, prod_inv in enumerate(rising_inverses(ring, -1, mpf(1))):
        size = tn * max(abs(x) for x in prod_inv.coeffs)
        if n > nmax or (n > 3 * int(t) + 6 and size < mpf("1e-45")):
            break
        series = series + prod_inv * tn
        biggest = max(biggest, size)
        tn = tn * tN
    return exp_cup(series, ring.basis_class((1,)), -N * mp.log(t)), biggest, size


def _psi_residue_sum_by_classes(N, t):
    """The class-based residue sum the raw kernel replaced: poincare_pair of
    each product with Gamma cup t^{-Nh}, scaled by t^{Nn}."""
    x = mpf(t)
    ring = build_ring("P", N)
    base = exp_cup(gamma_class(ring), ring.basis_class((1,)), -N * mp.log(x))
    total = biggest = mpf(0)
    tn, tN = mpf(1), x ** N
    for n, prod_inv in zip(range(81), rising_inverses(ring, -1, mpf(1))):
        term = poincare_pair(base, prod_inv) * tn
        total += term
        biggest = max(biggest, abs(term))
        if n > 3 * int(x) + 6 and abs(term) < mpf("1e-45") * (1 + abs(total)):
            break
        tn = tn * tN
    return asympt._above_floor(total, biggest, abs(term), N, t)


def _psi_gamma_pi_by_classes(N, t):
    Pi, biggest, tail = _frobenius_Pi_by_classes(N, t, 80)
    return asympt._above_floor(poincare_pair(gamma_class(Pi.ring), Pi), biggest, tail, N, t)


def _outcome(route, N, t):
    """The float's hex, or the refusal's message."""
    try:
        return route(N, t).hex()
    except OverflowError as e:
        return f"OverflowError: {e}"


def _assert_series_match_the_class_loops(N, t):
    # psi_gamma_pi's order, and psi_asymptotic_constant's (capped for t = 1e308)
    for nmax in (80, int(6 * min(t, 20)) + 40):
        new, old = asympt._frobenius_Pi(N, t, nmax), _frobenius_Pi_by_classes(N, t, nmax)
        assert [repr(c) for c in new[0].coeffs] == [repr(c) for c in old[0].coeffs]
        assert [repr(x) for x in new[1:]] == [repr(x) for x in old[1:]]
    assert _outcome(psi_residue_sum, N, t) == _outcome(_psi_residue_sum_by_classes, N, t)
    assert _outcome(psi_gamma_pi, N, t) == _outcome(_psi_gamma_pi_by_classes, N, t)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.floats(0.3, 12), st.sampled_from([40, 60]))
def test_psi_series_match_the_class_loops_bit_for_bit(N, t, dps):
    with mp.workdps(dps):
        _assert_series_match_the_class_loops(N, t)


@pytest.mark.parametrize("N,t", [(3, 40), (2, 20), (2, 1e308)])
def test_psi_series_refusals_match_the_class_loops(N, t):
    _assert_series_match_the_class_loops(N, t)
    # the message names t as the caller passed it, not as a 40-digit mpf
    for route in (psi_residue_sum, psi_gamma_pi):
        with pytest.raises(OverflowError, match=re.escape(f"t = {t} keeps fewer than 9")):
            route(N, t)


def test_psi_series_read_each_product_once_per_precision(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return cup(a, b)
    monkeypatch.setattr(connection, "cup", counted)
    monkeypatch.setattr(connection, "_RISING", {})   # make every product here
    monkeypatch.setattr(asympt, "_PRODUCTS", {})
    psi_residue_sum(3, 1.5)
    (kept,) = asympt._PRODUCTS.values()
    assert len(calls) == len(kept) - 1   # one cup per product past the unit
    # other t and the other route read the same products; a larger t only
    # extends them
    for t in [1.5, 0.7, 1.1, 2.5]:
        psi_residue_sum(3, t)
        frobenius_Pi(3, t)
    (again,) = asympt._PRODUCTS.values()
    assert again is kept and len(calls) == len(kept) - 1
    assert all(type(entry) is tuple and type(entry[0]) is tuple for entry in kept)
    products = rising_inverses(build_ring("P", 3), -1, mpf(1))
    for (coeffs, top), prod in zip(kept, products):
        assert coeffs == tuple(x._mpf_ for x in prod.coeffs)
        assert top == max(abs(x) for x in prod.coeffs)._mpf_
    # 40 and 60 digits are separate entries, each with its own cutoff
    with mp.workdps(60):
        psi_residue_sum(3, 1.5)
        assert asympt._cutoff(mp.prec) == mpf("1e-45")._mpf_
    assert sorted(asympt._PRODUCTS) == [(3, 136), (3, 203)]
    assert asympt._cutoff(mp.prec) == mpf("1e-45")._mpf_
    assert asympt._PRODUCTS[3, 203][3][0] != kept[3][0]


@pytest.mark.parametrize("t", [0, 0.0, -1.0, math.nan, math.inf, -math.inf])
def test_psi_routes_refuse_a_t_that_is_not_finite_and_positive(monkeypatch, t):
    def refuse(*args):
        raise AssertionError("work started before t was checked")
    monkeypatch.setattr(asympt, "build_ring", refuse)
    monkeypatch.setattr(asympt, "_leggauss", refuse)
    for route in (psi_residue_sum, psi_gamma_pi, frobenius_Pi, mellin_psi):
        with pytest.raises(ValueError, match="finite t > 0"):
            route(2, t)


def test_psi_contour_independence():
    assert abs(mellin_psi(2, 1.0, c=0.7) - mellin_psi(2, 1.0, c=1.4)) < 1e-12


def test_mellin_psi_node_cache_keeps_every_bit():
    # Gamma(s) on the nodes is cached per (c, interval); the floats must not
    # depend on whether the cache is cold or warm, on the call order, or on
    # another abscissa's entries
    nodes = asympt._gamma_nodes
    calls = [(4, 0.7, 1.0), (2, 1.3, 1.0), (2, 1.0, 0.7), (2, 1.0, 1.4)]
    cold = {}
    for N, t, c in calls:
        nodes.cache_clear()
        cold[N, t, c] = mellin_psi(N, t, c=c).hex()
    for order in (calls, calls[::-1]):
        nodes.cache_clear()
        for _ in range(2):   # the second pass runs warm
            assert [mellin_psi(N, t, c=c).hex() for N, t, c in order] == \
                [cold[key] for key in order]
    # the cache is keyed on c: a second abscissa builds its own nodes
    nodes.cache_clear()
    mellin_psi(2, 1.0, c=0.7)
    misses = nodes.cache_info().misses
    mellin_psi(2, 1.0, c=1.4)
    assert nodes.cache_info().misses > misses
    with pytest.raises(ValueError):
        nodes(1.0, 0)[1][0] = 0   # the cached arrays are read-only


def test_psi_routes_never_format_the_class(monkeypatch):
    # an mpf left of a class formats repr(CohClass) for a failed conversion
    # before Python falls back to CohClass.__rmul__; the Psi routes never do
    def refuse(self):
        raise AssertionError("repr(CohClass) was formatted")
    monkeypatch.setattr(CohClass, "__repr__", refuse)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})   # build every class here
    for N in [2, 3, 4]:
        assert len(frobenius_Pi(N, 1.1).coeffs) == N
        assert abs(psi_residue_sum(N, 1.1) - psi_gamma_pi(N, 1.1)) < 1e-8
    assert psi_asymptotic_constant(2, [6, 7, 8])["abs_error"] < 1e-3


def test_psi_asymptotic_constant():
    for N in [2, 3]:
        rep = psi_asymptotic_constant(N, [6, 7, 8])
        target = N ** -0.5 * (2 * math.pi) ** ((N - 1) / 2)
        assert abs(rep["target"] - target) < 1e-12
        assert rep["abs_error"] < 1e-3


def test_psi_asymptotic_constant_constants_follow_precision():
    # the 60-digit cancellation at large t needs Euler's constant and zeta(k)
    # at 60 digits too; 40-digit constants leave an error of about 0.58
    rep = psi_asymptotic_constant(3, [18, 19, 20])
    assert rep["abs_error"] < 1e-4
    assert mp.dps == 40


def _dense_J(ring, t, nmax):
    """J(t) with e^{rho log t} applied through the dense matrix of c1 cup."""
    rows = np.array(list(itertools.islice(j_scaled(ring), nmax + 1)))
    total = sum(rows[n] * t ** n / math.factorial(n) for n in range(nmax + 1))
    c1m = np.zeros((ring.rank, ring.rank))
    for j in range(ring.rank):
        c1m[:, j] = [float(x) for x in cup(ring.c1(), ring.basis_class(ring.basis[j])).coeffs]
    out = total.copy()
    term = total.copy()
    for k in range(1, ring.dim + 1):
        term = (math.log(t) / k) * (c1m @ term)
        out += term
    return out


@pytest.mark.parametrize("ring", [P2, G24], ids=["P2", "G24"])
@pytest.mark.parametrize("t", [0.7, 3.0])
def test_eval_j_matches_dense_c1_matrix(ring, t):
    got, want = asympt._float_J(ring, j_scaled(ring), t), _dense_J(ring, t, 80)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_eval_j_limit_ratio_and_central_charge_share_one_j_sum(monkeypatch):
    calls = []

    def refuse(ring, terms, logt, tol):
        calls.append(tol)
        raise ArithmeticError("shared J sum reached")
    monkeypatch.setattr(asympt, "_sum_J", refuse)
    for run in [lambda: asympt._float_J(P2, j_scaled(P2), 2.0), lambda: limit_ratio(P2, [1.0]),
                lambda: central_charge(P2.unit(), mpf(2), 30)]:
        with pytest.raises(ArithmeticError, match="shared J sum reached"):
            run()
    assert calls == [2.0 ** -53, 2.0 ** -53, mpf("1e-30")]


def test_eval_j_positive_t_only():
    with pytest.raises(ValueError):
        asympt._float_J(P2, j_scaled(P2), -1.0)


def test_limit_ratio_where_every_term_past_j0_underflows():
    # on P^1 at t = 1e-170 every term J_n t^n with n >= 2 underflows to 0.0:
    # the sum stops at n = 2, the first order N = 2 divides past J_0
    t = 1e-170
    rep = limit_ratio(build_ring("P", 2), [t])
    assert rep.values == [[1.0, pytest.approx(2 * math.log(t), rel=1e-15)]]
    assert not rep.converged


RINGS = [build_ring("P", N) for N in range(2, 6)] + [G24, G25]


def _full_sum_ratios(ring, t):
    """J(t) / <[pt], J(t)> summed to the fixed order max(80, 6 N t), term by
    term from the rows n! J_n weighted by t^n / n!."""
    total, w = [0.0] * ring.rank, 1.0
    for n, row in enumerate(itertools.islice(j_scaled(ring), max(80, int(6 * ring.N * t)) + 1)):
        if n:
            w *= t / n
        total = [a + x * w for a, x in zip(total, row)]
    J = exp_cup(CohClass(ring, total), ring.c1(), math.log(t)).coeffs
    return [x / J[0] for x in J]


@given(ring=st.sampled_from(RINGS), t=st.floats(0.5, 12))
@settings(max_examples=60, deadline=None)
def test_limit_ratio_matches_the_full_fixed_order_sum(ring, t):
    # the sum that stops where its terms can no longer move a float64 sum
    # agrees with the sum to the fixed order, wherever those rows are finite
    try:
        want = _full_sum_ratios(ring, t)
    except OverflowError:
        want = None
    got = limit_ratio(ring, [t]).values[0]
    if want is not None:
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * max(map(abs, want))


def test_limit_ratio_makes_rows_only_as_far_as_the_largest_t_reads(monkeypatch):
    made = []

    def counted(ring):
        for n, row in enumerate(j_scaled(ring)):
            made.append(n)
            yield row

    def orders(ring, grid):
        made.clear()
        limit_ratio(ring, grid)
        assert made == list(range(len(made)))   # one set of rows for the grid
        return made[-1]
    monkeypatch.setattr(asympt, "j_scaled", counted)
    P3 = build_ring("P", 4)
    assert orders(P2, [8, 10, 12]) == orders(P2, [12]) > orders(P2, [8])
    assert orders(P2, [12, 8]) == orders(P2, [12])
    # the rows of P^3 overflow at n = 500; t = 40, 60 reads fewer of them
    assert orders(P3, [40, 60]) == orders(P3, [60]) < 500
    # a sum stops at an order N divides: the largest one read
    assert orders(P2, [1.0]) % 3 == 0


@given(ring=st.sampled_from(RINGS), u=st.floats(-300, 6))
@settings(max_examples=80, deadline=None)
def test_limit_ratio_is_finite_or_a_classified_error(ring, u):
    # log-uniform t in [1e-300, 1e6]: finite ratios, or OverflowError /
    # ArithmeticError (numerics out of range / a failed check), never a NaN
    try:
        rep = limit_ratio(ring, [10.0 ** u])
    except ArithmeticError:
        return
    assert all(map(math.isfinite, rep.values[0]))
    assert math.isfinite(rep.notes["gap_to_gamma"])


def test_j_sum_refuses_its_first_non_finite_term():
    # on P^2 at t = 1e5 the weight t^n / n! stays finite to n = 88, but the
    # term J_78 t^78 already exceeds float64; the rows overflow only at n = 633
    with pytest.raises(OverflowError, match="non-finite J series terms J_n t.n, the first at n = 78$"):
        asympt._float_J(P2, j_scaled(P2), 1e5)


def test_j_sum_refuses_a_tail_that_has_not_converged():
    # on P^2 at t = 5 the terms J_n t^n still grow at n = 9: J_9 t^9 is the largest
    with pytest.raises(ArithmeticError, match="J series tail not converged at nmax=9"):
        central_charge(P2.unit(), mpf(5), 9)
