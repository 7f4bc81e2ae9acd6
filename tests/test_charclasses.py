"""Characteristic classes: Chern characters, Todd and Gamma classes, the
Euler pairing, and zeta-regularized products."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import operator

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf, mpc

from qgamma import charclasses, symfunc, verify
from test_symfunc import (_to_cohclass, poly_add, poly_const, poly_inv, poly_linear,
                         poly_scale, poly_series_of)
from qgamma.mrs import (SOB, beilinson_gamma_mrs, euler_matrix, gram, integer_gram,
                        kapranov_gamma_mrs)
from qgamma.rings import CohClass, build_ring, cup, exp_cup, poincare_pair
from qgamma.charclasses import (FP_POINT, MP_POINT, P, Fp, bracket_row,
                                ch_schur, scale_degrees, todd_class, gamma_class,
                                gamma_G_closed_form, kapranov_ch,
                                gamma_basis_class, satake_gamma_class, bracket_pairing,
                                euler_pairing_hrr, log_gamma_coeffs,
                                hurwitz_zeta_em, zeta_reg_reciprocal_product,
                                zeta_reg_closed_form)

P1 = build_ring("P", 2)
P2 = build_ring("P", 3)
G24 = build_ring("G", 4, 2)


def test_ch_line_bundle():
    c = ch_schur((1,), P2)
    assert abs(c.coeffs[0] - 1) < 1e-30
    assert abs(c.coeffs[1] - 1) < 1e-30
    assert c.coeffs[2] == Fraction(1, 2)   # exact (Fraction - mpf raises in mpmath)


def test_ch_rank_and_dual():
    c = ch_schur((2, 1), G24)
    assert c[()] == 2
    cd = scale_degrees(c, -1)
    assert abs(c.coeffs[0] - 2) < 1e-30
    assert abs(c.coeffs[1] + cd.coeffs[1]) < 1e-30


def test_todd_p1():
    td = todd_class(P1)
    assert abs(td.coeffs[0] - 1) < 1e-30
    assert abs(td.coeffs[1] - 1) < 1e-30


def test_gamma_p1():
    g = gamma_class(P1)
    assert abs(g.coeffs[0] - 1) < 1e-30
    assert abs(g.coeffs[1] + 2 * mp.euler) < 1e-30


def test_gamma_p2():
    g = gamma_class(P2)
    assert abs(g.coeffs[1] + 3 * mp.euler) < 1e-30
    expect = mpf(9) / 2 * mp.euler ** 2 + mpf(3) / 2 * mpmath.zeta(2)
    assert abs(g.coeffs[2] - expect) < 1e-30


def _tangent_roots(ring):
    """(linear form in x_1..x_r, multiplicity) for the K-theoretic roots of
    TF: TG = Hom(V, C^N) - Hom(V, V), so x_i with multiplicity N and
    x_i - x_j with multiplicity -1."""
    r = ring.r
    roots = []
    for i in range(r):
        roots.append((tuple(int(a == i) for a in range(r)), ring.N))
        for j in range(r):
            roots.append((tuple(int(a == i) - int(a == j) for a in range(r)), -1))
    return roots


def _gamma_over_roots(ring, roots):
    """prod Gamma(1 + delta)^mult over the given roots, as an exact truncated
    polynomial in x_1..x_r re-expanded in the Schur basis."""
    cap = ring.dim
    lg = log_gamma_coeffs(cap)
    total = {}
    for v, mult in roots:
        if all(c == 0 for c in v):
            continue
        lin = poly_linear(ring.r, v, mpf(1))
        total = poly_add(total, poly_scale(poly_series_of(lin, ring.r, lg, cap), mult))
    exp_coeffs = [mpf(1) / math.factorial(k) for k in range(cap + 1)]
    return _to_cohclass(ring, poly_series_of(total, ring.r, exp_coeffs, cap))


@pytest.mark.parametrize("kind,N,r", [("P", N, 1) for N in range(2, 6)]
                         + [("G", 4, 2), ("G", 5, 2), ("G", 6, 3), ("G", 7, 3)])
def test_gamma_class_matches_product_over_roots(kind, N, r):
    ring = build_ring(kind, N, r)
    got = gamma_class(ring)
    assert all(type(c) is mpf for c in got.coeffs)
    want = _gamma_over_roots(ring, _tangent_roots(ring))
    scale = max(abs(c) for c in want.coeffs)
    assert _max_gap(got, want) < mpf("1e-30") * scale


def _todd_over_roots(ring, roots):
    """prod (u / (1 - e^{-u}))^mult over the given roots, as an exact
    Fraction polynomial re-expanded in the Schur basis."""
    r, cap = ring.r, ring.dim
    # (1 - e^{-u}) / u = sum_k (-u)^k / (k+1)!
    d_coeffs = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(cap + 1)]
    total = poly_const(r, Fraction(1))
    for v, mult in roots:
        if not any(v):
            continue
        d = poly_series_of(poly_linear(r, v, Fraction(1)), r, d_coeffs, cap)
        factor = poly_inv(d, r, cap) if mult > 0 else d
        for _ in range(abs(mult)):
            total = symfunc.poly_mul(total, factor, cap)
    return symfunc.schur_expand(total, r, ring.cols, cap)


def _nonzero(cls):
    return {lam: c for lam, c in zip(cls.ring.basis, cls.coeffs) if c != 0}


@pytest.mark.parametrize("kind,N,r", [("P", N, 1) for N in range(2, 6)]
                         + [("G", 4, 2), ("G", 5, 2), ("G", 6, 2), ("G", 6, 3)])
def test_todd_class_matches_product_over_roots(kind, N, r):
    ring = build_ring(kind, N, r)
    assert _nonzero(todd_class(ring)) == _todd_over_roots(ring, _tangent_roots(ring))


def _ch_over_ssyt_weights(shape, ring):
    """sum of e^{w . x} over the SSYT weights w of the shape with entries in
    1..r, as an exact Fraction polynomial re-expanded in the Schur basis."""
    r, cap = ring.r, ring.dim
    exp_coeffs = [Fraction(1, math.factorial(k)) for k in range(cap + 1)]
    total = {}
    for w in symfunc.ssyt_monomials(shape, r):
        total = poly_add(total, poly_series_of(poly_linear(r, w, Fraction(1)), r, exp_coeffs, cap))
    return symfunc.schur_expand(total, r, ring.cols, cap)


def _det(m, mul):
    """Determinant by permutation expansion over any commutative ring of
    objects with + and integer scaling, given its product mul."""
    total = None
    for perm in itertools.permutations(range(len(m))):
        term = m[0][perm[0]]
        for i in range(1, len(m)):
            term = mul(term, m[i][perm[i]])
        term = symfunc.perm_sign(perm) * term
        total = term if total is None else total + term
    return total


def _ch_syms(ring, kmax):
    """[ch(Sym^k V*) for k = 0..kmax] by Newton's identities k h_k =
    sum_{m=1}^k p_m h_{k-m} in the variables e^{x_i}, whose m-th power sum
    is psi^m ch(V*): the h-recursion the package used before the dual Pieri
    rule."""
    ch_v = ring.zero()
    for j in range(ring.dim + 1):
        ch_v = ch_v + Fraction(1, math.factorial(j)) * charclasses._power_sum(ring, j)
    hs = [ring.unit()]
    for k in range(1, kmax + 1):
        total = ring.zero()
        for m in range(1, k + 1):
            total = total + cup(scale_degrees(ch_v, m), hs[k - m])
        hs.append(Fraction(1, k) * total)
    return hs


def _jacobi_trudi(nu, hs):
    """ch(S^nu V*) as the Jacobi-Trudi determinant det(h_{nu_i - i + j})
    with cups, from hs = _ch_syms(ring, kmax)."""
    ring = hs[0].ring
    if not nu:
        return ring.unit()
    n = len(nu)
    return _det([[hs[nu[i] - i + j] if nu[i] - i + j >= 0 else ring.zero()
                  for j in range(n)] for i in range(n)], cup)


@pytest.mark.parametrize("kind,N,r", [("P", 5, 1), ("G", 5, 2), ("G", 8, 2), ("G", 6, 3),
                                      ("G", 7, 3)])
def test_dual_pieri_matches_jacobi_trudi(kind, N, r):
    ring = build_ring(kind, N, r)
    hs = _ch_syms(ring, ring.cols + ring.r)
    for nu in ring.basis:
        got, want = ch_schur(nu, ring), _jacobi_trudi(nu, hs)
        assert [Fraction(c) for c in got.coeffs] == [Fraction(c) for c in want.coeffs]


CH_RINGS = [("P", N, 1) for N in range(2, 7)] + [("G", 4, 2), ("G", 5, 2), ("G", 6, 3),
                                                  ("G", 8, 2)]


@pytest.mark.parametrize("kind,N,r", CH_RINGS)
def test_ch_schur_matches_ssyt_weight_route(kind, N, r):
    ring = build_ring(kind, N, r)
    for nu in ring.basis:
        ch = ch_schur(nu, ring)
        assert _nonzero(ch) == _ch_over_ssyt_weights(nu, ring)
        assert ch[()] == len(symfunc.ssyt_monomials(nu, r))
    for k, h in enumerate(_ch_syms(ring, N - 1)):
        assert _nonzero(h) == _ch_over_ssyt_weights((k,), ring)


def _horizontal_strips(mu, k, rows):
    """kappa with at most rows parts, |kappa| = |mu| + k and
    mu_i <= kappa_i <= mu_{i-1}."""
    mu = list(mu) + [0] * (rows - len(mu))
    caps = [mu[0] + k] + mu[:-1]
    for kappa in itertools.product(*(range(m, c + 1) for m, c in zip(mu, caps))):
        if sum(kappa) == sum(mu) + k:
            yield tuple(p for p in kappa if p)


@pytest.mark.parametrize("kind,N,r", [("P", 5, 1), ("G", 5, 2), ("G", 6, 2), ("G", 6, 3)])
def test_ch_schur_k_theoretic_pieri(kind, N, r):
    # Sym^k V* (x) S^mu V* = sum of S^kappa V* over horizontal strips
    # kappa/mu, for every kappa inside the box
    ring = build_ring(kind, N, r)
    hs = _ch_syms(ring, ring.cols)
    for mu in ring.basis:
        for k in range(1, ring.cols - (mu[0] if mu else 0) + 1):
            lhs = cup(hs[k], ch_schur(mu, ring))
            rhs = ring.zero()
            for kappa in _horizontal_strips(mu, k, r):
                rhs = rhs + ch_schur(kappa, ring)
            assert lhs.coeffs == rhs.coeffs


@pytest.mark.parametrize("nu", [(1, 2), (1, -1), (3,), (1, 1, 1)])
def test_characters_reject_malformed_partitions(nu):
    with pytest.raises(ValueError):
        kapranov_ch(nu, G24)
    with pytest.raises(ValueError):
        ch_schur(nu, G24)


def test_gamma_class_cache_follows_precision():
    gamma_class(P2)   # fills the 40-digit cache entry
    with mp.workdps(60):
        g = gamma_class(P2)
        assert abs(g.coeffs[1] + 3 * mp.euler) < mpf("1e-55")
    assert abs(gamma_class(P2).coeffs[1] + 3 * mp.euler) < 1e-30


def _max_gap(a, b):
    return max(abs(mpc(x) - mpc(y)) for x, y in zip(a.coeffs, b.coeffs))


def test_closed_form_and_kapranov_cache_follow_precision():
    gamma_G_closed_form(2, 4)   # fill the 40-digit cache entries
    kapranov_ch((1,), G24)
    with mp.workdps(60):
        assert _max_gap(gamma_G_closed_form(2, 4), gamma_class(G24)) < mpf("1e-55")
        ch = kapranov_ch((1,), G24)
        # Ch(V*) = 2 + 2 pi i sigma_1 + (2 pi i)^2 (sigma_2 - sigma_11) / 2 + ...
        assert abs(ch[(1,)] - 2j * mp.pi) < mpf("1e-55")
        assert abs(ch[(2,)] + 2 * mp.pi ** 2) < mpf("1e-55")
        assert abs(ch[(1, 1)] - 2 * mp.pi ** 2) < mpf("1e-55")


@pytest.mark.parametrize("build,nu,ring", [(gamma_basis_class, (2, 1), G24),
                                           (gamma_basis_class, (2,), P2),
                                           (satake_gamma_class, (2, 1), G24)],
                         ids=["gamma-basis-G24", "gamma-basis-P2", "satake-G24"])
def test_gamma_basis_builders_follow_precision(monkeypatch, build, nu, ring):
    build(nu, ring)   # fill the 40-digit cache entries
    with mp.workdps(60):
        cached = build(nu, ring)
        monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
        assert _max_gap(cached, build(nu, ring)) < mpf("1e-55")


def test_exact_classes_are_cached_across_precisions(monkeypatch):
    build = charclasses._ch_schur
    calls = []

    def counted(ring, nu):
        calls.append(nu)
        return build(ring, nu)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses, "_ch_schur", counted)
    exact = ch_schur((2,), P2)
    with mp.workdps(60):
        assert ch_schur((2,), P2) is exact
        kapranov_ch((2,), P2)
    # ch O(2) = ch O(1) ch O(1) by the dual Pieri rule, ch O(1) by Newton
    # from ch O
    assert sorted(calls) == [(), (1,), (2,)]
    assert all(isinstance(c, (int, Fraction)) for c in exact.coeffs)


def test_exact_class_minus_mpf_class():
    exact, gam = ch_schur((2,), P2), gamma_class(P2)
    diff = exact - gam
    want = [mpf(a.numerator) / a.denominator - b
            for a, b in zip(map(Fraction, exact.coeffs), gam.coeffs)]
    assert list(diff.coeffs) == want


def test_cached_classes_are_immutable():
    for cls in [gamma_class(P2), gamma_G_closed_form(2, 4), gamma_basis_class((1,), G24),
                satake_gamma_class((1,), G24)]:
        with pytest.raises(TypeError):
            cls.coeffs[0] = 0
    assert gamma_class(P2).coeffs[0] == 1


def test_criterion_5_builds_each_closed_form_once(monkeypatch):
    # once per ring and period point: exactly at the F_p point, and at 40
    # digits for the comparison with the printed Gamma class
    build = charclasses._gamma_G_closed_form
    calls = []

    def counted(ring, point):
        calls.append((ring.r, ring.N, point.key[0]))
        return build(ring, point)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses, "_gamma_G_closed_form", counted)
    assert verify.criterion_5()["passed"]
    assert sorted(calls) == [(r, N, key) for r, N in [(2, 4), (2, 5), (3, 6)]
                             for key in ["F_p", "mp"]]


def test_gamma_g_closed_form_matches_generic():
    for r, N in [(1, 4), (2, 4), (2, 5), (3, 4), (4, 5), (3, 6), (3, 7)]:
        assert _max_gap(gamma_class(build_ring("G", N, r)), gamma_G_closed_form(r, N)) < 1e-30
    # up to the top of the range, binom(N, r) <= 300, relative to the class
    for r, N in [(4, 8), (3, 9), (2, 12), (4, 10), (5, 10), (3, 13), (2, 25)]:
        gam = gamma_class(build_ring("G", N, r))
        scale = max(abs(c) for c in gam.coeffs)
        assert _max_gap(gam, gamma_G_closed_form(r, N)) < mpf("1e-35") * scale


def _gamma_G_by_products(ring):
    """The closed form as a truncated polynomial in x_1..x_r: one series
    Gamma(1 + x_j)^N e^{(2j-(r-1)) pi i x_j} per j from 0 and one (e^u - 1)/u,
    u = 2 pi i (x_i - x_j), per pair i < j (their factors 2 pi i cancel
    (2 pi i)^{-C(r,2)}, and the e^{2 pi i x_j} join the j-th series),
    re-expanded in the Schur basis by the bialternant."""
    r, N, cap = ring.r, ring.N, ring.dim
    # e^u = sum u^k/k! and (e^u - 1)/u = sum u^k/(k+1)!
    exp_coeffs = [mpf(1) / math.factorial(k) for k in range(cap + 2)]
    lg = log_gamma_coeffs(cap)
    total = poly_const(r, mpc(1))
    for j in range(r):
        x_j = tuple(int(k == j) for k in range(r))
        log_f = {tuple(n * e for e in x_j): N * lg[n] for n in range(1, cap + 1)}
        log_f[x_j] += (2 * j - (r - 1)) * 1j * mp.pi
        total = symfunc.poly_mul(total, poly_series_of(log_f, r, exp_coeffs, cap), cap)
        for i in range(j):
            u = poly_linear(r, [(k == i) - (k == j) for k in range(r)], 2j * mp.pi)
            total = symfunc.poly_mul(total, poly_series_of(u, r, exp_coeffs[1:], cap), cap)
    return _to_cohclass(ring, total)


@pytest.mark.parametrize("r,N", [(2, 4), (2, 5), (3, 6), (3, 7)])
def test_gamma_g_closed_form_matches_the_product_route(r, N):
    ring = build_ring("G", N, r)
    assert _max_gap(_gamma_G_by_products(ring), gamma_G_closed_form(r, N)) < 1e-33


def test_gamma_g_closed_form_makes_no_symfunc_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("the closed form called symfunc")
    for name, obj in vars(symfunc).items():
        if callable(obj) and getattr(obj, "__module__", None) == symfunc.__name__:
            monkeypatch.setattr(symfunc, name, refuse)
    assert not [name for name, obj in vars(charclasses).items()
                if getattr(obj, "__module__", None) == symfunc.__name__]
    ring = build_ring("G", 6, 3)
    assert _max_gap(charclasses._gamma_G_closed_form(ring, MP_POINT), gamma_class(ring)) < 1e-30


def test_euler_pairing_p1():
    O = ch_schur((), P1)
    O1 = ch_schur((1,), P1)
    assert euler_pairing_hrr(O, O1) == 2
    assert euler_pairing_hrr(O1, O) == 0
    assert euler_pairing_hrr(O, O) == 1


def test_euler_pairing_rejects_non_integer():
    half_O = Fraction(1, 2) * ch_schur((), P2)
    with pytest.raises(ArithmeticError):
        euler_pairing_hrr(half_O, ch_schur((), P2))


def test_euler_pairing_p3_binomial():
    P3 = build_ring("P", 4)
    for i in range(4):
        for j in range(4):
            chi = euler_pairing_hrr(ch_schur((i,), P3), ch_schur((j,), P3))
            assert chi == (math.comb(3 + j - i, 3) if j >= i else 0)
    # the closed-form Euler matrix is the HRR pairing, also on P^2 and G(2,4)
    for ring in [P2, P3, G24]:
        hrr = [[euler_pairing_hrr(ch_schur(nu, ring), ch_schur(mu, ring)) for mu in ring.basis]
               for nu in ring.basis]
        assert euler_matrix(ring) == hrr


@pytest.mark.parametrize("N,r", [(25, 2), (10, 4)])
def test_hrr_of_the_structure_sheaf_and_the_plucker_bundle(N, r):
    # int td = chi(O) = 1 and int ch(O(1)) td = h^0(O(1)) = C(N, r), exactly
    ring = build_ring("G", N, r)
    td = todd_class(ring)
    assert poincare_pair(ring.unit(), td) == 1
    assert poincare_pair(ch_schur((1,) * r, ring), td) == math.comb(N, r)


def test_bracket_reproduces_euler_pairing():
    gam = gamma_class(P1)
    O = cup(gam, kapranov_ch((), P1))
    O1 = cup(gam, kapranov_ch((1,), P1))
    assert abs(bracket_pairing(O, O) - 1) < 1e-12
    assert abs(bracket_pairing(O, O1) - 2) < 1e-12
    assert abs(bracket_pairing(O1, O)) < 1e-12


def _exp_mu(a, scalar):
    """exp(scalar * mu): the degree-p part times exp(scalar (p - dim/2))."""
    half = mpf(a.ring.dim) / 2
    return CohClass(a.ring, [mpmath.exp(scalar * (sum(lam) - half)) * c
                             for lam, c in zip(a.ring.basis, a.coeffs)])


def test_bracket_pairing_equals_operator_formula():
    # the whole-vector operator formula (2 pi)^{-dim} (e^{pi i rho}
    # e^{pi i mu} a, b) against the basis form, entry by entry
    pi_i = 1j * mp.pi
    for vs in [beilinson_gamma_mrs(4).vectors, kapranov_gamma_mrs(2, 4).vectors]:
        ring = vs[0].ring
        scale = mpmath.power(2 * mp.pi, -ring.dim)
        for a in vs:
            left = exp_cup(_exp_mu(a, pi_i), ring.c1(), pi_i)
            for b in vs:
                want = scale * poincare_pair(left, b)
                assert abs(bracket_pairing(a, b) - want) < mpf("1e-32") * (1 + abs(want))


def test_bracket_form_rejects_disagreeing_orderings(monkeypatch):
    vs = beilinson_gamma_mrs(3).vectors
    honest = charclasses.exp_cup

    def corrupt(a, x, s):
        # the negative imaginary scalar is the e^{-pi i rho} ordering only
        out = honest(a, x, s)
        return 2 * out if mpmath.im(s) < 0 else out
    # an empty cache for the test's duration: the form is rebuilt through the
    # corrupted exp_cup, and no corrupted form outlives the test
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses, "exp_cup", corrupt)
    with pytest.raises(ArithmeticError):
        bracket_pairing(vs[0], vs[1])
    with pytest.raises(ArithmeticError):
        gram(SOB(vs, bracket_pairing))


def test_bracket_form_is_exact_at_the_fp_point(monkeypatch):
    # the two orderings must agree exactly: one off by a factor 2 raises
    vs = [gamma_basis_class(nu, P1, FP_POINT) for nu in P1.basis]
    assert [[bracket_row(a, FP_POINT)(b) for b in vs] for a in vs] == [[1, 2], [0, 1]]
    honest = charclasses.exp_cup

    def corrupt(a, x, s):
        out = honest(a, x, s)
        return 2 * out if s == -FP_POINT.tau / 2 else out
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses, "exp_cup", corrupt)
    with pytest.raises(ArithmeticError):
        bracket_row(vs[0], FP_POINT)


def _assert_kapranov_gram_is_exact_hrr(r, N):
    # the numeric Gamma-basis Gram against the exact HRR Euler pairings
    ring = build_ring("G", N, r)
    m = kapranov_gamma_mrs(r, N)
    ints, err = integer_gram(m)
    exact = [[euler_pairing_hrr(ch_schur(nu, ring), ch_schur(kappa, ring))
              for kappa in ring.basis] for nu in ring.basis]
    assert ints == exact
    assert err < 1e-30


def test_kapranov_gram_is_exact_hrr_euler_pairing_g25():
    _assert_kapranov_gram_is_exact_hrr(2, 5)


def test_kapranov_gram_is_exact_hrr_euler_pairing_g36():
    _assert_kapranov_gram_is_exact_hrr(3, 6)


@pytest.mark.parametrize("build,args", [(kapranov_gamma_mrs, (3, 6)),
                                       (beilinson_gamma_mrs, (4,))],
                         ids=["kapranov-G36", "beilinson-P3"])
def test_row_gram_matches_per_entry_pairing(build, args):
    # one bracket row per left vector against a pairing gram cannot
    # recognize, which it calls once per entry
    m = build(*args)
    rows = gram(SOB(m.vectors, bracket_pairing))
    entries = gram(SOB(m.vectors, lambda a, b: bracket_pairing(a, b)))
    assert np.max(np.abs(rows - entries)) <= 1e-30 * np.max(np.abs(entries))


def test_bracket_form_follows_working_precision():
    # the cached form is keyed by precision: a 60-digit Gram is not limited
    # by a 40-digit form built first
    m = beilinson_gamma_mrs(4)
    assert integer_gram(m)[1] < 1e-30
    with mp.workdps(60):
        m = beilinson_gamma_mrs(4)
        ints, err = integer_gram(m)
    assert ints == [[math.comb(3 + j - i, 3) if j >= i else 0 for j in range(4)]
                    for i in range(4)]
    assert err < 1e-50


def test_kapranov_euler_pairing_not_orthogonal():
    # chi(S^(1) V*, S^(21) V*) on G(2,4) is 16, not 0: the two marking-0
    # members of the Kapranov collection pair nontrivially in one direction.
    chi = euler_pairing_hrr(ch_schur((1,), G24), ch_schur((2, 1), G24))
    assert chi == 16
    chi = euler_pairing_hrr(ch_schur((2, 1), G24), ch_schur((1,), G24))
    assert chi == 0


ZETA_REG_DELTAS = ["0", "1e-3", "0.5", "1", "2", "1e3", "1e6"]
ZETA_REG_ZS = ["1e-5", "1e-3", "0.5", "1", "2", "1e3", "1e6"]
# a = delta/z + 1 over the product grid below
HURWITZ_AS = sorted({mpf(delta) / mpf(z) + 1 for delta in ZETA_REG_DELTAS for z in ZETA_REG_ZS})


def _check_hurwitz_at_0(a, s=0):
    value, deriv = hurwitz_zeta_em(a)
    for ours, ref in [(value, mpmath.zeta(s, a)), (deriv, mpmath.zeta(s, a, 1))]:
        # zeta(0, 1/2) = 0; every other reference is at least 0.3 in size
        assert abs(ours - ref) <= 1e-25 * abs(ref) if ref else ours == 0


# the reference is taken at s = 0 given as an mpf and as an int
@pytest.mark.parametrize("s", [mpf(0), 0], ids=["s1", "0"])
@pytest.mark.parametrize("a", [mpf("0.5"), mpf(1), mpf("2.25")])
def test_hurwitz_zeta_and_its_s_derivative_against_mpmath(s, a):
    _check_hurwitz_at_0(a, s)


@pytest.mark.parametrize("a", HURWITZ_AS, ids=lambda a: mpmath.nstr(a, 12))
def test_hurwitz_zeta_at_0_over_the_product_grid(a):
    _check_hurwitz_at_0(a)


@pytest.mark.parametrize("delta", ZETA_REG_DELTAS)
@pytest.mark.parametrize("z", ZETA_REG_ZS)
def test_zeta_reg_product_against_the_closed_form_at_80_digits(delta, z):
    delta, z = mpf(delta), mpf(z)
    num = zeta_reg_reciprocal_product(delta, z)
    with mp.workdps(80):
        cf = zeta_reg_closed_form(delta, z)
        rel = abs(num - cf) / abs(cf)
    # past delta/z = 1e6, log of the product reaches 2.5e12, and 40 digits
    # of it leave fewer digits of the product
    assert rel < (1e-30 if delta / z <= 1e6 else 1e-26)


@pytest.mark.parametrize("f", [zeta_reg_reciprocal_product, zeta_reg_closed_form])
@pytest.mark.parametrize("delta, z", [
    ("nan", "1"), ("1", "nan"), ("inf", "1"), ("1", "inf"), ("1", "-inf"),
    ("-inf", "1"), ("-1", "1"), ("1", "0"), ("1", "-1")])
def test_zeta_reg_refuses_non_finite_and_out_of_range_arguments(f, delta, z):
    with pytest.raises(ValueError):
        f(mpf(delta), mpf(z))
    with pytest.raises(ValueError):
        f(float(delta), float(z))


def test_zeta_reg_grid():
    worst = 0.0
    for delta in [mpf("0.5"), mpf(1), mpf("1.5"), mpf(2)]:
        for z in [mpf("0.5"), mpf(1), mpf(2)]:
            num = zeta_reg_reciprocal_product(delta, z)
            cf = zeta_reg_closed_form(delta, z)
            worst = max(worst, float(abs(num - cf) / abs(cf)))
    assert worst < 1e-30


def test_criterion_10_fails_a_central_difference_derivative(monkeypatch):
    # f'(0) by a central difference with step 1e-5, f(s) = z^s zeta(-s, a):
    # an error near 1e-10 that the exact derivative does not make
    def central_difference(delta, z):
        a, h = delta / z + 1, mpf("1e-5")
        f = [mpmath.power(z, s) * mpmath.zeta(-s, a) for s in (h, -h)]
        return mpmath.exp(-(f[0] - f[1]) / (2 * h))
    monkeypatch.setattr(verify, "zeta_reg_reciprocal_product", central_difference)
    result = verify.criterion_10()
    assert not result["passed"]
    assert 1e-14 < result["details"]["max_rel_err"] < 1e-6


def test_zeta_reg_value():
    # delta = z = 1: product over Gamma(1+1/z)-type towers collapses to
    # 1/sqrt(2 pi)
    cf = zeta_reg_closed_form(mpf(1), mpf(1))
    assert abs(cf - 1 / mpmath.sqrt(2 * mp.pi) * mpmath.gamma(2)) < 1e-30


# --- the F_p scalar and the period point --------------------------------

_INTS = st.integers(-2 ** 130, 2 ** 130)
_FRACTIONS = st.builds(Fraction, _INTS, st.integers(1, 2 ** 70))


def _mod(q) -> int:
    """An int or a Fraction mod P, by Python's own arithmetic."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, P) % P


@given(a=_INTS, b=st.one_of(_INTS, _FRACTIONS))
def test_fp_arithmetic_is_python_arithmetic_mod_p(a, b):
    x = Fp(a)
    assert x == a % P
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and _mod(b) == 0:
            continue
        got = op(x, b)
        assert type(got) is Fp and got == _mod(op(Fraction(a), b))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and a % P == 0:
            continue
        got = op(b, x)
        # an int on the left gives an Fp; a Fraction on the left reads x as
        # its representative, which is the same element mod P
        assert type(got) is (Fp if isinstance(b, int) else Fraction)
        assert _mod(got) == _mod(op(b, Fraction(a)))
    assert type(-x) is Fp and -x == -a % P


@given(a=_INTS, k=st.integers(-40, 40))
def test_fp_powers_are_python_powers_mod_p(a, k):
    if a % P == 0 and k < 0:
        with pytest.raises(ArithmeticError):
            Fp(a) ** k
        return
    got = Fp(a) ** k
    assert type(got) is Fp and got == pow(a, k, P)


@given(a=_INTS)
def test_fp_keeps_its_type_under_an_int_on_the_left(a):
    # cup adds products to an int 0 and compound subtracts from one
    x = Fp(a)
    for got in (0 + x, 0 - x, 3 * x, x ** 0, a / Fp(7)):
        assert type(got) is Fp
    assert 0 + x == x and 0 - x == -x and 3 * x == 3 * a % P and x ** 0 == 1
    assert a / Fp(7) * 7 == x


def test_fp_refuses_division_by_zero_and_a_float():
    with pytest.raises(ArithmeticError):
        Fp(5) / P
    with pytest.raises(ArithmeticError):
        Fraction(1, 2) / Fp(P)
    with pytest.raises(ValueError):
        Fp(1.5)


@pytest.mark.parametrize("other", [1.5, 2.0, mpf(3), mpc(1, 2), np.float64(0.5)],
                         ids=["float", "integral float", "mpf", "mpc", "numpy float"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_fp_on_the_left_refuses_a_float_or_an_mpmath_operand(op, other):
    # the ValueError of Fp(x): Fp(1) + 1.5 is not 2.5, Fp(2) * mpf(3) not
    # mpf 6, Fp(2) / 2.0 not 1.0
    with pytest.raises(ValueError, match=f"no F_p value for a {type(other).__name__}"):
        op(Fp(2), other)


def test_fp_on_the_right_of_a_float_or_an_mpf_reads_as_its_integer():
    # the documented gap: float and mpmath take an int subclass as an int
    assert 1.5 + Fp(1) == 2.5 and type(1.5 + Fp(1)) is float
    assert mpf(1) + Fp(2) == 3 and type(mpf(1) + Fp(2)) is mpf


def test_fp_point_even_zeta_values_come_from_2_pi_i():
    # zeta(2) = pi^2 / 6 = -(2 pi i)^2 / 24, zeta(4) = pi^4 / 90 = (2 pi i)^4 / 1440
    tau = FP_POINT.tau
    assert FP_POINT.zeta(2) == -tau ** 2 / 24 and FP_POINT.zeta(4) == tau ** 4 / 1440
    for k in (2, 4, 6):
        with mp.workdps(30):
            want = -mpmath.bernoulli(k) * (2j * mp.pi) ** k / (2 * math.factorial(k))
            assert abs(MP_POINT.zeta(k) - want) < mpf("1e-28")
    odd = [FP_POINT.zeta(k) for k in (3, 5, 7)] + [FP_POINT.euler, tau]
    assert len(set(odd)) == 5 and 0 not in odd


@pytest.mark.parametrize("kind,N,r", [("P", 3, 1), ("G", 4, 2), ("G", 6, 3)])
def test_fp_classes_hold_only_fp_scalars(kind, N, r):
    # the builders take every number from the point: no mpmath value and no
    # unreduced Fraction enters an F_p class; an entry no product reached
    # stays the int 0
    ring = build_ring(kind, N, r)
    nu = ring.basis[-1]
    classes = [gamma_class(ring, FP_POINT), gamma_basis_class(nu, ring, FP_POINT),
               kapranov_ch(nu, ring, FP_POINT)]
    if kind == "G":
        classes += [satake_gamma_class(nu, ring, FP_POINT), gamma_G_closed_form(r, N, FP_POINT)]
    for cls in classes:
        assert all(type(c) is Fp or (type(c) is int and c == 0) for c in cls.coeffs)
    # the degree-1 part of the Gamma class is -gamma c_1 = -gamma N sigma_1
    assert gamma_class(ring, FP_POINT)[(1,)] == -N * FP_POINT.euler
