"""Cohomology ring layer: basis combinatorics, cup products, the Pieri cup
table, Poincare pairing, compound matrices, and the Satake wedge map."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpc, mpf

from qgamma import charclasses, connection, rings, symfunc
from qgamma.rings import (build_ring, compound, cup, exp_cup, poincare_pair,
                          partitions_in_box, box_complement, satake,
                          normalize_partition, wedge_exponents)


P1 = build_ring("P", 2)
P3 = build_ring("P", 4)
G24 = build_ring("G", 4, 2)
G25 = build_ring("G", 5, 2)


def test_basis_sizes():
    assert P3.rank == 4
    assert G24.rank == 6
    assert G25.rank == 10
    assert build_ring("G", 6, 3).rank == 20
    assert len(partitions_in_box(2, 3)) == 10


def test_degrees_and_dim():
    assert P3.dim == 3
    assert G24.dim == 4
    assert [sum(lam) for lam in G24.basis] == [0, 1, 2, 2, 3, 4]
    assert G24.fano_index == 4
    assert G25.fano_index == 5


def test_box_complement():
    assert box_complement((2, 1), 2, 2) == (1,)
    assert box_complement((), 2, 3) == (3, 3)


def test_cup_projective_space():
    h = P3.basis_class((1,))
    h2 = cup(h, h)
    assert h2.coeffs == [0, 0, 1, 0]
    assert cup(h2, h2).coeffs == [0, 0, 0, 0]


def test_cup_grassmannian_pieri():
    s1 = G24.basis_class((1,))
    out = cup(s1, s1)
    assert out[(2,)] == 1 and out[(1, 1)] == 1
    out2 = cup(out, s1)
    assert out2[(2, 1)] == 2


def test_cup_schur_rule_g25():
    a = G25.basis_class((2,))
    b = G25.basis_class((1, 1))
    out = cup(a, b)
    assert out[(3, 1)] == 1
    assert all(c == 0 for lam, c in zip(G25.basis, out.coeffs)
               if lam != (3, 1))
    out = cup(G25.basis_class((1,)), G25.basis_class((2, 1)))
    assert out[(3, 1)] == 1 and out[(2, 2)] == 1


def test_poincare_pairing_duality():
    for ring in [P3, G24, G25]:
        for lam in ring.basis:
            for mu in ring.basis:
                expect = 1 if mu == box_complement(lam, ring.r, ring.cols) else 0
                got = poincare_pair(ring.basis_class(lam), ring.basis_class(mu))
                assert got == expect


def _schur_product_oracle(ring, lam, mu) -> list:
    """sigma_lam cup sigma_mu by multiplying r-variable Schur polynomials and
    re-expanding through the Vandermonde (partitions leaving the box drop)."""
    r, cols, dim = ring.r, ring.cols, ring.dim
    out = [0] * ring.rank
    if sum(lam) + sum(mu) > dim:
        return out
    prod = symfunc.poly_mul(symfunc.schur_poly(lam, r), symfunc.schur_poly(mu, r), dim)
    for nu, c in symfunc.schur_expand(prod, r, cols, dim).items():
        out[ring.index[nu]] = c
    return out


@pytest.mark.parametrize("kind,N,r", [("P", N, 1) for N in range(2, 7)]
                         + [("G", 4, 2), ("G", 5, 2), ("G", 6, 3), ("G", 7, 3), ("G", 8, 3)])
def test_pieri_cup_table_matches_schur_products(kind, N, r):
    ring = build_ring(kind, N, r)
    for lam in ring.basis:
        for mu in ring.basis:
            got = cup(ring.basis_class(lam), ring.basis_class(mu)).coeffs
            assert got == _schur_product_oracle(ring, lam, mu), (lam, mu)


def test_pieri_cup_table_is_a_frobenius_ring_at_g49():
    # G(4,9) is out of reach of the Schur-product oracle; check the ring laws
    # on random triples of sparse integer classes instead
    ring = build_ring("G", 9, 4)
    rng = random.Random(49)
    point = ring.basis_class(ring.top())

    def rand():
        c = ring.zero()
        for lam in rng.sample(ring.basis, 3):
            c.coeffs[ring.index[lam]] = rng.choice([-2, -1, 1, 3])
        return c
    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert cup(a, b).coeffs == cup(b, a).coeffs
        assert cup(cup(a, b), c).coeffs == cup(a, cup(b, c)).coeffs
    for lam in ring.basis:
        dual = ring.basis_class(box_complement(lam, ring.r, ring.cols))
        assert cup(ring.basis_class(lam), dual).coeffs == point.coeffs


def test_build_ring_needs_no_schur_polynomials(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_ring multiplied Schur polynomials")
    monkeypatch.setattr(symfunc, "schur_poly", refuse)
    monkeypatch.setattr(symfunc, "poly_mul", refuse)
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    ring = build_ring("G", 7, 3)
    assert ring.rank == 35
    s1 = ring.basis_class((1,))
    assert cup(s1, ring.basis_class((2, 1)))[(3, 1)] == 1


def _random_class(ring, seed):
    rng = random.Random(seed)
    c = ring.zero()
    c.coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(ring.rank)]
    return c


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_cup_commutative(s1, s2):
    a, b = _random_class(G25, s1), _random_class(G25, s2)
    assert cup(a, b).coeffs == cup(b, a).coeffs


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_cup_associative(s1, s2, s3):
    a, b, c = (_random_class(G24, s) for s in (s1, s2, s3))
    assert cup(cup(a, b), c).coeffs == cup(a, cup(b, c)).coeffs


def test_satake_staircase():
    P = build_ring("P", 4)
    h = [P.basis_class((k,) if k else ()) for k in range(4)]
    out = satake([h[1], h[0]], G24)
    assert out.coeffs == G24.unit().coeffs
    out = satake([h[3], h[2]], G24)
    assert out[(2, 2)] == 1 and sum(abs(c) for c in out.coeffs) == 1
    out = satake([h[2], h[0]], G24)
    assert out[(1,)] == 1


def test_satake_antisymmetry():
    P = build_ring("P", 4)
    h2, h3 = P.basis_class((2,)), P.basis_class((3,))
    a = satake([h3, h2], G24)
    b = satake([h2, h3], G24)
    assert a.coeffs == [-c for c in b.coeffs]
    assert all(c == 0 for c in satake([h2, h2], G24).coeffs)


DICTIONARY_CASES = [(2, 4), (2, 5), (3, 6), (3, 7), (4, 8)]


@pytest.mark.parametrize("r,N", DICTIONARY_CASES)
def test_wedge_exponents_biject_onto_decreasing_subsets(r, N):
    ks = [wedge_exponents(nu, r) for nu in build_ring("G", N, r).basis]
    assert all(list(k) == sorted(k, reverse=True) and len(set(k)) == r for k in ks)
    assert sorted(ks) == sorted(itertools.combinations(reversed(range(N)), r))


@pytest.mark.parametrize("r,N", DICTIONARY_CASES)
def test_satake_of_a_basis_wedge_is_its_schubert_class(r, N):
    ring_P, ring_G = build_ring("P", N), build_ring("G", N, r)
    for nu in ring_G.basis:
        out = satake([ring_P.basis_class((k,)) for k in wedge_exponents(nu, r)], ring_G)
        assert out.coeffs == ring_G.basis_class(nu).coeffs
        assert all(type(c) is int for c in out.coeffs)


def _satake_over_ordered_tuples(factors, ring_G):
    """The Satake map term by term: every ordered tuple of distinct
    exponents, sorted into b_1 > ... > b_r with the sign of the sort."""
    r = ring_G.r
    out = ring_G.zero().coeffs
    for expts in itertools.permutations(range(factors[0].ring.rank), r):
        coeff = 1
        for f, e in zip(factors, expts):
            coeff = coeff * f.coeffs[e]
        order = sorted(range(r), key=lambda i: -expts[i])
        b = [expts[i] for i in order]
        lam = normalize_partition(tuple(b[i] - (r - 1 - i) for i in range(r)))
        out[ring_G.index[lam]] = out[ring_G.index[lam]] + symfunc.perm_sign(tuple(order)) * coeff
    return out


@pytest.mark.parametrize("r,N", [(2, 5), (3, 6), (4, 7)])
def test_satake_minors_match_ordered_tuples(r, N):
    rng = random.Random(20 * r + N)
    ring_P, ring_G = build_ring("P", N), build_ring("G", N, r)
    factors = [rings.CohClass(ring_P, [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                       for _ in range(N)]) for _ in range(r)]
    got, want = satake(factors, ring_G).coeffs, _satake_over_ordered_tuples(factors, ring_G)
    assert max(abs(a - b) for a, b in zip(got, want)) < mpf("1e-30")


def test_wedge_pairing_determinant():
    # [a_1 ^ a_2, b_1 ^ b_2] = det[(a_i, b_j)] for the Poincare pairing on
    # P^3: the compound's minor on the sorted exponents, with both sorts' signs
    P = build_ring("P", 4)
    h = [P.basis_class((k,) if k else ()) for k in range(4)]
    minors = compound([[poincare_pair(a, b) for b in h] for a in h], 2)

    def wedge_pairing(alpha, beta):
        sign = (-1) ** ((alpha[0] > alpha[1]) + (beta[0] > beta[1]))
        return sign * minors[tuple(sorted(alpha)), tuple(sorted(beta))]

    assert wedge_pairing([3, 0], [0, 3]) == 1
    assert wedge_pairing([3, 0], [3, 0]) == -1
    assert wedge_pairing([3, 2], [0, 1]) == 1
    assert wedge_pairing([3, 2], [2, 0]) == 0


def test_ring_repr_is_short():
    # The cup table, index and pairing matrix stay out of repr: mpmath formats
    # repr(CohClass) whenever it fails to coerce one in a product.
    assert len(repr(build_ring("G", 8, 3))) < 1000


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def _leibniz_minor(a, rows, cols):
    """det a[rows, cols] as the signed sum over permutations: the oracle for
    compound."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = symfunc.perm_sign(perm)
        for i, j in enumerate(perm):
            term = term * a[rows[i]][cols[j]]
        total = total + term
    return total


def _draw_matrix(data, entries):
    """(an n x m matrix, n and m in 1..6, and r in 1..min(n, m, 5))."""
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    a = data.draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    return a, data.draw(st.integers(1, min(n, m, 5)))


def _subset_pairs(a, r):
    return [(rows, cols) for rows in itertools.combinations(range(len(a)), r)
            for cols in itertools.combinations(range(len(a[0])), r)]


# about half the entries are zero, so the skipped terms and empty rows show
_sparse_ints = st.one_of(st.just(0), st.integers(-9, 9))
_sparse_fractions = st.one_of(st.just(Fraction(0)), _fractions)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([_sparse_ints, _sparse_fractions]), st.data())
def test_compound_is_every_leibniz_minor_exactly(entries, data):
    a, r = _draw_matrix(data, entries)
    minors = compound(a, r)
    assert sorted(minors) == _subset_pairs(a, r)
    assert all(minors[k] == _leibniz_minor(a, *k) for k in minors)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_compound_of_a_complex_matrix_matches_leibniz(data):
    unit_box = st.floats(-1, 1)
    entries = st.one_of(st.just(mpc(0)), st.builds(mpc, unit_box, unit_box))
    a, r = _draw_matrix(data, entries)
    minors = compound(a, r)
    assert sorted(minors) == _subset_pairs(a, r)
    assert all(abs(minors[k] - _leibniz_minor(a, *k)) < 1e-30 for k in minors)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([P3, G24]), st.data())
def test_exp_cup_is_a_one_parameter_group(ring, data):
    a = ring.zero()
    a.coeffs = data.draw(st.lists(_fractions, min_size=ring.rank, max_size=ring.rank))
    x = ring.zero()
    x.coeffs = [0] + data.draw(st.lists(_fractions, min_size=ring.rank - 1,
                                        max_size=ring.rank - 1))
    s, t = data.draw(_fractions), data.draw(_fractions)
    assert exp_cup(exp_cup(a, x, s), x, t).coeffs == exp_cup(a, x, s + t).coeffs
    assert exp_cup(a, x, Fraction(0)).coeffs == a.coeffs


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_exp_cup_of_unit_on_projective_space(N):
    P = build_ring("P", N)
    s = Fraction(3, 7)
    out = exp_cup(P.unit(), P.basis_class((1,)), s)
    assert out.coeffs == [s ** k / math.factorial(k) for k in range(N)]


def _exp_cup_by_powers(a, x, s):
    """The oracle: e^{s x} cup a as the sum of the powers of x, one full cup
    per power."""
    out = term = a
    for k in range(1, a.ring.dim + 1):
        term = cup(x, term) * (s / k)
        out = out + term
    return out


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([P3, G24, build_ring("G", 6, 3)]), st.data())
def test_exp_cup_matches_the_powers_of_a_mixed_degree_class(ring, data):
    a = ring.zero()
    a.coeffs = data.draw(st.lists(_fractions, min_size=ring.rank, max_size=ring.rank))
    x = ring.zero()
    x.coeffs = [0] + data.draw(st.lists(_fractions, min_size=ring.rank - 1,
                                        max_size=ring.rank - 1))
    s = data.draw(_fractions)
    assert exp_cup(a, x, s).coeffs == _exp_cup_by_powers(a, x, s).coeffs


@pytest.mark.parametrize("kind,N,r", [("P", N, 1) for N in range(2, 8)]
                         + [("G", 5, 2), ("G", 6, 3)])
def test_exp_cup_of_a_degree_one_class_is_the_power_series_bit_for_bit(kind, N, r):
    # sigma_1 and c1 exponentials (asympt, wedgecheck, the bracket form and
    # central_charge) keep every rounding of the power series
    ring = build_ring(kind, N, r)
    rng = random.Random(N * 10 + r)
    draws = (lambda: mpf(rng.uniform(-1, 1)),
             lambda: mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             lambda: rng.uniform(-1, 1))
    for x in (ring.basis_class((1,)), ring.c1()):
        for draw in draws:
            a = rings.CohClass(ring, [draw() for _ in range(ring.rank)])
            for s in (draw(), mpc(0, 1) * mpf(3.25), -2.5):
                assert repr(exp_cup(a, x, s).coeffs) == repr(_exp_cup_by_powers(a, x, s).coeffs)


@pytest.mark.parametrize("N,r", [(8, 3), (8, 4)])
def test_gamma_class_matches_the_powers_of_its_log(monkeypatch, N, r):
    ring = build_ring("G", N, r)
    got = charclasses._gamma_class(ring, charclasses.MP_POINT)
    monkeypatch.setattr(charclasses, "exp_cup", _exp_cup_by_powers)
    want = charclasses._gamma_class(ring, charclasses.MP_POINT)
    assert all(type(c) is mpf for c in got.coeffs)
    scale = max(abs(c) for c in want.coeffs)
    assert max(abs(g - w) for g, w in zip(got.coeffs, want.coeffs)) < mpf("1e-35") * scale


@pytest.mark.parametrize("kind,N,r", [("P", 4, 1), ("G", 5, 2), ("G", 6, 3), ("G", 8, 3)])
def test_todd_class_equals_the_powers_of_its_log(monkeypatch, kind, N, r):
    ring = build_ring(kind, N, r)
    got = charclasses.todd_class(ring)
    monkeypatch.setattr(charclasses, "exp_cup", _exp_cup_by_powers)
    want = charclasses.todd_class(ring)
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.coeffs == want.coeffs


def test_exp_cup_refuses_a_class_with_a_degree_zero_part():
    # e^{s x} is a finite sum only for nilpotent x
    x = G24.basis_class((1,)) + Fraction(1, 3) * G24.unit()
    with pytest.raises(ValueError):
        exp_cup(G24.unit(), x, Fraction(1))


@pytest.mark.parametrize("r,N", [(2, 4), (2, 5), (3, 6), (2, 7), (3, 7), (4, 8)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_sigma_1_exponential_is_the_factor_exponential_on_the_wedge(r, N, data):
    # sigma_1 acts on the wedge as the derivation h on each factor, so
    # e^{s sigma_1} Sat(f_1 ^ ... ^ f_r) = Sat(e^{s h} f_1 ^ ... ^ e^{s h} f_r);
    # charclasses twists the Gamma-basis factors by this law
    ring_G, ring_P = build_ring("G", N, r), build_ring("P", N)
    factors = [rings.CohClass(ring_P, data.draw(st.lists(_fractions, min_size=N, max_size=N)))
               for _ in range(r)]
    s = data.draw(_fractions)
    lhs = exp_cup(satake(factors, ring_G), ring_G.basis_class((1,)), s)
    rhs = satake([exp_cup(f, ring_P.basis_class((1,)), s) for f in factors], ring_G)
    assert lhs.coeffs == rhs.coeffs


def _cup_per_entry(a, b) -> list:
    """The oracle: the former cup, s * ca * cb for every table entry."""
    ring = a.ring
    out = [0] * ring.rank
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in zip(range(ring.fits[i]), b.coeffs):
            if not cb:
                continue
            for k, s in ring.cup_table[(i, j)]:
                out[k] = out[k] + s * ca * cb
    return out


@pytest.mark.parametrize("N,r,lr", [(6, 3, 2), (7, 3, 2), (8, 4, 3)])
def test_cup_is_the_per_entry_product_bit_for_bit(N, r, lr):
    # one product per pair, reused for the entries with coefficient 1
    ring = build_ring("G", N, r)
    assert max(s for entries in ring.cup_table.values() for _, s in entries) == lr
    gam = charclasses.gamma_class(ring)
    for nu in [(1,), (2, 1), (2, 2, 1)]:
        ch, kap = charclasses.ch_schur(nu, ring), charclasses.kapranov_ch(nu, ring)
        for a, b in [(gam, kap), (kap, kap), (ch, ch), (ch, charclasses.ch_schur((2, 1), ring))]:
            assert repr(cup(a, b).coeffs) == repr(_cup_per_entry(a, b))


@pytest.mark.parametrize("kind,N,r", [("G", 6, 3), ("G", 7, 2), ("P", 6, 1)])
def test_exact_cup_over_one_denominator_is_the_fraction_loop(kind, N, r):
    # the Fraction classes the exact layer cups: Chern characters, their
    # duals, Todd, the unit, and the P^{N-1} factors of j_closed_form_P
    ring = build_ring(kind, N, r)
    chs = [charclasses.ch_schur(nu, ring) for nu in ring.basis]
    classes = chs + [charclasses.scale_degrees(chs[-1], -1), charclasses.todd_class(ring),
                     ring.unit()]
    if kind == "P":
        inverses = connection.rising_inverses(ring, 1, Fraction(1))
        classes += [next(inverses) for _ in range(4)]
    for a, b in itertools.product(classes, repeat=2):
        assert repr(cup(a, b).coeffs) == repr(_cup_per_entry(a, b))
