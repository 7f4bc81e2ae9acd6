"""Truncated polynomial kernel and Schur expansion."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from mpmath import mpf

from qgamma.rings import CohClass
from qgamma.symfunc import (poly_mul, schur_poly, schur_expand, ssyt_monomials, perm_sign,
                            vandermonde)


# The helpers below build the tests' polynomial oracles: products over the
# Chern roots, tableau-weight sums and the product form of the Grassmannian
# closed-form Gamma class.

def poly_const(r: int, c):
    return {(0,) * r: c}


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def poly_scale(p, c):
    if c == 0:
        return {}
    return {e: v * c for e, v in p.items()}


def poly_linear(r: int, coeffs, scalar):
    """scalar * (c_1 x_1 + ... + c_r x_r) as a Poly."""
    out = {}
    for i, c in enumerate(coeffs):
        if c != 0:
            e = [0] * r
            e[i] = 1
            out[tuple(e)] = c * scalar
    return out


def poly_series_of(p, r: int, series_coeffs, degree_cap: int):
    """Compose a univariate power series sum_k a_k u^k with u = p (no
    constant term)."""
    if p.get((0,) * r, 0) != 0:
        raise ValueError("composition needs a polynomial without constant term")
    out = {}
    power = poly_const(r, 1)
    for k, a in enumerate(series_coeffs):
        if k > degree_cap:
            break
        if k > 0:
            power = poly_mul(power, p, degree_cap)
            if not power:
                break
        if a != 0:
            out = poly_add(out, poly_scale(power, a))
    return out


def _to_cohclass(ring, poly):
    """The symmetric polynomial poly as a class of the Grassmannian ring,
    through its Schur expansion."""
    out = [mpf(0)] * ring.rank
    for lam, c in schur_expand(poly, ring.r, ring.cols, ring.dim).items():
        out[ring.index[lam]] = c
    return CohClass(ring, out)


def poly_inv(p, r: int, degree_cap: int):
    """Inverse of a power series with constant term 1 (Neumann series); a
    test oracle for the ring arithmetic."""
    one = (0,) * r
    assert p.get(one, 0) == 1, "poly_inv needs constant term 1"
    w = poly_scale(poly_add(p, {one: -1}), -1)  # p = 1 - w
    out = power = poly_const(r, 1)
    for _ in range(degree_cap):
        power = poly_mul(power, w, degree_cap)
        if not power:
            break
        out = poly_add(out, power)
    return out


def poly_var(r: int, i: int, degree_cap: int):
    """The variable x_i as a Poly truncated at degree_cap."""
    if degree_cap < 1:
        return {}
    e = [0] * r
    e[i] = 1
    return {tuple(e): 1}


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


def test_ssyt_count():
    # s_{(2,1)} in 3 variables has 8 monomials with multiplicity
    assert len(ssyt_monomials((2, 1), 3)) == 8
    assert len(ssyt_monomials((1, 1), 2)) == 1


def test_schur_poly_expand_roundtrip():
    for r, cols in [(2, 2), (2, 3), (3, 3)]:
        from qgamma.rings import partitions_in_box
        for lam in partitions_in_box(r, cols):
            p = schur_poly(lam, r)
            out = schur_expand(p, r, cols, sum(lam) + 1)
            assert out == {lam: 1}


def test_schur_expand_littlewood_richardson():
    p = poly_mul(schur_poly((1,), 2), schur_poly((1,), 2), 10)
    out = schur_expand(p, 2, 3, 10)
    assert out == {(2,): 1, (1, 1): 1}


def test_poly_exp_inv():
    x = poly_var(2, 0, 5)
    e = poly_series_of(x, 2, [Fraction(1, math.factorial(k)) for k in range(6)], 5)
    inv = poly_inv(e, 2, 5)
    prod = poly_mul(e, inv, 5)
    assert prod.get((0, 0)) == 1
    assert all(v == 0 for k, v in prod.items() if k != (0, 0))


def poly_mul_by_pairs(p, q, degree_cap: int):
    """p q by the plain double loop, testing the degree of every pair; the
    oracle for the degree-sorted poly_mul."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            if sum(e1) + sum(e2) > degree_cap:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def schur_expand_by_product(p, r: int, box_cols: int, degree_cap: int):
    """The Schur expansion read from the whole product p a_delta; the oracle
    for the lookup in schur_expand."""
    prod = poly_mul_by_pairs(p, vandermonde(r), degree_cap + r * (r - 1) // 2)
    out = {}
    for e, c in prod.items():
        if all(e[i] > e[i + 1] for i in range(r - 1)):
            lam = tuple(e[i] - (r - 1 - i) for i in range(r))
            if lam[0] <= box_cols:
                key = tuple(x for x in lam if x > 0)
                out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v != 0}


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def _polys(draw, r: int):
    exponents = st.tuples(*[st.integers(0, 4)] * r)
    return draw(st.dictionaries(exponents, _fractions, max_size=12))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(0, 12))
def test_poly_mul_matches_the_double_loop(data, r, cap):
    p, q = data.draw(_polys(r)), data.draw(_polys(r))
    assert poly_mul(p, q, cap) == poly_mul_by_pairs(p, q, cap)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(0, 4), st.integers(0, 12))
def test_schur_expand_matches_the_vandermonde_product(data, r, box_cols, cap):
    # parts up to box_cols + 2, so some partitions are wider than the box
    parts = st.lists(st.integers(0, box_cols + 2), min_size=r, max_size=r)
    terms = data.draw(st.lists(st.tuples(parts, _fractions), max_size=4))
    p = {}
    for lam, c in terms:
        shape = tuple(x for x in sorted(lam, reverse=True) if x > 0)
        p = poly_add(p, poly_scale(schur_poly(shape, r), c))
    assert schur_expand(p, r, box_cols, cap) == schur_expand_by_product(p, r, box_cols, cap)
