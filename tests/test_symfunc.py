"""Truncated polynomial kernel and Schur expansion."""

import math
from fractions import Fraction

from qgamma.symfunc import (poly_mul, poly_add, poly_const, poly_scale, poly_series_of,
                            schur_poly, schur_expand, ssyt_monomials, perm_sign)


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
