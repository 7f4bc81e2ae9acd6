"""Truncated polynomial arithmetic in r variables and Schur-basis expansion.

Polynomials are dicts mapping exponent tuples (e_1, ..., e_r) to scalar
coefficients, truncated at a fixed total degree.  The scalar type is left
generic: exact work uses int/Fraction, numeric work uses complex or mpmath
numbers.  Symmetric polynomials are expanded in the Schur basis through the
bialternant trick: multiply by the Vandermonde determinant and read off the
coefficients of the strictly-decreasing staircase monomials.
"""

from __future__ import annotations

import itertools

Expt = tuple[int, ...]
Poly = dict[Expt, object]


def poly_const(r: int, c) -> Poly:
    return {(0,) * r: c}


def poly_var(r: int, i: int, degree_cap: int) -> Poly:
    if degree_cap < 1:
        return {}
    e = [0] * r
    e[i] = 1
    return {tuple(e): 1}


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def poly_scale(p: Poly, c) -> Poly:
    if c == 0:
        return {}
    return {e: v * c for e, v in p.items()}


def poly_mul(p: Poly, q: Poly, degree_cap: int) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        d1 = sum(e1)
        for e2, c2 in q.items():
            if d1 + sum(e2) > degree_cap:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def poly_linear(r: int, coeffs, scalar=1) -> Poly:
    """scalar * (c_1 x_1 + ... + c_r x_r) as a Poly."""
    out: Poly = {}
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        e = [0] * r
        e[i] = 1
        out[tuple(e)] = out.get(tuple(e), 0) + c * scalar
    return {e: c for e, c in out.items() if c != 0}


def poly_exp(p: Poly, r: int, degree_cap: int) -> Poly:
    """exp(p) truncated at degree_cap; p must have no constant term.

    Term k is built as term_{k-1} * p / k, which stays exact for Fraction
    scalars and loses nothing for mpmath scalars.
    """
    if p.get((0,) * r, 0) != 0:
        raise ValueError("poly_exp needs a polynomial without constant term")
    out = poly_const(r, 1)
    term = poly_const(r, 1)
    for k in range(1, degree_cap + 1):
        term = poly_mul(term, p, degree_cap)
        if not term:
            break
        term = {e: c / k for e, c in term.items()}
        out = poly_add(out, term)
    return out


def poly_inv(p: Poly, r: int, degree_cap: int) -> Poly:
    """Inverse of a power series with constant term 1 (Neumann series)."""
    one = (0,) * r
    if p.get(one, 0) != 1:
        raise ValueError("poly_inv needs constant term 1")
    w = poly_scale(poly_add(p, {one: -1}), -1)  # p = 1 - w
    out = poly_const(r, 1)
    power = poly_const(r, 1)
    for _ in range(degree_cap):
        power = poly_mul(power, w, degree_cap)
        if not power:
            break
        out = poly_add(out, power)
    return out


def poly_series_of(p: Poly, r: int, series_coeffs, degree_cap: int) -> Poly:
    """Compose a univariate power series sum_k a_k u^k with u = p (no
    constant term)."""
    if p.get((0,) * r, 0) != 0:
        raise ValueError("composition needs a polynomial without constant term")
    out: Poly = {}
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


def vandermonde(r: int) -> Poly:
    """det(x_i^{r-j}) as an alternating sum over permutations."""
    delta = tuple(range(r - 1, -1, -1))
    out: Poly = {}
    for perm in itertools.permutations(range(r)):
        sign = perm_sign(perm)
        e = tuple(delta[perm[i]] for i in range(r))
        out[e] = out.get(e, 0) + sign
    return out


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def schur_expand(p: Poly, r: int, box_cols: int, degree_cap: int) -> dict[tuple, object]:
    """Expand a symmetric polynomial in the Schur basis; partitions with a
    first part exceeding box_cols are dropped (they vanish in the quotient
    ring of a Grassmannian with box_cols = N - r columns)."""
    if not p:
        return {}
    prod = poly_mul(p, vandermonde(r), degree_cap + r * (r - 1) // 2)
    out: dict[tuple, object] = {}
    for e, c in prod.items():
        if all(e[i] > e[i + 1] for i in range(r - 1)):
            lam = tuple(e[i] - (r - 1 - i) for i in range(r))
            if lam[0] <= box_cols:
                lam_norm = tuple(x for x in lam if x > 0)
                out[lam_norm] = out.get(lam_norm, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def ssyt_monomials(shape: tuple, r: int) -> list[Expt]:
    """Weight monomials of all semistandard tableaux of the given shape with
    entries in 1..r; the sum of x^w over these is the Schur polynomial."""
    shape = tuple(shape)
    if len(shape) > r:
        return []
    if not shape:
        return [(0,) * r]
    cols = shape[0]
    col_heights = [sum(1 for part in shape if part > j) for j in range(cols)]
    results: list[Expt] = []

    # fill column by column (columns strictly increase top to bottom; rows
    # weakly increase left to right)
    def fill(col: int, prev_cols: list[list[int]], weight: list[int]):
        if col == cols:
            results.append(tuple(weight))
            return
        height = col_heights[col]
        prev = prev_cols[-1] if prev_cols else None

        def fill_col(row: int, current: list[int]):
            if row == height:
                for w in current:
                    weight[w - 1] += 1
                fill(col + 1, prev_cols + [current], weight)
                for w in current:
                    weight[w - 1] -= 1
                return
            lo = current[-1] + 1 if current else 1
            if prev is not None:
                lo = max(lo, prev[row])
            for v in range(lo, r + 1):
                fill_col(row + 1, current + [v])

        fill_col(0, [])

    fill(0, [], [0] * r)
    return results


def schur_poly(shape: tuple, r: int) -> Poly:
    out: Poly = {}
    for w in ssyt_monomials(shape, r):
        out[w] = out.get(w, 0) + 1
    return out
