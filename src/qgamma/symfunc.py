"""Truncated polynomial arithmetic in r variables and Schur-basis expansion.

Polynomials are dicts mapping exponent tuples (e_1, ..., e_r) to scalar
coefficients, truncated at a fixed total degree.  The scalar type is left
generic: exact work uses int/Fraction, numeric work uses complex or mpmath
numbers.  A product sorts one factor's terms by degree, so only the pairs
that fit under the cap are visited.  Symmetric polynomials are expanded in
the Schur basis by the bialternant: the coefficient of s_lam is that of the
staircase monomial x^(lam + delta) in p times the Vandermonde, read from r!
coefficients of p.  No route of the package multiplies polynomials in r
variables any more; this module serves the tests' oracles (Schur products,
products over the Chern roots, tableau weights, the product form of the
Grassmannian closed-form Gamma class) and the benchmark's probe, which
replays the Schur products of the cup table.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from operator import add, sub

Expt = tuple[int, ...]
Poly = dict[Expt, object]


def poly_mul(p: Poly, q: Poly, degree_cap: int) -> Poly:
    """p q truncated at degree_cap; q's terms are sorted by degree once, so
    each term of p visits only the terms of q that fit under the cap."""
    terms = sorted(q.items(), key=lambda t: sum(t[0]))
    degrees = [sum(e) for e, _ in terms]
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in itertools.islice(terms, bisect_right(degrees, degree_cap - sum(e1))):
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


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
    ring of a Grassmannian with box_cols = N - r columns).  The coefficient
    of s_lam is that of x^(lam + delta) in p times the Vandermonde, i.e.
    sum over sigma of sgn(sigma) p[lam + delta - sigma(delta)]."""
    alternant = vandermonde(r).items()
    out: dict[tuple, object] = {}
    # lam + delta runs over the strictly decreasing exponents below box_cols + r
    for e in itertools.combinations(range(box_cols + r - 1, -1, -1), r):
        lam = tuple(x - (r - 1 - i) for i, x in enumerate(e))
        if sum(lam) > degree_cap:
            continue
        c = sum(s * p.get(tuple(map(sub, e, d)), 0) for d, s in alternant)
        if c != 0:
            out[tuple(x for x in lam if x > 0)] = c
    return out


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
