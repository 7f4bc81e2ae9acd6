"""Graded cohomology rings of P^{N-1} and G(r,N) in the Schubert/Schur basis.

P^{N-1} is handled internally as G(1,N), so every basis label is a partition
inside the r x (N-r) box (h^k corresponds to the one-row partition (k)).
Classical products are computed once, exactly, by multiplying Schur
polynomials and re-expanding in the Schur basis; partitions leaving the box
are dropped, which is exact in the quotient ring.  The quantum correction is
Bertram's quantum Pieri rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from . import symfunc

DESK_SCALE_CAP = 300


def normalize_partition(parts) -> tuple:
    parts = tuple(int(p) for p in parts if p != 0)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return parts


def partitions_in_box(rows: int, cols: int):
    """All partitions with at most `rows` parts, each at most `cols`."""
    def gen(maxpart, rows_left):
        yield ()
        if rows_left == 0:
            return
        for first in range(1, maxpart + 1):
            for rest in gen(first, rows_left - 1):
                yield (first,) + rest
    return sorted(gen(cols, rows), key=lambda p: (sum(p), p))


def box_complement(lam: tuple, rows: int, cols: int) -> tuple:
    padded = list(lam) + [0] * (rows - len(lam))
    return normalize_partition(tuple(cols - padded[rows - 1 - i] for i in range(rows)))


def det_small(m):
    """Determinant by permutation expansion; fine for r <= 4, any scalar type."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = symfunc.perm_sign(perm)
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


@dataclass(frozen=True)
class RingSpec:
    kind: str            # "P" or "G"
    r: int
    N: int
    basis: tuple         # partitions, degree-lex order
    dim: int             # complex dimension
    fano_index: int
    index: dict = field(hash=False, compare=False, default=None)
    pairing_matrix: tuple = field(hash=False, compare=False, default=None)
    cup_table: dict = field(hash=False, compare=False, default=None)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def cols(self) -> int:
        return self.N - self.r

    def label(self, lam: tuple) -> str:
        if self.kind == "P":
            return f"h^{sum(lam)}"
        return "[" + ",".join(str(p) for p in lam) + "]"

    def degree(self, lam: tuple) -> int:
        return sum(lam)

    def degrees(self):
        return [sum(lam) for lam in self.basis]

    def zero(self) -> "CohClass":
        return CohClass(self, [0] * self.rank)

    def unit(self) -> "CohClass":
        c = [0] * self.rank
        c[0] = 1
        return CohClass(self, c)

    def basis_class(self, lam) -> "CohClass":
        lam = normalize_partition(lam)
        c = [0] * self.rank
        c[self.index[lam]] = 1
        return CohClass(self, c)

    def c1(self) -> "CohClass":
        return self.N * self.basis_class((1,))

    def top(self) -> tuple:
        return self.basis[-1]


@dataclass
class CohClass:
    ring: RingSpec
    coeffs: list

    def __post_init__(self):
        if len(self.coeffs) != self.ring.rank:
            raise ValueError("coefficient vector length mismatch")

    def __add__(self, other: "CohClass") -> "CohClass":
        _same_ring(self, other)
        return CohClass(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CohClass") -> "CohClass":
        _same_ring(self, other)
        return CohClass(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CohClass":
        return CohClass(self.ring, [-a for a in self.coeffs])

    def __rmul__(self, scalar) -> "CohClass":
        return CohClass(self.ring, [scalar * a for a in self.coeffs])

    def __getitem__(self, lam):
        return self.coeffs[self.ring.index[normalize_partition(lam)]]

    def serialize(self) -> dict:
        out = {}
        for lam, c in zip(self.ring.basis, self.coeffs):
            z = complex(c)
            out[self.ring.label(lam)] = [z.real, z.imag]
        return out


def _same_ring(a: CohClass, b: CohClass):
    if a.ring is not b.ring and (a.ring.kind, a.ring.r, a.ring.N) != (b.ring.kind, b.ring.r, b.ring.N):
        raise ValueError("ring mismatch")


_RING_CACHE: dict = {}


def build_ring(kind: str, N: int, r: int = 1) -> RingSpec:
    """kind is "P" (then r is forced to 1, target P^{N-1}) or "G"."""
    if kind == "P":
        r = 1
        if N < 2:
            raise ValueError("ProjSpace needs N >= 2")
    elif kind == "G":
        if not (1 <= r <= N - 1):
            raise ValueError(f"invalid Grassmannian ({r},{N})")
    else:
        raise ValueError(f"unknown ring kind {kind!r}")
    key = (kind, r, N)
    if key in _RING_CACHE:
        return _RING_CACHE[key]
    if comb(N, r) > DESK_SCALE_CAP:
        raise ValueError(f"binom({N},{r}) exceeds the desk-scale cap {DESK_SCALE_CAP}")

    cols = N - r
    basis = tuple(partitions_in_box(r, cols))
    index = {lam: i for i, lam in enumerate(basis)}
    dim = r * cols

    pairing = tuple(
        tuple(1 if mu == box_complement(lam, r, cols) else 0 for mu in basis)
        for lam in basis
    )

    cup_table = {}
    schur_cache = {lam: symfunc.schur_poly(lam, r) for lam in basis}
    for i, lam in enumerate(basis):
        for j, mu in enumerate(basis):
            if j < i:
                cup_table[(i, j)] = cup_table[(j, i)]
                continue
            if sum(lam) + sum(mu) > dim:
                cup_table[(i, j)] = ()
                continue
            prod = symfunc.poly_mul(schur_cache[lam], schur_cache[mu], dim)
            expansion = symfunc.schur_expand(prod, r, cols, dim)
            cup_table[(i, j)] = tuple((index[nu], c) for nu, c in sorted(expansion.items()))

    ring = RingSpec(kind=kind, r=r, N=N, basis=basis, dim=dim, fano_index=N,
                    index=index, pairing_matrix=pairing, cup_table=cup_table)
    _RING_CACHE[key] = ring
    return ring


def cup(a: CohClass, b: CohClass) -> CohClass:
    _same_ring(a, b)
    ring = a.ring
    out = [0] * ring.rank
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            for k, s in ring.cup_table[(i, j)]:
                out[k] = out[k] + s * ca * cb
    return CohClass(ring, out)


def poincare_pair(a: CohClass, b: CohClass):
    _same_ring(a, b)
    ring = a.ring
    total = 0
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb == 0 or ring.pairing_matrix[i][j] == 0:
                continue
            total = total + ca * cb
    return total


def quantum_pieri(k: int, lam, ring: RingSpec) -> dict:
    """sigma_k * sigma_lam as {q_power: CohClass} (q^0 classical, q^1 Bertram)."""
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


def satake(factors, ring_G: RingSpec) -> CohClass:
    """Multilinear alternating extension of h^{b_1} ^ ... ^ h^{b_r} ->
    (+/-) sigma_{lambda}, lambda_i = b_i - (r - i) for sorted exponents."""
    r = ring_G.r
    if len(factors) != r:
        raise ValueError(f"need exactly {r} wedge factors")
    ring_P = factors[0].ring
    if ring_P.N != ring_G.N or ring_P.r != 1:
        raise ValueError("wedge factors must live on P^{N-1} with matching N")
    out = ring_G.zero().coeffs
    npow = ring_P.rank
    for expts in itertools.product(range(npow), repeat=r):
        if len(set(expts)) < r:
            continue
        coeff = 1
        for f, e in zip(factors, expts):
            coeff = coeff * f.coeffs[e]
            if coeff == 0:
                break
        if coeff == 0:
            continue
        order = sorted(range(r), key=lambda i: -expts[i])
        sign = symfunc.perm_sign(tuple(order))
        b = [expts[i] for i in order]
        lam = normalize_partition(tuple(b[i] - (r - 1 - i) for i in range(r)))
        out[ring_G.index[lam]] = out[ring_G.index[lam]] + sign * coeff
    return CohClass(ring_G, out)


def wedge_pairing(alpha, beta):
    """Poincare pairing on r-wedges over P: det((alpha_i, beta_j)_P)."""
    if len(alpha) != len(beta):
        raise ValueError("wedge factor count mismatch")
    m = [[poincare_pair(ai, bj) for bj in beta] for ai in alpha]
    return det_small(m)
