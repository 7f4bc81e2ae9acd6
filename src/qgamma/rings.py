"""Graded cohomology rings of P^{N-1} and G(r,N) in the Schubert/Schur basis.

P^{N-1} is handled internally as G(1,N), so every basis label is a partition
inside the r x (N-r) box (h^k corresponds to the one-row partition (k)).
Classical products are computed once, exactly, by the Pieri recursion
sigma_lam = h_{lam_1} sigma_{lam-bar} - (the other horizontal strips of size
lam_1 on lam-bar), lam-bar being lam without its first row; partitions
leaving the box are dropped, which is exact in the quotient ring.  The
quantum product by sigma_1, the only one the package needs, is built in
`connection` from this cup table.  The nilpotent exponential e^{s x} cup a
is graded: it cups the degree pieces of x into the degree pieces of the
result, never the whole of x into a whole power.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

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


def transpose_partition(lam) -> tuple:
    """The conjugate partition: its i-th part counts the parts of lam above i."""
    return tuple(sum(p > i for p in lam) for i in range(lam[0] if lam else 0))


def box_complement(lam: tuple, rows: int, cols: int) -> tuple:
    padded = list(lam) + [0] * (rows - len(lam))
    return normalize_partition(tuple(cols - padded[rows - 1 - i] for i in range(rows)))


def compound(a, r: int) -> dict:
    """Every r x r minor of the matrix a (a sequence of rows), as {(rows,
    cols): minor} over increasing index tuples.  A k x k minor is the Laplace
    expansion along its first row of (k-1) x (k-1) minors, so nothing is
    divided and the minors keep the type of the entries (int, Fraction, mpc).
    Level k keeps only the rows that can end an r-subset."""
    minors = {((), ()): 1}
    for k in range(1, r + 1):
        prev, minors = minors, {}
        for rows in itertools.combinations(range(r - k, len(a)), k):
            row = a[rows[0]]
            for cols in itertools.combinations(range(len(row)), k):
                total = 0
                for t, c in enumerate(cols):
                    if row[c]:
                        term = row[c] * prev[rows[1:], cols[:t] + cols[t + 1:]]
                        total = total - term if t % 2 else total + term
                minors[rows, cols] = total
    return minors


def wedge_matrix(a, r: int, parts) -> list:
    """Lambda^r a on the wedges at k = wedge_exponents(nu, r), nu in parts: entry
    (nu, mu) is the minor of a on rows k(nu), columns k(mu), from compound(a, r)."""
    minors, keys = compound(a, r), [wedge_exponents(nu, r)[::-1] for nu in parts]
    return [[minors[i, j] for j in keys] for i in keys]


@dataclass(frozen=True)
class RingSpec:
    kind: str            # "P" or "G"
    r: int
    N: int
    basis: tuple         # partitions, degree-lex order
    dim: int             # complex dimension
    fano_index: int
    index: dict = field(hash=False, compare=False, default=None, repr=False)
    dual: tuple = field(hash=False, compare=False, default=None, repr=False)   # complement indices
    cup_table: dict = field(hash=False, compare=False, default=None, repr=False)
    # fits[i]: the basis prefix sigma_j with deg sigma_i + deg sigma_j <= dim
    fits: tuple = field(hash=False, compare=False, default=None, repr=False)

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
        same_ring(self, other)
        return CohClass(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CohClass") -> "CohClass":
        # a + (-b): mpmath's mpf.__rsub__ rejects a Fraction on the left
        return self + -other

    def __neg__(self) -> "CohClass":
        return CohClass(self.ring, [-a for a in self.coeffs])

    def __rmul__(self, scalar) -> "CohClass":
        return CohClass(self.ring, [scalar * a for a in self.coeffs])

    # class on the left: an mpmath scalar on the left first tries to convert
    # the class, and formats its repr for the error before falling back
    __mul__ = __rmul__

    def __getitem__(self, lam):
        return self.coeffs[self.ring.index[normalize_partition(lam)]]

    def serialize(self) -> dict:
        out = {}
        for lam, c in zip(self.ring.basis, self.coeffs):
            z = complex(c)
            out[self.ring.label(lam)] = [z.real, z.imag]
        return out


def same_ring(a: CohClass, b: CohClass):
    if a.ring is not b.ring and (a.ring.kind, a.ring.r, a.ring.N) != (b.ring.kind, b.ring.r, b.ring.N):
        raise ValueError("ring mismatch")


_RING_CACHE: dict = {}


def build_ring(kind: str, N: int, r: int = 1) -> RingSpec:
    """kind is "P" (then r is forced to 1, target P^{N-1}) or "G"."""
    if kind == "P":
        r = 1
        if N < 2:
            raise ValueError(f"P^{{N-1}} needs N >= 2, got N = {N}")
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

    dual = tuple(index[box_complement(lam, r, cols)] for lam in basis)
    cup_table = _pieri_cup_table(basis, index, r, cols)
    degs = [sum(lam) for lam in basis]
    fits = tuple(bisect.bisect_right(degs, dim - d) for d in degs)
    ring = RingSpec(kind=kind, r=r, N=N, basis=basis, dim=dim, fano_index=N,
                    index=index, dual=dual, cup_table=cup_table, fits=fits)
    _RING_CACHE[key] = ring
    return ring


def _horizontal_strips(nu: tuple, rows: int, cols: int) -> dict:
    """{k: partitions kappa in the rows x cols box with kappa/nu a horizontal
    strip of size k}; h_k sigma_nu is the sum of those sigma_kappa."""
    padded = list(nu) + [0] * (rows - len(nu))
    caps = [cols] + padded[:-1]   # kappa_i <= nu_{i-1}
    out: dict = {}
    for adds in itertools.product(*(range(c - p + 1) for c, p in zip(caps, padded))):
        kappa = normalize_partition(p + a for p, a in zip(padded, adds))
        out.setdefault(sum(adds), []).append(kappa)
    return out


def _pieri_cup_table(basis, index, r: int, cols: int) -> dict:
    """sigma_lam cup sigma_mu for every pair of basis partitions, from
    sigma_lam = h_{lam_1} sigma_{lam-bar} - sum of the other sigma_kappa.
    Each such kappa has the degree of lam and a longer first row, so visiting
    lam by (degree, -lam_1) finds every row the recursion needs built."""
    dim = r * cols
    strips = [{k: [index[kappa] for kappa in kappas]
               for k, kappas in _horizontal_strips(nu, r, cols).items()} for nu in basis]
    prods = {}   # lam -> [{nu index: coefficient} for each mu]
    for lam in sorted(basis, key=lambda p: (sum(p), -p[0] if p else 0)):
        if not lam:
            prods[lam] = [{j: 1} for j in range(len(basis))]
            continue
        k, below = lam[0], prods[lam[1:]]
        others = [prods[basis[m]] for m in strips[index[lam[1:]]][k] if basis[m] != lam]
        row = []
        for j, mu in enumerate(basis):
            out: dict = {}
            if sum(lam) + sum(mu) <= dim:
                for m, c in below[j].items():
                    for n in strips[m].get(k, ()):
                        out[n] = out.get(n, 0) + c
                for other in others:
                    for n, c in other[j].items():
                        out[n] -= c
            row.append({n: c for n, c in out.items() if c})
        prods[lam] = row
    return {(i, j): tuple(sorted(prods[lam][j].items(), key=lambda nc: basis[nc[0]]))
            for i, lam in enumerate(basis) for j in range(len(basis))}


class _Unreached(int):
    """The 0 an exact cup starts each coefficient from: a sum with it is a
    plain int, so after the loop an entry is still it only if no product
    reached it."""


_UNREACHED = _Unreached()


def _over_one_denominator(coeffs) -> tuple:
    """(integers n_i, d) with coeffs[i] = n_i / d, d the lcm of the
    denominators of ints and Fractions."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def cup(a: CohClass, b: CohClass) -> CohClass:
    """a cup b by the cup table.  When both classes hold only ints and
    Fractions and at least one Fraction, the products run on integers over
    one denominator per class, divided once per output entry: every entry a
    product reached is a Fraction, and the others stay int 0, as in the
    loop on the classes' own scalars."""
    same_ring(a, b)
    ring = a.ring
    types = set(map(type, a.coeffs))
    types.update(map(type, b.coeffs))
    if Fraction in types and types <= {int, Fraction}:
        (ac, da), (bc, db) = _over_one_denominator(a.coeffs), _over_one_denominator(b.coeffs)
        d = da * db
        return CohClass(ring, [0 if n is _UNREACHED else Fraction(n, d)
                               for n in _cup_loop(ring, ac, bc, _UNREACHED)])
    return CohClass(ring, _cup_loop(ring, a.coeffs, b.coeffs, 0))


def _cup_loop(ring: RingSpec, ac, bc, zero) -> list:
    out = [zero] * ring.rank
    # `not x` rather than x == 0: mpmath converts the 0 on every comparison
    for i, ca in enumerate(ac):
        if not ca:
            continue
        for j, cb in zip(range(ring.fits[i]), bc):
            if not cb:
                continue
            p = ca * cb   # 1 * ca is ca exactly, so s == 1 keeps the bits
            for k, s in ring.cup_table[(i, j)]:
                out[k] = out[k] + (p if s == 1 else s * ca * cb)
    return out


def exp_cup(a: CohClass, x: CohClass, s) -> CohClass:
    """e^{s x} cup a for a class x of positive degree (nilpotent, finite sum),
    by degrees.  With x_j the degree-j part of x, each nonzero degree-m part
    a_m of a starts G_0 = a_m, G_d = (s/d) sum_{j=1..d} j x_j cup G_{d-j},
    and G_d is the degree-(m+d) part of e^{s x} a_m (d G_d is the degree
    derivation of the series, s (sum_j j x_j) times it).  Each pair of basis
    classes is cupped at most once per m, however many degrees x spans; the
    coefficients take the type of s."""
    same_ring(a, x)
    ring = a.ring
    if x.coeffs[0] != 0:
        raise ValueError("exp_cup needs a class x without degree-0 part")
    degs = ring.degrees()
    blocks = [range(bisect.bisect_left(degs, d), bisect.bisect_right(degs, d))
              for d in range(ring.dim + 1)]
    jx = [[(i, j * x.coeffs[i]) for i in block if x.coeffs[i]] for j, block in enumerate(blocks)]
    out = [s ** 0 * c for c in a.coeffs]
    # descending m adds the pieces into each coefficient in the order of the
    # powers of x, so a degree-1 x gives the power series bit for bit
    for m in reversed(range(ring.dim + 1)):
        pieces = [[a.coeffs[i] for i in blocks[m]]]
        if not any(pieces[0]):
            continue
        for d in range(1, ring.dim - m + 1):
            lo = blocks[m + d].start
            acc = [0] * len(blocks[m + d])
            for j in range(1, d + 1):
                for i, cx in jx[j]:
                    for jj, cg in enumerate(pieces[d - j], blocks[m + d - j].start):
                        if not cg:
                            continue
                        for k, sk in ring.cup_table[(i, jj)]:
                            acc[k - lo] = acc[k - lo] + sk * cx * cg
            sd = s / d
            piece = [sd * c for c in acc]
            pieces.append(piece)
            for k, c in enumerate(piece, lo):
                out[k] = out[k] + c
    return CohClass(ring, out)


def poincare_pair(a: CohClass, b: CohClass):
    """int a b = sum_i a_i b_{dual[i]}: the pairing matches each Schubert
    class with its box complement."""
    same_ring(a, b)
    total = 0
    for ca, j in zip(a.coeffs, a.ring.dual):
        cb = b.coeffs[j]
        if ca and cb:
            total = total + ca * cb
    return total


def wedge_exponents(nu, r: int) -> tuple:
    """The quantum Satake dictionary sigma_nu <-> h^{k_1} ^ ... ^ h^{k_r}:
    k_i = nu_i + r - i, strictly decreasing; inside the r x (N - r) box the
    k are exactly the r-subsets of range(N)."""
    padded = tuple(nu) + (0,) * (r - len(nu))
    return tuple(p + r - 1 - i for i, p in enumerate(padded))


def satake(factors, ring_G: RingSpec) -> CohClass:
    """Multilinear alternating extension of h^{k_1} ^ ... ^ h^{k_r} ->
    sigma_nu, k = wedge_exponents(nu, r): the coefficient of sigma_nu is the
    r x r minor det[f_i(h^{k_j})], read from the compound of the factors'
    coefficient rows."""
    r = ring_G.r
    if len(factors) != r:
        raise ValueError(f"need exactly {r} wedge factors")
    if factors[0].ring.N != ring_G.N or factors[0].ring.r != 1:
        raise ValueError("wedge factors must live on P^{N-1} with matching N")
    # factors and exponents both reversed: each minor is det[f_i(h^{k_j})]
    minors = compound([f.coeffs for f in reversed(factors)], r)
    top = tuple(range(r))
    return CohClass(ring_G, [minors[top, wedge_exponents(nu, r)[::-1]] for nu in ring_G.basis])
