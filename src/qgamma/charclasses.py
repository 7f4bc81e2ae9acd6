"""Characteristic-class calculus: Gamma classes, Chern characters, Todd
classes, the non-symmetric pairing [.,.), HRR Euler pairings, and the
zeta-regularized product.

Bundles are described by K-theoretic root data: a list of (linear form in
x_1..x_r, integer multiplicity).  The Gamma class is built inside the ring,
as the exponential of a combination of power sums of the Chern roots, each
an alternating sum of hook classes.  Chern characters, Todd classes and the
Grassmannian closed form of the Gamma class are assembled as exact truncated
polynomials with mpmath scalars and re-expanded in the Schur basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from mpmath import mp, mpc, mpf, gamma as mp_gamma, bernoulli, exp as mp_exp, sqrt as mp_sqrt, power as mp_power

from . import symfunc
from .constants import log_gamma_coeffs
from .rings import RingSpec, CohClass, build_ring, cup, exp_cup, poincare_pair

Root = tuple  # exponent-coefficient vector of a linear form in x_1..x_r


@dataclass(frozen=True)
class BundleClass:
    ring: RingSpec
    roots: tuple          # ((coeff_vector, multiplicity), ...)
    name: str = ""

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.roots)

    def dual(self) -> "BundleClass":
        return BundleClass(self.ring,
                           tuple((tuple(-c for c in v), m) for v, m in self.roots),
                           name=self.name + "^dual")


def trivial_bundle(ring: RingSpec) -> BundleClass:
    return BundleClass(ring, (((0,) * ring.r, 1),), name="O")


def line_on_P(ring: RingSpec, k: int) -> BundleClass:
    if ring.r != 1:
        raise ValueError("line_on_P needs a projective-space ring")
    return BundleClass(ring, (((k,), 1),), name=f"O({k})")


def tangent_bundle(ring: RingSpec) -> BundleClass:
    r = ring.r
    if r == 1:
        roots = [((1,), ring.N), ((0,), -1)]
    else:
        # TG = Hom(V,Q); virtually Hom(V, C^N) - Hom(V, V)
        roots = []
        for i in range(r):
            e = [0] * r
            e[i] = 1
            roots.append((tuple(e), ring.N))
        for i in range(r):
            for j in range(r):
                e = [0] * r
                e[i] += 1
                e[j] -= 1
                roots.append((tuple(e), -1))
    return BundleClass(ring, tuple(roots), name="T")


def kapranov_schur(ring: RingSpec, nu) -> BundleClass:
    """S^nu V* on G(r,N): K-theoretic roots are the SSYT weights of nu."""
    nu = tuple(p for p in nu if p)
    if len(nu) > ring.r or (nu and nu[0] > ring.cols):
        raise ValueError(f"{nu} outside the {ring.r}x{ring.cols} box")
    weights = symfunc.ssyt_monomials(nu, ring.r)
    roots: dict = {}
    for w in weights:
        roots[w] = roots.get(w, 0) + 1
    return BundleClass(ring, tuple(sorted(roots.items())),
                       name=f"S^{list(nu)}V*")


def _to_cohclass(ring: RingSpec, poly) -> CohClass:
    expansion = symfunc.schur_expand(poly, ring.r, ring.cols, ring.dim)
    out = [mpf(0)] * ring.rank
    for lam, c in expansion.items():
        out[ring.index[lam]] = c
    return CohClass(ring, out)


def _exp_sum(ring: RingSpec, roots, scale) -> symfunc.Poly:
    """sum over roots of mult * exp(scale * root), as a truncated Poly."""
    r, cap = ring.r, ring.dim
    out: symfunc.Poly = {}
    for v, mult in roots:
        lin = symfunc.poly_linear(r, v, scale)
        out = symfunc.poly_add(out, symfunc.poly_scale(symfunc.poly_exp(lin, r, cap), mult))
    return out


def ch_classical(b: BundleClass) -> CohClass:
    return _to_cohclass(b.ring, _exp_sum(b.ring, b.roots, mpf(1)))


def ch_modified(b: BundleClass) -> CohClass:
    """Ch(V) = sum e^{2 pi i delta_j}; equals (2 pi i)^p ch_p componentwise."""
    return _to_cohclass(b.ring, _exp_sum(b.ring, b.roots, 2j * mp.pi))


def _todd_poly(ring: RingSpec, roots, scale) -> symfunc.Poly:
    """prod over roots of (u / (1 - e^{-u}))^mult at u = scale * root."""
    r, cap = ring.r, ring.dim
    # (1 - e^{-u}) / u = sum_k (-u)^k / (k+1)!
    d_coeffs = [mpf((-1) ** k) / factorial(k + 1) for k in range(cap + 1)]
    out = symfunc.poly_const(r, mpf(1))
    for v, mult in roots:
        if all(c == 0 for c in v):
            continue
        lin = symfunc.poly_linear(r, v, scale)
        d = symfunc.poly_series_of(lin, r, d_coeffs, cap)
        factor = symfunc.poly_inv(d, r, cap) if mult > 0 else d
        for _ in range(abs(mult)):
            out = symfunc.poly_mul(out, factor, cap)
    return out


def todd_classical(b: BundleClass) -> CohClass:
    return _to_cohclass(b.ring, _todd_poly(b.ring, b.roots, mpf(1)))


_CLASS_CACHE: dict = {}


def _cached(name: str, build, ring: RingSpec, *args) -> CohClass:
    """build(ring, *args), computed once per (name, ring, args, working
    precision) and kept with tuple coefficients, so the shared value cannot
    be changed in place."""
    key = (name, ring.kind, ring.r, ring.N, *args, mp.prec)
    out = _CLASS_CACHE.get(key)
    if out is None:
        out = _CLASS_CACHE[key] = CohClass(ring, tuple(build(ring, *args).coeffs))
    return out


def gamma_class(ring: RingSpec) -> CohClass:
    """Gamma class exp(-C_eu c_1 + sum_{k>=2} (-1)^k (k-1)! zeta(k) ch_k(TF)),
    i.e. prod Gamma(1 + delta) over the (virtual) roots of TF."""
    return _cached("gamma_class", _gamma_class, ring)


def _power_sum(ring: RingSpec, k: int) -> CohClass:
    """p_k = sum_i x_i^k over the Chern roots of V*: the alternating sum of
    the hooks (k-b, 1^b) that fit in the box, and p_0 = r."""
    if k == 0:
        return ring.r * ring.unit()
    out = ring.zero()
    for b in range(min(k, ring.r)):
        if k - b <= ring.cols:
            out = out + (-1) ** b * ring.basis_class((k - b,) + (1,) * b)
    return out


def _gamma_class(ring: RingSpec) -> CohClass:
    """exp of sum_k lg_k sum_{roots} root^k in the ring.  TG = Hom(V, C^N) -
    Hom(V, V), so sum_{roots} root^k = N p_k - sum_a C(k,a) (-1)^{k-a} p_a
    p_{k-a}, an integer class."""
    cap = ring.dim
    lg = log_gamma_coeffs(cap)
    p = [_power_sum(ring, k) for k in range(cap + 1)]
    log_gamma = ring.zero()
    for k in range(1, cap + 1):
        roots_k = ring.N * p[k]
        for a in range(k + 1):
            roots_k = roots_k - comb(k, a) * (-1) ** (k - a) * cup(p[a], p[k - a])
        log_gamma = log_gamma + roots_k * lg[k]
    # an mpf scalar: exp_cup divides it by k, and an int would give floats
    return exp_cup(ring.unit(), log_gamma, mpf(1))


def gamma_G_closed_form(r: int, N: int) -> CohClass:
    """(2 pi i)^{-C(r,2)} e^{-(r-1) pi i sigma_1}
    prod_{i<j} (e^{2 pi i x_i} - e^{2 pi i x_j})/(x_i - x_j)
    prod_i Gamma(1 + x_i)^N, reduced to the Schur basis.  An independent
    route to gamma_class on G(r,N); the two share no cache entry."""
    return _cached("gamma_G_closed_form", _gamma_G_closed_form, build_ring("G", N, r))


def _gamma_G_closed_form(ring: RingSpec) -> CohClass:
    r, N, cap = ring.r, ring.N, ring.dim
    two_pi_i = 2j * mp.pi
    # (e^{u} - 1)/u = sum u^k/(k+1)! with u = 2 pi i (x_i - x_j)
    s_coeffs = [mpf(1) / factorial(k + 1) for k in range(cap + 1)]
    total = symfunc.poly_const(r, mpc(1))
    for i in range(r):
        for j in range(i + 1, r):
            v = [0] * r
            v[i], v[j] = 1, -1
            u = symfunc.poly_linear(r, v, two_pi_i)
            ratio = symfunc.poly_series_of(u, r, s_coeffs, cap)
            ej = [0] * r
            ej[j] = 1
            pref = symfunc.poly_exp(symfunc.poly_linear(r, ej, two_pi_i), r, cap)
            factor = symfunc.poly_scale(symfunc.poly_mul(ratio, pref, cap), two_pi_i)
            total = symfunc.poly_mul(total, factor, cap)
    lg = log_gamma_coeffs(cap)
    gam_sum: symfunc.Poly = {}
    for i in range(r):
        e = [0] * r
        e[i] = 1
        gam_sum = symfunc.poly_add(gam_sum, symfunc.poly_series_of(
            symfunc.poly_linear(r, e, mpf(1)), r, lg, cap))
    total = symfunc.poly_mul(total, symfunc.poly_exp(
        symfunc.poly_scale(gam_sum, N), r, cap), cap)
    total = symfunc.poly_mul(total, symfunc.poly_exp(
        symfunc.poly_linear(r, [1] * r, -(r - 1) * 1j * mp.pi), r, cap), cap)
    prefactor = mp_power(two_pi_i, -(r * (r - 1) // 2))
    return _to_cohclass(ring, symfunc.poly_scale(total, prefactor))


def kapranov_ch(nu, ring: RingSpec) -> CohClass:
    """Ch(S^nu V*) = s_nu(e^{2 pi i x_1}, ..., e^{2 pi i x_r})."""
    return _cached("kapranov_ch", _kapranov_ch, ring, tuple(nu))


def _kapranov_ch(ring: RingSpec, nu) -> CohClass:
    return ch_modified(kapranov_schur(ring, nu))


def exp_mu(a: CohClass, scalar) -> CohClass:
    """exp(scalar * mu): multiply degree-p part by exp(scalar*(p - dim/2))."""
    half = mpf(a.ring.dim) / 2
    return CohClass(a.ring, [mp_exp(scalar * (sum(lam) - half)) * c if c != 0 else mpf(0)
                             for lam, c in zip(a.ring.basis, a.coeffs)])


def bracket_gram(vectors, right=None) -> list:
    """Matrix of [a, b) = (2 pi)^{-dim} (e^{pi i rho} e^{pi i mu} a, b) for a
    in vectors and b in right (default: vectors), as nested lists of mpc.

    Each entry is also evaluated as (2 pi)^{-dim} (e^{pi i mu} e^{-pi i rho}
    a, b); the two must agree (operator identity from [mu, rho] = rho).  Both
    left images of each a are built once per row."""
    right = vectors if right is None else right
    ring = vectors[0].ring
    scale = mp_power(2 * mp.pi, -ring.dim)
    c1 = ring.c1()
    pi_i = 1j * mp.pi
    gram = []
    for a in vectors:
        l1 = exp_cup(exp_mu(a, pi_i), c1, pi_i)
        l2 = exp_mu(exp_cup(a, c1, -pi_i), pi_i)
        row = []
        for b in right:
            v1 = scale * poincare_pair(l1, b)
            v2 = scale * poincare_pair(l2, b)
            if abs(v1 - v2) > mpf("1e-15") * (1 + abs(v1)):
                raise ArithmeticError(f"bracket pairing forms disagree: {v1} vs {v2}")
            row.append(v1)
        gram.append(row)
    return gram


def bracket_pairing(a: CohClass, b: CohClass):
    """[a, b), the 1x1 case of bracket_gram."""
    return bracket_gram([a], [b])[0][0]


def euler_pairing_hrr(e1: BundleClass, e2: BundleClass):
    """chi(E1, E2) = int ch(E1^dual) ch(E2) td(TF); returns (raw, rounded)."""
    ring = e1.ring
    integrand = cup(cup(ch_classical(e1.dual()), ch_classical(e2)),
                    todd_classical(tangent_bundle(ring)))
    raw = integrand.coeffs[ring.index[ring.top()]]
    rounded = int(mp.nint(raw.real if isinstance(raw, mpc) else raw))
    if abs(raw - rounded) > 1e-6:
        raise ArithmeticError(f"Euler pairing {raw} not near an integer")
    return raw, rounded


# --- Appendix-A zeta regularization -------------------------------------

def hurwitz_zeta_em(s, a, M: int = 30, K: int = 12):
    """Hurwitz zeta(s, a) by Euler-Maclaurin (valid for Re(s) > -2K+1, s != 1)."""
    s, a = mpf(s) if not isinstance(s, (mpf, mpc)) else s, mpf(a)
    total = sum(mp_power(a + n, -s) for n in range(M))
    q = a + M
    total += mp_power(q, 1 - s) / (s - 1)
    total += mp_power(q, -s) / 2
    poch = s
    for j in range(1, K + 1):
        total += bernoulli(2 * j) / factorial(2 * j) * poch * mp_power(q, -s - 2 * j + 1)
        poch = poch * (s + 2 * j - 1) * (s + 2 * j)
    return total


def zeta_reg_reciprocal_product(delta, z):
    """exp(-f'(0)) for f(s) = z^s zeta(-s; delta/z + 1): the regularized
    product prod_{n>=1} 1/(delta + n z), by central difference at step 1e-5."""
    delta, z = mpf(delta), mpf(z)
    if delta < 0 or z <= 0:
        raise ValueError("need delta >= 0 and z > 0")
    a = delta / z + 1
    h = mpf("1e-5")

    def f(s):
        return mp_power(z, s) * hurwitz_zeta_em(-s, a)

    fprime = (f(h) - f(-h)) / (2 * h)
    return mp_exp(-fprime)


def zeta_reg_closed_form(delta, z):
    """sqrt(z / 2 pi) z^{delta/z} Gamma(1 + delta/z)."""
    delta, z = mpf(delta), mpf(z)
    return mp_sqrt(z / (2 * mp.pi)) * mp_power(z, delta / z) * mp_gamma(1 + delta / z)
