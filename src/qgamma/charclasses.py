"""Characteristic-class calculus: Gamma classes, Chern characters, Todd
classes, the non-symmetric pairing [.,.), HRR Euler pairings, and the
zeta-regularized product.

Bundles are described by K-theoretic root data: a list of (linear form in
x_1..x_r, integer multiplicity).  Every class is assembled as an exact
truncated polynomial with mpmath scalars and re-expanded in the Schur basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from mpmath import mp, mpc, mpf, gamma as mp_gamma, bernoulli, exp as mp_exp, sqrt as mp_sqrt, power as mp_power

from . import symfunc
from .constants import EULER, TWO_PI, TWO_PI_I, PI_I, log_gamma_coeffs
from .rings import RingSpec, CohClass, build_ring, cup, poincare_pair

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
    return _to_cohclass(b.ring, _exp_sum(b.ring, b.roots, TWO_PI_I))


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


_GAMMA_CACHE: dict = {}


def gamma_class(ring: RingSpec) -> CohClass:
    """Gamma class exp(-C_eu c_1 + sum_{k>=2} (-1)^k (k-1)! zeta(k) ch_k(TF)),
    assembled as prod Gamma(1 + delta) over the (virtual) roots of TF."""
    key = (ring.kind, ring.r, ring.N)
    if key in _GAMMA_CACHE:
        return _GAMMA_CACHE[key]
    cap = ring.dim
    lg = log_gamma_coeffs(cap)
    tangent = tangent_bundle(ring)
    total: symfunc.Poly = {}
    for v, mult in tangent.roots:
        if all(c == 0 for c in v):
            continue
        lin = symfunc.poly_linear(ring.r, v, mpf(1))
        total = symfunc.poly_add(total, symfunc.poly_scale(
            symfunc.poly_series_of(lin, ring.r, lg, cap), mult))
    out = _to_cohclass(ring, symfunc.poly_exp(total, ring.r, cap))
    _GAMMA_CACHE[key] = out
    return out


def gamma_G_closed_form(r: int, N: int) -> CohClass:
    """(2 pi i)^{-C(r,2)} e^{-(r-1) pi i sigma_1}
    prod_{i<j} (e^{2 pi i x_i} - e^{2 pi i x_j})/(x_i - x_j)
    prod_i Gamma(1 + x_i)^N, reduced to the Schur basis."""
    ring = build_ring("G", N, r)
    cap = ring.dim
    # (e^{u} - 1)/u = sum u^k/(k+1)! with u = 2 pi i (x_i - x_j)
    s_coeffs = [mpf(1) / factorial(k + 1) for k in range(cap + 1)]
    total = symfunc.poly_const(r, mpc(1))
    for i in range(r):
        for j in range(i + 1, r):
            v = [0] * r
            v[i], v[j] = 1, -1
            u = symfunc.poly_linear(r, v, TWO_PI_I)
            ratio = symfunc.poly_series_of(u, r, s_coeffs, cap)
            ej = [0] * r
            ej[j] = 1
            pref = symfunc.poly_exp(symfunc.poly_linear(r, ej, TWO_PI_I), r, cap)
            factor = symfunc.poly_scale(symfunc.poly_mul(ratio, pref, cap), TWO_PI_I)
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
        symfunc.poly_linear(r, [1] * r, -(r - 1) * PI_I), r, cap), cap)
    prefactor = mp_power(TWO_PI_I, -(r * (r - 1) // 2))
    return _to_cohclass(ring, symfunc.poly_scale(total, prefactor))


def kapranov_ch(nu, ring: RingSpec) -> CohClass:
    """Ch(S^nu V*) = s_nu(e^{2 pi i x_1}, ..., e^{2 pi i x_r})."""
    return ch_modified(kapranov_schur(ring, nu))


def exp_rho(a: CohClass, scalar) -> CohClass:
    """exp(scalar * (c_1 cup .)) applied to a (nilpotent, finite sum)."""
    out = a
    term = a
    c1 = a.ring.c1()
    for k in range(1, a.ring.dim + 1):
        term = (scalar / k) * cup(c1, term)
        out = out + term
    return out


def exp_mu(a: CohClass, scalar) -> CohClass:
    """exp(scalar * mu): multiply degree-p part by exp(scalar*(p - dim/2))."""
    half = mpf(a.ring.dim) / 2
    return CohClass(a.ring, [mp_exp(scalar * (sum(lam) - half)) * c if c != 0 else mpf(0)
                             for lam, c in zip(a.ring.basis, a.coeffs)])


def bracket_pairing(a: CohClass, b: CohClass):
    """[a, b) = (2 pi)^{-dim} (e^{pi i rho} e^{pi i mu} a, b).

    Also evaluated as (2 pi)^{-dim} (e^{pi i mu} e^{-pi i rho} a, b); the two
    must agree (operator identity from [mu, rho] = rho)."""
    scale = mp_power(TWO_PI, -a.ring.dim)
    v1 = scale * poincare_pair(exp_rho(exp_mu(a, PI_I), PI_I), b)
    v2 = scale * poincare_pair(exp_mu(exp_rho(a, -PI_I), PI_I), b)
    if abs(v1 - v2) > mpf("1e-15") * (1 + abs(v1)):
        raise ArithmeticError(f"bracket pairing forms disagree: {v1} vs {v2}")
    return v1


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
    return mp_sqrt(z / TWO_PI) * mp_power(z, delta / z) * mp_gamma(1 + delta / z)
