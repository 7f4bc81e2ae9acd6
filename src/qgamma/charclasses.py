"""Characteristic-class calculus: Gamma classes, Chern characters, Todd
classes, the non-symmetric pairing [.,.), HRR Euler pairings, and the
zeta-regularized product.  Importing it sets mpmath's working precision to
40 digits.  No mpmath constant is frozen, so inside mp.workdps(60) pi, Euler's
constant and zeta(k) carry 60 digits too.

Every class lives in the Schubert ring, and a bundle is represented by its
Chern character.  With p_k the power sums of the Chern roots of V* (each an
alternating sum of hook classes), ch(V*) = sum_k p_k / k!; ch(Lambda^k V*)
follows by Newton's identities and ch(S^nu V*) by the dual Pieri rule, one cup
per partition, all with exact Fraction coefficients.  The Gamma and Todd
classes are one graded ring exponential (`rings.exp_cup`) each, of the power
sums of the roots of TF.  The bilinear [.,.) is its matrix B on the Schubert
basis, built once per ring and period point; a left vector a becomes the row a B
once, then one dot per pairing.  The Gamma-basis classes Gamma-hat Ch(S^nu V*)
are built once per ring, nu and point; their normalized Satake images, once per
ring and point, are one exterior power (`rings.wedge_matrix`) of the twisted
P^{N-1} factors.  The Grassmannian closed form of the Gamma class is an
independent route through the bialternant: its product over the Chern roots
times the Vandermonde is an alternant, det[F_{r-j}(x_i)] of one-variable
series, so each Schur coefficient is one r x r minor of their coefficient
rows, read by `rings.satake` with the F_k as classes of P^{N-1}, with no
polynomial in r variables.  The zeta-regularized product takes zeta(0, a) and
its exact s-derivative at s = 0 from one Euler-Maclaurin pass of the Hurwitz
zeta.

The Gamma class and everything built on it lie in the period ring
Q[gamma, 2 pi i, zeta(3), zeta(5), ...], since zeta(2k) = -B_2k (2 pi
i)^{2k} / (2 (2k)!).  So every builder of such a class reads Euler's
constant, zeta(k), 2 pi i and the scalar 1 from a period point, and caches
by it: MP_POINT, the numbers themselves in mpmath at the working precision,
or FP_POINT, one fixed pseudo-random point over F_P (P = 2^61 + 15) with Fp
scalars, on which cup, exp_cup, satake and compound run unchanged.  An
identity of the ring that is false, a nonzero polynomial of degree d once
the negative powers of 2 pi i are cleared, holds at a random point with
probability at most d / P (Schwartz, JACM 1980); for the Kapranov, closed
form and Gram identities d <= dim + C(r, 2), so the bound is below 2e-14
for every ring in range (the largest d is G(299,300)'s 44,850).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial

from mpmath import (mp, mpf, gamma as mp_gamma, bernoulli, bernfrac, exp as mp_exp,
                    fprod, log as mp_log, sqrt as mp_sqrt, power as mp_power, zeta)
from mpmath.libmp import isprime

from .rings import (RingSpec, CohClass, build_ring, cup, exp_cup,
                    normalize_partition, same_ring, satake, wedge_matrix)

mp.dps = 40


# --- the period point -----------------------------------------------------

P = next(p for p in itertools.count(2 ** 61 + 1) if isprime(p))   # 2^61 + 15


def _residue(x) -> int:
    """x as an integer standing for it mod P: an int (an Fp included) as it
    is, a Fraction as numerator times the inverse of its denominator;
    ValueError for any other type."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator * pow(x.denominator, -1, P)
    raise ValueError(f"no F_p value for a {type(x).__name__}")


class Fp(int):
    """An element of the field with P elements, held as its representative
    in [0, P), so == and hash are those of the representatives.  + - * / and
    ** (an int exponent) reduce mod P, with an int, a Fraction or an Fp on
    either side of + - * / and the result an Fp.  An int on the left
    reaches the reflected operator first, since Fp subclasses int (cup adds
    to an int 0, compound subtracts from one); a Fraction on the left
    reads an Fp as its representative and gives a Fraction, which is the
    same element mod P, so the builders keep Fp on the left of Fractions.
    Any other operand, a float or an mpmath number among them, raises the
    ValueError of Fp(x) when the Fp is on the left.  With the Fp on the
    right it cannot be caught: float and mpmath read an int subclass as an
    int, so 1.5 + Fp(1) is 2.5 and mpf(1) + Fp(2) is mpf 3."""
    __slots__ = ()

    def __new__(cls, x):
        return int.__new__(cls, _residue(x) % P)

    def __add__(self, other):
        return _fp(int.__add__(self, _residue(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return _fp(int.__sub__(self, _residue(other)))

    def __rsub__(self, other):
        return _fp(_residue(other) - int(self))

    def __mul__(self, other):
        return _fp(int.__mul__(self, _residue(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _fp(int.__mul__(self, _inverse(_residue(other))))

    def __rtruediv__(self, other):
        return _fp(_residue(other) * _inverse(self))

    def __pow__(self, k: int):
        return _fp(pow(int(self) if k >= 0 else _inverse(self), abs(k), P))

    def __neg__(self):
        return _fp(-int(self))


def _fp(n: int) -> Fp:
    return int.__new__(Fp, n % P)


def _inverse(n: int) -> int:
    n = int(n) % P
    if n == 0:
        raise ArithmeticError("division by 0 in F_p")
    return pow(n, -1, P)


class _MpPoint:
    """The period point itself: Euler's constant, 2 pi i and zeta(k) as
    mpmath numbers at the working precision when they are read, which is
    also the cache key; values agree to a relative 1e-15.  mu_weight(p,
    dim) = (2 pi)^{-dim} e^{pi i (p - dim/2)}, the bracket's weight on
    degree p, is rounded as that product."""

    @property
    def key(self) -> tuple:
        return ("mp", mp.prec)

    @property
    def one(self):
        return mpf(1)

    @property
    def euler(self):
        return +mp.euler

    @property
    def tau(self):
        return 2j * mp.pi

    @property
    def tol(self):
        return mpf("1e-15")

    @staticmethod
    def zeta(k: int):
        return zeta(k)

    @staticmethod
    def mu_weight(p: int, dim: int):
        return mp_power(2 * mp.pi, -dim) * mp_exp(1j * mp.pi * (p - mpf(dim) / 2))


class _FpPoint:
    """One fixed pseudo-random point of the period ring Q[gamma, 2 pi i,
    zeta(3), zeta(5), ...] over F_P: Euler's constant, 2 pi i and each
    odd zeta(k) drawn from a seed named after it, and zeta(2k) = -B_2k
    (2 pi i)^2k / (2 (2k)!) from 2 pi i.  Values agree only when equal.
    The bracket's weight on degree p is (2 pi i)^{-dim} (-1)^p."""
    key = ("F_p", P)
    one = Fp(1)
    tol = 0

    def __init__(self):
        self.euler, self.tau = _draw("euler"), _draw("2 pi i")

    def zeta(self, k: int) -> Fp:
        if k % 2:
            return _draw(f"zeta({k})")
        return self.tau ** k * -Fraction(*bernfrac(k)) / (2 * factorial(k))

    def mu_weight(self, p: int, dim: int) -> Fp:
        return (-1) ** p * self.tau ** -dim


def _draw(name: str) -> Fp:
    return Fp(random.Random(f"qgamma period point: {name}").randrange(1, P))


MP_POINT = _MpPoint()
FP_POINT = _FpPoint()


def log_gamma_coeffs(order: int, point=MP_POINT) -> list:
    """Taylor coefficients of log Gamma(1+x) up to x^order (index = power),
    at the period point."""
    coeffs = [0 * point.one, -point.euler]
    for k in range(2, order + 1):
        coeffs.append((-1) ** k * point.zeta(k) / k)
    return coeffs


_CLASS_CACHE: dict = {}


def _cached(name: str, build, ring: RingSpec, *args):
    """build(ring, *args), computed once per (name, ring, args), a period
    point among the args keyed by its key (an exact value takes no point);
    a class is kept with tuple coefficients, as a builder of a tuple of classes
    makes them, so the shared value cannot be changed in place."""
    key = (name, ring.kind, ring.r, ring.N, *(getattr(a, "key", a) for a in args))
    out = _CLASS_CACHE.get(key)
    if out is None:
        out = build(ring, *args)
        out = _CLASS_CACHE[key] = (CohClass(ring, tuple(out.coeffs))
                                   if isinstance(out, CohClass) else out)
    return out


def gamma_class(ring: RingSpec, point=MP_POINT) -> CohClass:
    """Gamma class exp(-C_eu c_1 + sum_{k>=2} (-1)^k (k-1)! zeta(k) ch_k(TF)),
    i.e. prod Gamma(1 + delta) over the (virtual) roots of TF, at the
    period point."""
    return _cached("gamma_class", _gamma_class, ring, point)


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


def _gamma_class(ring: RingSpec, point) -> CohClass:
    # the point's 1: exp_cup divides it by k, and an int would give floats
    return _root_exp(ring, log_gamma_coeffs(ring.dim, point), point.one)


def todd_class(ring: RingSpec) -> CohClass:
    """td(TF) = prod x/(1 - e^{-x}) over the (virtual) roots of TF, exactly
    (Fraction coefficients)."""
    # log(x/(1 - e^{-x})) = x/2 - sum_k B_2k x^2k / (2k (2k)!); B_k = 0 at odd k > 1
    log_td = [Fraction(0), Fraction(1, 2)] + [-Fraction(*bernfrac(k)) / (k * factorial(k))
                                              for k in range(2, ring.dim + 1)]
    return _root_exp(ring, log_td, Fraction(1))


def _root_exp(ring: RingSpec, coeffs, one) -> CohClass:
    """exp of sum_{k>=1} coeffs[k] sum_{roots} root^k over the roots of TF,
    in the ring; one is the scalar 1 of the result's type.  TG = Hom(V, C^N)
    - Hom(V, V), so sum_{roots} root^k = N p_k - sum_a C(k,a) (-1)^{k-a} p_a
    p_{k-a}, an integer class.  The a and k - a terms differ by (-1)^k: at
    odd k they cancel, and at even k each pair below k/2 counts twice."""
    cap = ring.dim
    p = [_power_sum(ring, k) for k in range(cap + 1)]
    log_sum = ring.zero()
    for k in range(1, cap + 1):
        roots_k = ring.N * p[k]
        if k % 2 == 0:
            for a in range(k // 2 + 1):
                weight = comb(k, a) * (-1) ** a * (1 if 2 * a == k else 2)
                roots_k = roots_k - weight * cup(p[a], p[k - a])
        log_sum = log_sum + roots_k * coeffs[k]
    return exp_cup(ring.unit(), log_sum, one)


def scale_degrees(a: CohClass, s) -> CohClass:
    """Multiply the degree-p part of a by s^p.  On a Chern character ch(E)
    this is the Adams operation psi^s at an integer s, ch(E^dual) at s = -1
    and Ch(E) = sum_p (2 pi i)^p ch_p(E) at s = 2 pi i."""
    powers = [s ** p for p in range(a.ring.dim + 1)]
    return CohClass(a.ring, [powers[p] * c for p, c in zip(a.ring.degrees(), a.coeffs)])


def ch_schur(nu, ring: RingSpec) -> CohClass:
    """ch(S^nu V*), exactly, by the dual Pieri rule (see _ch_schur)."""
    nu = normalize_partition(nu)
    if nu not in ring.index:
        raise ValueError(f"{nu} outside the {ring.r}x{ring.cols} box")
    return _cached("ch_schur", _ch_schur, ring, nu)


def _ch_schur(ring: RingSpec, nu: tuple) -> CohClass:
    """e_k s_mu = sum of s_kappa over the kappa with at most r rows and
    kappa/mu a vertical strip of size k (Macdonald I (5.17)).  With k the
    length of nu and mu = nu without its first column, nu is one such kappa;
    every other one is longer than nu, so the recursion ends at the columns,
    and it is lexicographically smaller, so visiting the basis in degree-lex
    order finds it already built.  The columns e_k = ch(Lambda^k V*) come from Newton's
    identities k e_k = sum_m (-1)^(m-1) p_m e_{k-m} in the variables e^{x_i},
    whose m-th power sum is psi^m ch(V*), ch(V*) = sum_j p_j / j!."""
    k = len(nu)
    if k == 0:
        return ring.unit()
    if nu == (1,) * k:
        ch_v = ring.zero()
        for j in range(ring.dim + 1):
            ch_v = ch_v + Fraction(1, factorial(j)) * _power_sum(ring, j)
        total = ring.zero()
        for m in range(1, k + 1):
            total = total + (-1) ** (m - 1) * cup(scale_degrees(ch_v, m),
                                                   ch_schur((1,) * (k - m), ring))
        return Fraction(1, k) * total
    mu = [p - 1 for p in nu] + [0] * (ring.r - k)
    out = cup(ch_schur((1,) * k, ring), ch_schur(mu, ring))
    for rows in itertools.combinations(range(ring.r), k):
        kappa = [p + (i in rows) for i, p in enumerate(mu)]
        if kappa == sorted(kappa, reverse=True) and normalize_partition(kappa) != nu:
            out = out - ch_schur(kappa, ring)
    return out


def gamma_G_closed_form(r: int, N: int, point=MP_POINT) -> CohClass:
    """(2 pi i)^{-C(r,2)} e^{-(r-1) pi i sigma_1}
    prod_{i<j} (e^{2 pi i x_i} - e^{2 pi i x_j})/(x_i - x_j)
    prod_i Gamma(1 + x_i)^N, reduced to the Schur basis by the bialternant:
    each coefficient is an r x r determinant of Taylor coefficients of
    one-variable series.  An independent route to gamma_class on G(r,N);
    the two share no cache entry."""
    return _cached("gamma_G_closed_form", _gamma_G_closed_form, build_ring("G", N, r), point)


def _gamma_G_closed_form(ring: RingSpec, point) -> CohClass:
    """The pair factors are the Vandermonde of the e^{2 pi i x_i}, so times
    the Vandermonde prod_{i<j} (x_i - x_j) the product is the alternant
    (2 pi i)^{-C(r,2)} det[F_{r-j}(x_i)], F_k(x) = e^{(2k-r+1) pi i x}
    Gamma(1 + x)^N.  By the bialternant the coefficient of s_lam is that of
    x^{lam + delta} in it: (2 pi i)^{-C(r,2)} times the minor of the
    coefficient rows of F_{r-1}..F_0 at the exponents wedge_exponents(lam,
    r), all below N, which is satake of the F_k as classes of P^{N-1}."""
    r, N, ring_P = ring.r, ring.N, build_ring("P", ring.N)
    lg = log_gamma_coeffs(N - 1, point)
    rows = []
    for k in range(r):
        # g = e^f, f = N log Gamma(1 + x) + (2k-r+1) pi i x: n g_n = sum_m m f_m g_{n-m}
        f = [N * c for c in lg]
        f[1] += (2 * k - r + 1) * point.tau / 2
        g = [point.one]
        for n in range(1, N):
            g.append(sum(m * f[m] * g[n - m] for m in range(1, n + 1)) / n)
        rows.append(CohClass(ring_P, g))
    return satake(rows[::-1], ring) * point.tau ** (-(r * (r - 1) // 2))


def kapranov_ch(nu, ring: RingSpec, point=MP_POINT) -> CohClass:
    """Ch(S^nu V*) = s_nu(e^{2 pi i x_1}, ..., e^{2 pi i x_r})."""
    return scale_degrees(ch_schur(nu, ring), point.tau)


def gamma_basis_class(nu, ring: RingSpec, point=MP_POINT) -> CohClass:
    """Gamma-hat Ch(S^nu V*), once per ring, nu and period point; on
    P^{N-1}, S^(k) V* = O(k)."""
    return _cached("gamma_basis_class", _gamma_basis_class, ring, normalize_partition(nu), point)


def _gamma_basis_class(ring: RingSpec, nu, point) -> CohClass:
    return cup(gamma_class(ring, point), kapranov_ch(nu, ring, point))


def satake_gamma_class(nu, ring_G: RingSpec, point=MP_POINT) -> CohClass:
    """(2 pi i)^{-C(r,2)} e^{-(r-1) pi i sigma_1} Sat(f_1 ^ ... ^ f_r), f_i =
    gamma_basis_class((k_i,), P^{N-1}), k = wedge_exponents(nu, r); Kapranov's
    identity equates it with gamma_basis_class(nu, ring_G); the box is built at once."""
    basis = _cached("satake_gamma_basis", _satake_gamma_basis, ring_G, point)
    return basis[ring_G.index[normalize_partition(nu)]]


def _satake_gamma_basis(ring_G: RingSpec, point) -> tuple:
    # e^{s sigma_1} Sat(^ f_i) = Sat(^ e^{s h} f_i): the twist goes on the factors
    r, ring_P = ring_G.r, build_ring("P", ring_G.N)
    rows = [_twisted_gamma_basis_class(ring_P, r, k, point).coeffs for k in range(ring_G.N)]
    scale = point.tau ** (-(r * (r - 1) // 2))
    return tuple(CohClass(ring_G, tuple(scale * m for m in row))
                 for row in wedge_matrix(rows, r, ring_G.basis))


def _twisted_gamma_basis_class(ring_P: RingSpec, r: int, k: int, point) -> CohClass:
    return exp_cup(gamma_basis_class((k,), ring_P, point), ring_P.basis_class((1,)),
                   -(r - 1) * point.tau / 2)


def _bracket_form(ring: RingSpec, point) -> tuple:
    """B[i][j] = [sigma_i, sigma_j) on the Schubert basis, as rows of (j,
    B[i][j]) for the nonzero entries: (2 pi)^{-dim} (e^{pi i rho} e^{pi i mu}
    sigma_i, sigma_j), where mu scales degree p by p - dim/2, at the period
    point.

    Each entry is also evaluated as (2 pi)^{-dim} (e^{pi i mu} e^{-pi i rho}
    sigma_i, sigma_j); the two must agree (operator identity from [mu, rho] =
    rho) to the point's tolerance, and by bilinearity agreement on the basis
    is agreement for every pair of classes."""
    pi_i = point.tau / 2
    c1 = ring.c1()
    # (2 pi)^{-dim} e^{pi i mu} on sigma_k
    emu = [point.mu_weight(p, ring.dim) for p in ring.degrees()]
    e_plus, e_minus = (exp_cup(ring.unit(), c1, s) for s in (pi_i, -pi_i))
    form = []
    for i, lam in enumerate(ring.basis):
        sigma = ring.basis_class(lam)
        l1 = cup(sigma, e_plus).coeffs
        l2 = cup(sigma, e_minus).coeffs
        row = []
        for j, k in enumerate(ring.dual):
            v1 = emu[i] * l1[k]
            v2 = emu[k] * l2[k]
            if abs(v1 - v2) > point.tol * (1 + abs(v1)):
                raise ArithmeticError(f"bracket pairing forms disagree: {v1} vs {v2}")
            if v1 != 0:
                row.append((j, v1))
        form.append(tuple(row))
    return tuple(form)


def bracket_row(a: CohClass, point=MP_POINT):
    """The functional b -> [a, b) = sum_j w_j b_j, with the row w = a B taken
    once at the period point; a Gram makes one row per left vector."""
    w = [0] * a.ring.rank
    for ca, row in zip(a.coeffs, _cached("bracket_form", _bracket_form, a.ring, point)):
        if ca:
            for j, v in row:
                w[j] = w[j] + ca * v

    def pair(b: CohClass):
        same_ring(a, b)
        return sum(x * y for x, y in zip(w, b.coeffs))
    return pair


def bracket_pairing(a: CohClass, b: CohClass):
    """[a, b) = sum_ij a_i B[i][j] b_j at the working precision, with the
    basis form B built once per ring and precision."""
    return bracket_row(a)(b)


def euler_pairing_hrr(ch1: CohClass, ch2: CohClass) -> int:
    """chi(E1, E2) = int ch(E1^dual) ch(E2) td(TF), from the exact Chern
    characters ch1, ch2; an integer, or ArithmeticError."""
    ring = ch1.ring
    integrand = cup(cup(scale_degrees(ch1, -1), ch2), todd_class(ring))
    chi = Fraction(integrand.coeffs[ring.index[ring.top()]])
    if chi.denominator != 1:
        raise ArithmeticError(f"Euler pairing {chi} is not an integer")
    return chi.numerator


# --- Appendix-A zeta regularization -------------------------------------

def hurwitz_zeta_em(a) -> tuple:
    """(zeta(0, a), d/ds zeta(s, a) at s = 0) for the Hurwitz zeta, from one
    Euler-Maclaurin pass at s = 0, each term differentiated exactly: the M
    direct terms (a+n)^{-s} give M and minus the log of their product, the
    tail q^{1-s}/(s-1) + q^{-s}/2 gives 1/2 - q and q log q - q - log q / 2,
    and the j-th Bernoulli term, whose rising product s(s+1)...(s+2j-2)
    vanishes at s = 0 with derivative (2j-2)!, adds to the derivative only:
    Stirling's series."""
    M, K = 30, 12   # direct terms, Bernoulli corrections
    a = mpf(a)
    q = a + M
    log_q = mp_log(q)
    deriv = -mp_log(fprod(a + n for n in range(M))) - (q - q * log_q + log_q / 2)
    q_j, q2 = 1 / q, q * q   # q^{1-2j}
    for j in range(1, K + 1):
        deriv += bernoulli(2 * j) / factorial(2 * j) * q_j * factorial(2 * j - 2)
        q_j /= q2
    return M + (0.5 - q), deriv


def _zeta_reg_args(delta, z) -> tuple:
    delta, z = mpf(delta), mpf(z)
    # a NaN fails every comparison
    if not (0 <= delta < mp.inf and 0 < z < mp.inf):
        raise ValueError(f"need finite delta >= 0 and z > 0, got delta = {delta}, z = {z}")
    return delta, z


def zeta_reg_reciprocal_product(delta, z):
    """exp(-f'(0)) for f(s) = z^s zeta(-s; delta/z + 1): the regularized
    product prod_{n>=1} 1/(delta + n z).  f'(0) = log z zeta(0, a) -
    zeta'(0, a), a = delta/z + 1, from one Euler-Maclaurin pass."""
    delta, z = _zeta_reg_args(delta, z)
    value, deriv = hurwitz_zeta_em(delta / z + 1)
    return mp_exp(deriv - mp_log(z) * value)


def zeta_reg_closed_form(delta, z):
    """sqrt(z / 2 pi) z^{delta/z} Gamma(1 + delta/z)."""
    delta, z = _zeta_reg_args(delta, z)
    return mp_sqrt(z / (2 * mp.pi)) * mp_power(z, delta / z) * mp_gamma(1 + delta / z)
