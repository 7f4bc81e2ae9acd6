"""Limit-taking machinery: the Gamma Conjecture I limit ratio, Gamma
Conjecture II central charges, Apery ratios, quantum-period radius
estimation, and the Mellin-Barnes solution Psi(t) with its three evaluation
routes and asymptotic constant.  J(t) has one sum, `_sum_J`, over terms in
any scalar type: the float rows n! J_n of connection.j_scaled (limit_ratio)
or the exact J_n in mpmath (central_charge).  The Psi series sum the
products prod_{k<=n} (h-k)^{-N} of connection.rising_inverses, kept once per
(N, precision) as raw libmp values, by mpf_mul and mpf_add: the calls mpf's
* and + make, so each sum rounds as its mpf expression would.  The float
quadrature shares none of their arithmetic; its Gauss-Legendre nodes and
Gamma(s) on them are made once per (abscissa, interval), on first use."""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

from mpmath import fp, mp, mpc, mpf, exp as mp_exp, log as mp_log
from mpmath.libmp import (fone, from_str, fzero, mpf_abs, mpf_add, mpf_lt, mpf_mul,
                          round_nearest as RND)

from .rings import RingSpec, CohClass, build_ring, cup, exp_cup, poincare_pair
from .charclasses import bracket_pairing, gamma_class, scale_degrees
from .connection import j_coefficients, j_scaled, pairing_rows, rising_inverses


@dataclass
class LimitReport:
    grid: list
    values: list
    extrapolated: list | float
    target: list | float
    converged: bool
    notes: dict = field(default_factory=dict)


# --- J(t), the Gamma Conjecture I limit and the central charges ---------

def _sum_J(ring: RingSpec, terms, logt, tol) -> CohClass:
    """J(t) = e^{c1 log t} sum_n J_n t^n from the terms J_n t^n, n = 0..nmax,
    as coefficient lists of any scalar type.  J_n = 0 unless N divides n, so
    the tail is the term at the last such n, which may underflow to zero.
    Raises ArithmeticError unless it is at most tol (1 + the largest term)."""
    total = [0] * ring.rank
    biggest = last = 0
    for n, term in enumerate(terms):
        if any(term):
            total = [a + b for a, b in zip(total, term)]
            biggest = max(biggest, *map(abs, term))
        if not n % ring.N:
            last = max(map(abs, term))
    if last > tol * (1 + biggest):
        raise ArithmeticError(f"J series tail not converged at nmax={n}")
    return exp_cup(CohClass(ring, total), ring.c1(), logt)


def _float_J(ring: RingSpec, rows, t: float) -> list:
    """J(t) in float64 from the rows n! J_n of j_scaled, weighted by t^n / n!."""
    if t <= 0:
        raise ValueError("t must be positive")
    weights = itertools.accumulate(range(1, len(rows)), lambda w, n: w * (t / n), initial=1.0)
    terms = ([x * w for x in row] for row, w in zip(rows, weights))
    return _sum_J(ring, terms, math.log(t), 1e-13).coeffs


def limit_ratio(ring: RingSpec, t_grid, tol: float = 1e-6) -> LimitReport:
    """Componentwise J(t) / <[pt], J(t)>, compared against the Gamma class;
    J is summed to order max(80, 6 N max(t_grid)) from one set of rows."""
    nmax = max(80, int(6 * ring.N * max(t_grid)))
    rows = j_scaled(ring, nmax)
    values = []
    for t in t_grid:
        J = _float_J(ring, rows, t)
        if J[0] == 0:
            raise ArithmeticError(f"degree-0 part of J vanished at t={t}")
        values.append([x / J[0] for x in J])
    target = [float(c) for c in gamma_class(ring).coeffs]
    gap = max(abs(a - b) for a, b in zip(values[-1], target))
    return LimitReport(grid=list(t_grid), values=values, extrapolated=values[-1],
                       target=target, converged=gap < tol,
                       notes={"gap_to_gamma": gap})


def central_charge(ch: CohClass, t, nmax: int):
    """Z(V) = (2 pi i)^{dim} [J(e^{pi i} t), Gamma Ch(V)) for the Chern
    character ch = ch(V), with log(e^{pi i} t) = log t + pi i, from the exact
    J_0..J_nmax weighted by e^{n log(e^{pi i} t)} in mpmath."""
    ring = ch.ring
    logt = mp_log(mpf(t)) + mpc(0, 1) * mp.pi
    terms = ([mp_exp(n * logt) * mpf(c.numerator) / mpf(c.denominator) for c in Jn.coeffs]
             for n, Jn in enumerate(j_coefficients(ring, nmax)))
    J = _sum_J(ring, terms, logt, mpf("1e-30"))
    gv = cup(gamma_class(ring), scale_degrees(ch, 2j * mp.pi))   # Ch(V)
    return mpc(0, 2 * mp.pi) ** ring.dim * bracket_pairing(J, gv)


# --- Apery ratios --------------------------------------------------------

def apery_precondition(ring: RingSpec, g: CohClass) -> bool:
    """c_1 cap gamma = 0, checked exactly: the test `pairing_rows` makes
    before it yields a row."""
    try:
        pairing_rows(ring, g)
    except ValueError:
        return False
    return True


def apery_ratios(ring: RingSpec, g: CohClass, n_grid, tol: float = 1e-6) -> LimitReport:
    """<gamma, J_{r_F n}> / <[pt], J_{r_F n}> along n_grid, against the
    Gamma-class target <gamma, Gamma> / <[pt], Gamma>.  g is the Poincare
    dual of gamma (a cohomology class with exact integer coefficients).
    Each ratio is the correctly rounded float of the exact ratio of the
    g-row and the point-row of `connection.pairing_rows`, which raises
    ValueError unless c1 cup g = 0, and OverflowError once an exact row has
    more digits than Python prints."""
    rf = ring.fano_index
    wanted = {rf * n for n in n_grid}
    rows = zip(pairing_rows(ring, g), pairing_rows(ring, ring.basis_class(ring.top())))
    ratios = {}
    for m, ((Yg, dg), (Yp, dp)) in zip(range(max(wanted) + 1), rows):
        if m in wanted and Yp[0]:
            ratios[m] = Yg[0] * dp / (dg * Yp[0])   # int / int rounds correctly
    values = [ratios[rf * n] for n in n_grid if rf * n in ratios]
    skipped = [n for n in n_grid if rf * n not in ratios]
    gam = gamma_class(ring)
    target = float(poincare_pair(g, gam) / gam.coeffs[0])
    gap = abs(values[-1] - target) if values else float("inf")
    return LimitReport(grid=[n for n in n_grid if n not in skipped], values=values,
                       extrapolated=values[-1] if values else None, target=target,
                       converged=gap < tol,
                       notes={"gap": gap, "skipped": skipped})


# --- radius of the regularized quantum period ----------------------------

def radius_estimate(scaled_Gn) -> dict:
    """Estimate limsup |n! G_n|^{1/n} from the scaled sequence a_n = n! G_n.

    Returns the plain running sup over the tail n >= len/2 and a
    consecutive-ratio refinement |a_n / a_m|^{1/(n-m)} (successive nonzero
    terms), which cancels the slowly-decaying polynomial prefactor.  Raises
    OverflowError on a non-finite term."""
    a = [abs(float(x)) for x in scaled_Gn]
    bad = [n for n, x in enumerate(a) if not math.isfinite(x)]
    if bad:
        raise OverflowError(f"{len(bad)} non-finite float64 terms, the first at n = {bad[0]}")
    if len(a) < 100:
        raise ValueError("need at least 100 terms")
    tail_start = len(a) // 2
    support = [n for n in range(1, len(a)) if a[n] > 0]
    if not support or support[-1] < tail_start:
        raise ValueError("all-zero tail")
    sup_raw = max(a[n] ** (1.0 / n) for n in support if n >= tail_start)
    ratios = [(a[n] / a[m]) ** (1.0 / (n - m))
              for m, n in zip(support, support[1:]) if n >= tail_start]
    return {"sup_raw": sup_raw, "ratio_refined": max(ratios) if ratios else sup_raw}


# --- Mellin-Barnes solution Psi ------------------------------------------

def mellin_psi(N: int, t: float, c: float = 1.0) -> float:
    """(1/2 pi i) int_{c-iH}^{c+iH} Gamma(s)^N t^{-Ns} ds by 32-node
    Gauss-Legendre on unit intervals; H from the Stirling decay e^{-N pi |y| / 2}.

    The rounding error is about 1e-15 M with M the L1 mass sum |w f| / (4 pi)
    on the same nodes, so a result with M > 1e6 |Psi| (large t, or t near 0)
    raises OverflowError rather than return a number with few right digits."""
    if not (1 <= N <= 6):
        raise ValueError("Psi is supported for 1 <= N <= 6")
    if not (c > 0 and t > 0 and math.isfinite(t)):
        raise ValueError(f"need c > 0 and a finite t > 0, got c = {c}, t = {t}")
    # |t^{-N s}| = t^{-N c} on the whole contour
    if -N * c * math.log(t) > math.log(sys.float_info.max):
        raise OverflowError(f"t^(-N s) overflows at N = {N}, t = {t}")
    H = math.ceil(2.0 / (N * math.pi) * (46 + abs(N * c * math.log(t))) + 2)
    w = _leggauss()[1]
    total = mass = 0.0
    for k in range(-H, H):
        s, gam = _gamma_nodes(c, k)
        terms = w * gam ** N * t ** (-N * s)
        total += terms.sum() / 2
        mass += abs(terms).sum() / 2
    psi = float((total / (2 * math.pi)).real)
    mass /= 2 * math.pi
    if mass > 1e6 * abs(psi):
        raise OverflowError(f"quadrature below its rounding floor at N = {N}, t = {t}: "
                            f"L1 mass {mass:.3g} exceeds 1e6 |Psi| = {1e6 * abs(psi):.3g}")
    return psi


@functools.cache
def _leggauss():
    """The 32-node Gauss-Legendre rule on [-1, 1], built on first use so that
    importing the package does not load numpy."""
    import numpy as np
    return np.polynomial.legendre.leggauss(32)


@functools.cache
def _gamma_nodes(c: float, k: int):
    """The nodes s = c + i y of mellin_psi on the interval y in [k, k + 1],
    and Gamma(s) on them; neither depends on N or t.  Read-only arrays."""
    import numpy as np
    s = c + 1j * (k + (_leggauss()[0] + 1) / 2)
    gam = np.array([fp.gamma(z) for z in s.tolist()])
    s.flags.writeable = gam.flags.writeable = False
    return s, gam


def _checked_t(t):
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"Psi needs a finite t > 0, got t = {t}")
    return mpf(t)


_PRODUCTS: dict = {}   # (N, prec) -> [(coefficients of P_n, max |coefficient|)]
_cutoff = functools.cache(lambda prec: from_str("1e-45", prec, RND))   # at prec bits


def _frobenius_terms(N: int, t):
    """Yield (P_n, max |P_n|, t^{Nn}), n = 0, 1, ..., as raw libmp values at the working
    precision; each P_n = prod_{k<=n} (h-k)^{-N} is read once per (N, precision)."""
    kept = _PRODUCTS.setdefault((N, mp.prec), [])
    made = itertools.islice(rising_inverses(build_ring("P", N), -1, mpf(1)), len(kept), None)
    tn, tN = fone, (t ** N)._mpf_
    for n in itertools.count():
        if n == len(kept):
            prod = next(made).coeffs
            kept.append((tuple(x._mpf_ for x in prod), max(map(abs, prod))._mpf_))
        yield *kept[n], tn
        tn = mpf_mul(tn, tN, mp.prec, RND)


def frobenius_Pi(N: int, t, nmax: int = 80) -> CohClass:
    """Pi(t; h) = e^{-N h log t} sum_n prod_{k=1}^n (h-k)^{-N} t^{Nn} in
    H*(P^{N-1}) = C[h]/(h^N), with mpmath coefficients."""
    return _frobenius_Pi(N, t, nmax)[0]


def _frobenius_Pi(N: int, t, nmax: int):
    """(Pi(t; h), sizes of its largest summed and first omitted series term)."""
    t, prec, ring = _checked_t(t), mp.prec, build_ring("P", N)
    stop, series, biggest = 3 * int(t) + 6, [fzero] * N, fzero
    for n, (coeffs, top, tn) in enumerate(_frobenius_terms(N, t)):
        size = mpf_mul(tn, top, prec, RND)
        if n > nmax or (n > stop and mpf_lt(size, _cutoff(prec))):
            break
        series = [mpf_add(a, mpf_mul(c, tn, prec, RND), prec, RND) for a, c in zip(series, coeffs)]
        biggest = size if mpf_lt(biggest, size) else biggest
    Pi = exp_cup(CohClass(ring, [mp.make_mpf(a) for a in series]), ring.basis_class((1,)),
                 -N * mp_log(t))
    return Pi, mp.make_mpf(biggest), mp.make_mpf(size)


def _above_floor(psi, biggest, tail, N: int, t) -> float:
    """float(psi), or OverflowError when fewer than 9 of its digits are right:
    a summed term exceeds 10^(dps - 9) |psi| (the floor mellin_psi applies
    at float precision), or the series tail exceeds 1e-9 |psi|."""
    if biggest > mpf(10) ** (mp.dps - 9) * abs(psi) or tail > mpf("1e-9") * abs(psi):
        raise OverflowError(f"Psi series at N = {N}, t = {t} keeps fewer than 9 of "
                            f"{mp.dps} digits: terms up to {float(biggest):.3g}, "
                            f"last term {float(tail):.3g}, sum {float(psi):.3g}")
    return float(psi)


def psi_residue_sum(N: int, t) -> float:
    """Sum of residues: sum_n int_P Gamma(1+h)^N prod_{k<=n}(h-k)^{-N}
    t^{Nn - Nh} for n <= 80; term-by-term, so it is an independent route
    from int_P Gamma-hat cup Pi."""
    x, prec, ring = _checked_t(t), mp.prec, build_ring("P", N)
    base = exp_cup(gamma_class(ring), ring.basis_class((1,)), -N * mp_log(x))
    dual = [(c._mpf_, j) for c, j in zip(base.coeffs, ring.dual)]
    stop, total, biggest = 3 * int(x) + 6, fzero, fzero
    for n, (coeffs, _, tn) in zip(range(81), _frobenius_terms(N, x)):
        pair = fzero   # int_P base P_n
        for a, j in dual:
            pair = mpf_add(pair, mpf_mul(a, coeffs[j], prec, RND), prec, RND)
        term = mpf_mul(pair, tn, prec, RND)
        total = mpf_add(total, term, prec, RND)
        size = mpf_abs(term)
        biggest = size if mpf_lt(biggest, size) else biggest
        if n > stop and mpf_lt(size, mpf_mul(_cutoff(prec), mpf_add(fone, mpf_abs(total), prec, RND),
                                             prec, RND)):
            break
    return _above_floor(mp.make_mpf(total), mp.make_mpf(biggest), mp.make_mpf(size), N, t)


def psi_gamma_pi(N: int, t) -> float:
    """int_P Gamma-hat_P cup Pi(t; h): the connection-formula route."""
    Pi, biggest, tail = _frobenius_Pi(N, t, 80)
    return _above_floor(poincare_pair(gamma_class(Pi.ring), Pi), biggest, tail, N, t)


def psi_asymptotic_constant(N: int, t_grid) -> dict:
    """Estimate C in Psi(t) ~ C t^{-(N-1)/2} e^{-Nt}; quadratic-in-1/t
    Richardson on the last three grid values; target N^{-1/2}(2 pi)^{(N-1)/2}."""
    with mp.workdps(60):
        vals = []
        gam = gamma_class(build_ring("P", N))
        for t in t_grid:
            # residue sum at high precision (entire series, heavy cancellation)
            psi = poincare_pair(gam, frobenius_Pi(N, t, nmax=int(6 * t) + 40))
            vals.append(psi * mpf(t) ** (mpf(N - 1) / 2) * mp_exp(N * mpf(t)))
        extrap = _richardson3([mpf(t) for t in t_grid[-3:]], vals[-3:]) if len(vals) >= 3 else vals[-1]
        target = mpf(N) ** mpf("-0.5") * (2 * mp.pi) ** (mpf(N - 1) / 2)
        return {"grid": list(t_grid), "values": [float(v) for v in vals],
                "extrapolated": float(extrap), "target": float(target),
                "abs_error": float(abs(extrap - target))}


def _richardson3(ts, vals):
    """Fit v = C + a/t + b/t^2 through three points; return C."""
    x = [1 / t for t in ts]
    # Lagrange extrapolation to x = 0
    C = mpf(0)
    for i in range(3):
        li = mpf(1)
        for j in range(3):
            if j != i:
                li *= (0 - x[j]) / (x[i] - x[j])
        C += vals[i] * li
    return C
