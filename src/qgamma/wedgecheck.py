"""End-to-end quantum Satake checks: wedge law for the c1 spectrum, the
Kapranov wedge identity for Gamma-basis classes, and the wedge/Kapranov
comparison of marked reflection systems."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpc

from .rings import (RingSpec, CohClass, build_ring, cup, exp_cup, satake,
                    normalize_partition, wedge_exponents)
from .charclasses import gamma_class, gamma_G_closed_form, kapranov_ch, bracket_pairing
from .connection import c1_matrix, spectrum_closed_form, multiset_distance
from . import mrs as mrsmod


@dataclass
class SatakeCheckReport:
    case: str
    max_residual: float
    passed: bool


def check_wedge_spectrum(r: int, N: int, tol: float = 1e-8) -> SatakeCheckReport:
    """Eigenvalues of c1 on G(r,N) versus r-fold distinct-index sums of the
    rotated projective-space spectrum N e^{(r-1) pi i / N} zeta^k."""
    resid = multiset_distance(np.linalg.eigvals(c1_matrix(build_ring("G", N, r))),
                              spectrum_closed_form(r, N))
    return SatakeCheckReport(case=f"spectrum G({r},{N})", max_residual=resid,
                             passed=resid < tol)


def satake_normalized(factors, ring_G: RingSpec) -> CohClass:
    """(2 pi i)^{-r(r-1)/2} e^{-(r-1) pi i sigma_1} Sat(f_1 ^ ... ^ f_r)."""
    r = ring_G.r
    raw = satake(factors, ring_G)
    pref = (2j * mp.pi) ** (-(r * (r - 1) // 2))
    return exp_cup(raw, ring_G.basis_class((1,)), -(r - 1) * 1j * mp.pi) * pref


def check_kapranov_wedge_identity(r: int, N: int, nu,
                                  tol: float = 1e-10) -> SatakeCheckReport:
    """Gamma-hat_G Ch(S^nu V*) against the normalized Satake image of the
    wedge of Gamma-hat_P Ch(O(k_i)), k = wedge_exponents(nu, r); the left
    side goes through both the generic Gamma class and its closed form."""
    nu = normalize_partition(nu)
    ring_G = build_ring("G", N, r)
    chS = kapranov_ch(nu, ring_G)
    lhs_generic = cup(gamma_class(ring_G), chS)
    lhs_closed = cup(gamma_G_closed_form(r, N), chS)
    ring_P = build_ring("P", N)
    gam_P = gamma_class(ring_P)
    rhs = satake_normalized([cup(gam_P, kapranov_ch((k,), ring_P))   # O(k) = S^(k) V*
                             for k in wedge_exponents(nu, r)], ring_G)
    resid = max(float(abs(mpc(a) - mpc(b))) for lhs in (lhs_generic, lhs_closed)
                for a, b in zip(lhs.coeffs, rhs.coeffs))
    return SatakeCheckReport(case=f"kapranov G({r},{N}) nu={list(nu)}",
                             max_residual=resid, passed=resid < tol)


def check_mrs_wedge(r: int, N: int, phi: float = -0.05,
                    tol: float = 1e-8) -> SatakeCheckReport:
    """Wedge of the rotated Beilinson-Gamma MRS of P^{N-1}, pushed through
    the normalized Satake map, against the Kapranov-Gamma MRS of G(r,N):
    per-vector match up to sign, integer Gram equality, marking multisets."""
    ring_G = build_ring("G", N, r)
    mP = mrsmod.beilinson_gamma_mrs(N, phase=phi)
    rot = cmath.exp(1j * math.pi * (r - 1) / N)
    rotated = [rot * u for u in mP.markings]
    mK = mrsmod.kapranov_gamma_mrs(r, N, phase=phi)
    if not mrsmod.is_admissible(mK.markings, phi):
        raise ValueError(f"phase {phi} not admissible for the summed markings")

    exponents = [wedge_exponents(nu, r) for nu in ring_G.basis]
    mapped = [satake_normalized([mP.vectors[k] for k in ks], ring_G) for ks in exponents]
    wedge_marks = [sum(rotated[k] for k in reversed(ks)) for ks in exponents]

    signs = []
    vec_resid = 0.0
    for w, kap in zip(mapped, mK.vectors):
        rp = max(float(abs(mpc(a) - mpc(b))) for a, b in zip(w.coeffs, kap.coeffs))
        rm = max(float(abs(mpc(a) + mpc(b))) for a, b in zip(w.coeffs, kap.coeffs))
        signs.append(1 if rp <= rm else -1)
        vec_resid = max(vec_resid, min(rp, rm))

    gram_W = mrsmod.gram(mrsmod.SOB(mapped, bracket_pairing))
    int_K, err_K = mrsmod.round_gram(mrsmod.gram(mrsmod.SOB(mK.vectors, bracket_pairing)))
    int_W, err_W = mrsmod.round_gram(gram_W * np.outer(signs, signs))
    gram_round_err = max(err_K, err_W)
    gram_ok = bool(np.array_equal(int_K, int_W)) and gram_round_err < tol

    mark_resid = multiset_distance(wedge_marks, mK.markings)
    return SatakeCheckReport(case=f"mrs-wedge G({r},{N}) phi={phi}",
                             max_residual=max(vec_resid, mark_resid, gram_round_err),
                             passed=gram_ok and vec_resid < tol and mark_resid < tol)
