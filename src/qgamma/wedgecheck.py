"""End-to-end quantum Satake checks: wedge law for the c1 spectrum, the
Kapranov wedge identity for Gamma-basis classes, and the wedge/Kapranov
comparison of marked reflection systems."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mpc

from .rings import build_ring, cup, normalize_partition, wedge_exponents
from .charclasses import (gamma_G_closed_form, gamma_basis_class, kapranov_ch,
                          satake_gamma_class, bracket_pairing)
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


def check_kapranov_wedge_identity(r: int, N: int, nu,
                                  tol: float = 1e-10) -> SatakeCheckReport:
    """Gamma-hat_G Ch(S^nu V*) against the normalized Satake image of the
    wedge of Gamma-hat_P Ch(O(k_i)), k = wedge_exponents(nu, r); the left
    side goes through both the generic Gamma class and its closed form."""
    nu = normalize_partition(nu)
    ring_G = build_ring("G", N, r)
    lhs_generic = gamma_basis_class(nu, ring_G)
    lhs_closed = cup(gamma_G_closed_form(r, N), kapranov_ch(nu, ring_G))
    rhs = satake_gamma_class(nu, ring_G)
    resid = max(float(abs(mpc(a) - mpc(b))) for lhs in (lhs_generic, lhs_closed)
                for a, b in zip(lhs.coeffs, rhs.coeffs))
    return SatakeCheckReport(case=f"kapranov G({r},{N}) nu={list(nu)}",
                             max_residual=resid, passed=resid < tol)


def check_mrs_wedge(r: int, N: int, phi: float = -0.05,
                    tol: float = 1e-8) -> SatakeCheckReport:
    """Wedge of the Beilinson-Gamma MRS of P^{N-1}, pushed through the
    normalized Satake map, against the Kapranov-Gamma MRS of G(r,N):
    per-vector match (the Kapranov identity fixes the sign to +1), integer
    Gram equality, and the summed rotated P-markings against the G ones."""
    ring_G = build_ring("G", N, r)
    rot = cmath.exp(1j * math.pi * (r - 1) / N)
    rotated = [rot * u for u in spectrum_closed_form(1, N)]
    mK = mrsmod.kapranov_gamma_mrs(r, N, phase=phi)
    if not mrsmod.is_admissible(mK.markings, phi):
        raise ValueError(f"phase {phi} not admissible for the summed markings")

    mapped = [satake_gamma_class(nu, ring_G) for nu in ring_G.basis]
    wedge_marks = [sum(rotated[k] for k in reversed(wedge_exponents(nu, r)))
                   for nu in ring_G.basis]
    vec_resid = max(float(abs(mpc(a) - mpc(b))) for w, kap in zip(mapped, mK.vectors)
                    for a, b in zip(w.coeffs, kap.coeffs))

    int_K, err_K = mrsmod.round_gram(mrsmod.gram(mrsmod.SOB(mK.vectors, bracket_pairing)))
    int_W, err_W = mrsmod.round_gram(mrsmod.gram(mrsmod.SOB(mapped, bracket_pairing)))
    gram_round_err = max(err_K, err_W)
    gram_ok = bool(np.array_equal(int_K, int_W)) and gram_round_err < tol

    mark_resid = multiset_distance(wedge_marks, mK.markings)
    return SatakeCheckReport(case=f"mrs-wedge G({r},{N}) phi={phi}",
                             max_residual=max(vec_resid, mark_resid, gram_round_err),
                             passed=gram_ok and vec_resid < tol and mark_resid < tol)
