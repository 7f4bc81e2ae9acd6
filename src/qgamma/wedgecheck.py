"""End-to-end quantum Satake checks: wedge law for the c1 spectrum, the
Kapranov wedge identity for Gamma-basis classes, and the compound rule for
the Gram of the Kapranov-Gamma marked reflection system.  Each claim is
compared once, against a side computed independently of it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mpc

from .rings import build_ring, normalize_partition, wedge_exponents
from .charclasses import (gamma_G_closed_form, gamma_basis_class, gamma_class,
                          satake_gamma_class)
from .connection import spectrum
from . import mrs as mrsmod


@dataclass
class SatakeCheckReport:
    case: str
    max_residual: float
    passed: bool


def check_wedge_spectrum(r: int, N: int) -> SatakeCheckReport:
    """Eigenvalues of c1 on G(r,N) versus r-fold distinct-index sums of the
    rotated projective-space spectrum N e^{(r-1) pi i / N} zeta^k."""
    resid = spectrum(build_ring("G", N, r)).closed_form_residual
    return SatakeCheckReport(case=f"spectrum G({r},{N})", max_residual=resid,
                             passed=resid < 1e-8)


def check_kapranov_wedge_identity(r: int, N: int, nu) -> SatakeCheckReport:
    """Gamma-hat_G Ch(S^nu V*) against the normalized Satake image of the
    wedge of Gamma-hat_P Ch(O(k_i)), k = wedge_exponents(nu, r), and the
    generic Gamma class of G(r,N) against its closed form (the same
    comparison for every nu)."""
    nu = normalize_partition(nu)
    ring_G = build_ring("G", N, r)
    pairs = [(gamma_basis_class(nu, ring_G), satake_gamma_class(nu, ring_G)),
             (gamma_class(ring_G), gamma_G_closed_form(r, N))]
    resid = max(float(abs(mpc(x) - mpc(y))) for a, b in pairs for x, y in zip(a.coeffs, b.coeffs))
    return SatakeCheckReport(case=f"kapranov G({r},{N}) nu={list(nu)}",
                             max_residual=resid, passed=resid < 1e-10)


def check_mrs_wedge(r: int, N: int, phi: float = -0.05) -> SatakeCheckReport:
    """The Gram of the Kapranov-Gamma MRS of G(r,N) against the r-th compound
    of the Gram of the Beilinson-Gamma MRS of P^{N-1}: both Grams rounded to
    integers, Kapranov[nu, mu] must equal the minor of the Beilinson Gram on
    rows wedge_exponents(nu, r) and columns wedge_exponents(mu, r).  The
    residual is the larger rounding error, or the largest integer mismatch."""
    mK = mrsmod.kapranov_gamma_mrs(r, N, phase=phi)
    if not mrsmod.is_admissible(mK.markings, phi):
        raise ValueError(f"phase {phi} not admissible for the summed markings")
    int_K, err_K = mrsmod.round_gram(mrsmod.gram(mK))
    int_B, err_B = mrsmod.round_gram(mrsmod.gram(mrsmod.beilinson_gamma_mrs(N, phase=phi)))
    unit = np.eye(N, dtype=int)
    wedges = [mrsmod.WedgeVec(((1, tuple(unit[k] for k in wedge_exponents(nu, r))),))
              for nu in build_ring("G", N, r).basis]
    minor = mrsmod.wedge_pairing_from(lambda a, b: a @ int_B @ b)
    compound = np.array([[minor(a, b) for b in wedges] for a in wedges])
    resid = max(err_K, err_B, float(np.max(np.abs(int_K - compound))))
    return SatakeCheckReport(case=f"mrs-wedge G({r},{N}) phi={phi}",
                             max_residual=resid, passed=resid < 1e-8)
