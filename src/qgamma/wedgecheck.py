"""End-to-end quantum Satake checks on G(r,N), one report per claim: wedge
law for the c1 spectrum, the Kapranov wedge identity for the Gamma-basis
classes of the whole box, and the compound rule for the Gram of the
Kapranov-Gamma marked reflection system (both numeric Grams against the
exact Euler matrices of their rings).  Each claim is compared once, against
a side computed independently of it."""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpc

from .rings import build_ring
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
    """Eigenvalues of c1 on G(r,N) are the r-fold distinct-index sums of the
    rotated projective-space spectrum N e^{(r-1) pi i / N} zeta^k: `spectrum`
    certifies this exactly, by eigen-rows mod a prime, or raises
    ArithmeticError, so no residual is left."""
    spectrum(build_ring("G", N, r))
    return SatakeCheckReport(case=f"spectrum G({r},{N})", max_residual=0.0, passed=True)


def check_kapranov_wedge_identity(r: int, N: int) -> SatakeCheckReport:
    """Gamma-hat_G Ch(S^nu V*) against the normalized Satake image of the
    wedge of Gamma-hat_P Ch(O(k_i)), k = wedge_exponents(nu, r), for every
    nu in the box, and the generic Gamma class of G(r,N) against its closed
    form, once.  The residual is the largest over all these pairs."""
    ring_G = build_ring("G", N, r)
    pairs = [(gamma_basis_class(nu, ring_G), satake_gamma_class(nu, ring_G)) for nu in ring_G.basis]
    pairs.append((gamma_class(ring_G), gamma_G_closed_form(r, N)))
    resid = max(float(abs(mpc(x) - mpc(y))) for a, b in pairs for x, y in zip(a.coeffs, b.coeffs))
    return SatakeCheckReport(case=f"kapranov G({r},{N})", max_residual=resid, passed=resid < 1e-10)


def check_mrs_wedge(r: int, N: int) -> SatakeCheckReport:
    """The Gram of the Kapranov-Gamma MRS of G(r,N) against the r-th compound
    of the Gram of the Beilinson-Gamma MRS of P^{N-1}: both Grams rounded to
    integers, each must equal the exact euler_matrix of its ring, the former
    being the compound of the latter read at wedge_exponents.  The residual
    is the larger rounding error, or the largest integer mismatch.  Both
    Grams are compared in basis order, so no phase enters."""
    resid = 0.0
    for m, ring in [(mrsmod.kapranov_gamma_mrs(r, N), build_ring("G", N, r)),
                    (mrsmod.beilinson_gamma_mrs(N), build_ring("P", N))]:
        ints, err = mrsmod.integer_gram(m)
        mismatch = max(abs(a - b) for row, want in zip(ints, mrsmod.euler_matrix(ring))
                       for a, b in zip(row, want))
        resid = max(resid, err, float(mismatch))
    return SatakeCheckReport(case=f"mrs-wedge G({r},{N})",
                             max_residual=resid, passed=resid < 1e-8)
