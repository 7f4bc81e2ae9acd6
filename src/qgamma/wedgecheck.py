"""End-to-end quantum Satake checks on G(r,N), one report per claim: wedge
law for the c1 spectrum, the Kapranov wedge identity for the Gamma-basis
classes of the whole box, and the Gram of the Gamma basis of G(r,N) and of
P^{N-1} against the exact Euler matrices of their rings.  Each claim is
compared once, against a side computed independently of it.

The identities are polynomial in Euler's constant, 2 pi i, zeta(3),
zeta(5), ... (zeta(2k) is a rational multiple of (2 pi i)^{2k}), so they are
compared exactly at one pseudo-random point of that ring over F_p
(charclasses.FP_POINT, p the first prime above 2^61).  Each coefficient of
a false identity, times (2 pi i)^{C(r,2)}, is a nonzero polynomial of degree
at most dim + C(r,2) that vanishes at the point with probability at most
(dim + C(r,2)) / p over its draw (Schwartz, JACM 1980): 2.2e-18 on G(2,4),
below 2e-14 for every ring in range.  A failed
exact comparison reports its number of mismatched coefficients or entries
as the residual, so a failure reads >= 1."""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mpc

from .rings import build_ring
from .charclasses import (FP_POINT, Fp, bracket_row, gamma_G_closed_form,
                          gamma_basis_class, gamma_class, satake_gamma_class)
from .connection import spectrum
from .mrs import euler_matrix


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
    form, exactly at the F_p point.  The 40-digit Gamma class, the numbers
    `gamma` prints, is also compared with the 40-digit closed form; the
    residual is the larger of that largest coefficient gap (infinite if one
    is not finite) and the number of mismatched F_p coefficients."""
    ring_G = build_ring("G", N, r)
    pairs = [(gamma_basis_class(nu, ring_G, FP_POINT), satake_gamma_class(nu, ring_G, FP_POINT))
             for nu in ring_G.basis]
    pairs.append((gamma_class(ring_G, FP_POINT), gamma_G_closed_form(r, N, FP_POINT)))
    mismatched = sum(x != y for a, b in pairs for x, y in zip(a.coeffs, b.coeffs))
    gaps = [float(abs(mpc(x) - mpc(y)))
            for x, y in zip(gamma_class(ring_G).coeffs, gamma_G_closed_form(r, N).coeffs)]
    # max() would drop a NaN that follows a finite gap
    resid = max(gaps) if all(map(math.isfinite, gaps)) else math.inf
    return SatakeCheckReport(case=f"kapranov G({r},{N})", max_residual=max(float(mismatched), resid),
                             passed=not mismatched and resid < 1e-10)


def check_mrs_wedge(r: int, N: int) -> SatakeCheckReport:
    """The Gram [Gamma-hat Ch(E), Gamma-hat Ch(F)) of the Gamma basis of
    G(r,N) (the Kapranov collection) and of P^{N-1} (the Beilinson one) at
    the F_p point, each against the exact euler_matrix of its ring, the
    former being the r-th compound of the latter read at wedge_exponents.
    The residual is the number of mismatched entries.  Both Grams are
    compared in basis order, so no phase enters."""
    mismatched = 0
    for ring in (build_ring("G", N, r), build_ring("P", N)):
        basis = [gamma_basis_class(nu, ring, FP_POINT) for nu in ring.basis]
        for a, want in zip(basis, euler_matrix(ring)):
            pair = bracket_row(a, FP_POINT)
            mismatched += sum(pair(b) != Fp(chi) for b, chi in zip(basis, want))
    return SatakeCheckReport(case=f"mrs-wedge G({r},{N})", max_residual=float(mismatched),
                             passed=not mismatched)
