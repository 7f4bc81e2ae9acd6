"""Acceptance-check runners.  Each criterion_k() returns a dict with a
"passed" flag plus the measured numbers; run_all() collects them into the
table printed by the CLI verify-all subcommand."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mpmath import mpf

from .rings import build_ring, compound
from .charclasses import zeta_reg_reciprocal_product, zeta_reg_closed_form
from .connection import (spectrum, spectrum_closed_form, j_coefficients,
                         j_closed_form_P, quantum_period)
from .asympt import (limit_ratio, apery_precondition, apery_ratios,
                     radius_estimate, mellin_psi, psi_residue_sum,
                     psi_gamma_pi, psi_asymptotic_constant)
from . import mrs as mrsmod
from .mrs import (braid_act, euler_matrix, gram_of_rows, integer_gram,
                  is_uni_uppertriangular, phase_rotation)
from .wedgecheck import check_kapranov_wedge_identity, check_mrs_wedge


def criterion_1():
    """Property O and c1 spectra for P^1..P^5, G(2,4), G(2,5)."""
    tol = 1e-8
    ok = True
    for N in range(2, 7):
        ok &= spectrum(build_ring("P", N)).property_o_holds
    rep24 = spectrum(build_ring("G", 4, 2))
    t24 = abs(rep24.T - 4 * math.sqrt(2))
    zero_mult = next((m for v, m in rep24.eigenvalues if abs(v) < 1e-8), 0)
    rep25 = spectrum(build_ring("G", 5, 2))
    t25 = abs(rep25.T - 5 * math.sin(2 * math.pi / 5) / math.sin(math.pi / 5))
    ok &= t24 < tol and zero_mult == 2 and t25 < tol
    ok &= rep25.T_multiplicity == 1 and rep24.property_o_holds and rep25.property_o_holds
    return {"id": 1, "name": "Property O and spectra",
            "passed": bool(ok),
            # spectrum certifies the closed form exactly or raises: no residual
            "details": {"P_multiset_residual": 0.0, "G24_T_err": t24,
                        "G24_zero_multiplicity": zero_mult, "G25_T_err": t25,
                        "G25_T_multiplicity": rep25.T_multiplicity}}


def criterion_2():
    """J-function recursion against the closed-form series on P^1..P^4."""
    worst = Fraction(0)
    for N in range(2, 6):
        ring = build_ring("P", N)
        rec = j_coefficients(ring, 3 * N)
        closed = j_closed_form_P(N, 3 * N)
        for a, b in zip(rec, closed):
            for x, y in zip(a.coeffs, b.coeffs):
                worst = max(worst, abs(Fraction(x) - Fraction(y)))
    return {"id": 2, "name": "Fundamental-solution oracle",
            "passed": worst < Fraction(1, 10**12),
            "details": {"max_coeff_diff": float(worst)}}


def criterion_3():
    """Gamma Conjecture I limit on P^2, P^3, G(2,4)."""
    cases = [("P", 3, 1, [8, 10, 12], 1e-6), ("P", 4, 1, [8, 10, 12], 1e-6),
             ("G", 4, 2, [4, 5, 6], 1e-4)]
    details = {}
    ok = True
    for kind, N, r, grid, tol in cases:
        ring = build_ring(kind, N, r)
        rep = limit_ratio(ring, grid, tol=tol)
        details[f"{kind}({r},{N})"] = rep.notes["gap_to_gamma"]
        ok &= rep.converged
    return {"id": 3, "name": "Gamma Conjecture I limit", "passed": bool(ok),
            "details": details}


def criterion_4():
    """Beilinson and Kapranov Gamma-basis Grams: integer, uni-uppertriangular
    in the collection order, equal to the exact Euler matrix of the ring."""
    tol = 1e-9
    ok = True
    worst = 0.0
    for m in [*(mrsmod.beilinson_gamma_mrs(N) for N in [3, 4, 5]),
              mrsmod.kapranov_gamma_mrs(2, 4)]:
        gi, err = integer_gram(m)
        worst = max(worst, err)
        ok &= is_uni_uppertriangular(gi)
        ok &= gi == euler_matrix(m.vectors[0].ring)
    ok &= worst < tol
    return {"id": 4, "name": "Gram = Euler pairing", "passed": bool(ok),
            "details": {"max_rounding_error": worst}}


def criterion_5():
    """Satake wedge identity for every partition in the box."""
    rings = [(2, 4), (2, 5), (3, 6)]
    reports = [check_kapranov_wedge_identity(r, N) for r, N in rings]
    return {"id": 5, "name": "Satake wedge identity",
            "passed": all(rep.passed for rep in reports),
            "details": {"cases": sum(build_ring("G", N, r).rank for r, N in rings),
                        "max_residual": max(rep.max_residual for rep in reports)}}


def criterion_6():
    """Mellin solution: N=1 closed form, three-way route agreement, and the
    asymptotic constant."""
    e1 = max(abs(mellin_psi(1, t) - math.exp(-t)) for t in [0.5, 1, 2])
    three = 0.0
    for N in [2, 3]:
        for t in [0.5, 1, 2]:
            a, b, c = mellin_psi(N, t), psi_residue_sum(N, t), psi_gamma_pi(N, t)
            three = max(three, abs(a - b), abs(b - c), abs(a - c))
    asym = {}
    for N in [2, 3]:
        asym[N] = psi_asymptotic_constant(N, [6, 7, 8])["abs_error"]
    ok = e1 < 1e-10 and three < 1e-8 and all(v < 1e-3 for v in asym.values())
    return {"id": 6, "name": "Mellin solution", "passed": bool(ok),
            "details": {"N1_vs_exp_err": e1, "three_way_err": three,
                        "asym_const_err": asym}}


def criterion_7():
    """Apery limit on G(2,5)."""
    ring = build_ring("G", 5, 2)
    g = ring.basis_class((3, 1)) - ring.basis_class((2, 2))
    pre = apery_precondition(ring, g)
    rep = apery_ratios(ring, g, [20, 30, 40], tol=1e-6)
    return {"id": 7, "name": "Apery limit", "passed": bool(pre and rep.converged),
            "details": {"precondition_exact": pre, "gap_at_40": rep.notes["gap"],
                        "target": rep.target}}


def criterion_8():
    """Radius of the regularized quantum period against T."""
    details = {}
    ok = True
    for kind, N, r, nmax, reltol in [("P", 2, 1, 600, 0.02), ("P", 3, 1, 600, 0.02),
                                     ("G", 5, 2, 300, 0.05)]:
        ring = build_ring(kind, N, r)
        scaled = quantum_period(ring, nmax, exact=False)
        est = radius_estimate(scaled)["ratio_refined"]
        T = spectrum(ring).T
        rel = abs(est - T) / T
        details[f"{kind}({r},{N})"] = {"estimate": est, "T": T, "rel_err": rel}
        ok &= rel < reltol
    return {"id": 8, "name": "Quantum-period radius", "passed": bool(ok),
            "details": details}


def criterion_9():
    """Braid relations on random integer SOBs; mutation preserves the SOB
    shape; P^2 full-rotation monodromy is an integer matrix of determinant 1."""
    rng = random.Random(20240817)
    ok = True
    n = 4
    for _ in range(100):
        G = [[rng.randint(-5, 5) if j > i else int(i == j) for j in range(n)] for i in range(n)]
        for i in range(1, n):
            ok &= braid_act(G, [i, -i]) == braid_act(G, [])
            ok &= is_uni_uppertriangular(gram_of_rows(braid_act(G, [i]), G))
        ok &= braid_act(G, [1, 2, 1]) == braid_act(G, [2, 1, 2])
        ok &= braid_act(G, [1, 3]) == braid_act(G, [3, 1])
    G3 = euler_matrix(build_ring("P", 3))
    phase = -(math.pi / 2 + 0.3)
    rows, _ = phase_rotation(G3, spectrum_closed_form(1, 3), phase, phase - 2 * math.pi)
    det = compound(rows, 3)[(0, 1, 2), (0, 1, 2)]   # rows is the monodromy's transpose
    ok &= abs(det) == 1 and gram_of_rows(rows, G3) == G3
    return {"id": 9, "name": "Mutation suite", "passed": bool(ok),
            "details": {"monodromy_det": det, "monodromy": [list(c) for c in zip(*rows)]}}


def criterion_10():
    """Zeta-regularized product: numeric Hurwitz route vs closed form."""
    worst = 0.0
    for delta in [mpf("0.5"), mpf(1), mpf("1.5"), mpf(2)]:
        for z in [mpf("0.5"), mpf(1), mpf(2)]:
            num = zeta_reg_reciprocal_product(delta, z)
            cf = zeta_reg_closed_form(delta, z)
            worst = max(worst, float(abs(num - cf) / abs(cf)))
    return {"id": 10, "name": "Zeta-regularized product",
            "passed": worst < 1e-30, "details": {"max_rel_err": worst}}


def criterion_11():
    """MRS wedge comparison for (2,4) and (2,5)."""
    r24 = check_mrs_wedge(2, 4)
    r25 = check_mrs_wedge(2, 5)
    return {"id": 11, "name": "MRS wedge", "passed": r24.passed and r25.passed,
            "details": {"G24_residual": r24.max_residual,
                        "G25_residual": r25.max_residual}}


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11]


def run_all():
    return [f() for f in ALL_CRITERIA]
