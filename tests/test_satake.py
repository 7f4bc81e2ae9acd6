"""End-to-end Satake verification layer."""

import math

import pytest
from mpmath import mp, mpc, mpf

from qgamma import charclasses, mrs, verify, wedgecheck
from qgamma.rings import CohClass, build_ring, exp_cup, satake, wedge_exponents
from qgamma.charclasses import bracket_pairing, gamma_class, satake_gamma_class
from qgamma.wedgecheck import (check_wedge_spectrum,
                               check_kapranov_wedge_identity,
                               check_mrs_wedge)


@pytest.mark.parametrize("r,N", [(2, 4), (2, 5), (3, 6)])
def test_wedge_spectrum(r, N):
    rep = check_wedge_spectrum(r, N)
    assert rep.passed
    assert rep.max_residual < 1e-8


def test_wedge_spectrum_trivial_r1():
    rep = check_wedge_spectrum(1, 4)
    assert rep.passed


@pytest.mark.parametrize("r,N", [(2, 4), (2, 5)])
def test_kapranov_identity_full_box(r, N):
    rep = check_kapranov_wedge_identity(r, N)
    assert rep.case == f"kapranov G({r},{N})"
    assert rep.passed and rep.max_residual < 1e-10


def test_kapranov_identity_sample_g36():
    # the whole G(3,6) box, 20 partitions, in one report
    rep = check_kapranov_wedge_identity(3, 6)
    assert rep.passed and rep.max_residual < 1e-10


def test_kapranov_identity_trivial_r1():
    rep = check_kapranov_wedge_identity(1, 3)
    assert rep.passed and rep.max_residual < 1e-25


def test_kapranov_identity_fails_on_a_perturbed_closed_form(monkeypatch):
    # the closed form is compared with the generic Gamma class once per ring
    honest = wedgecheck.gamma_G_closed_form

    def perturbed(r, N):
        gam = honest(r, N)
        coeffs = list(gam.coeffs)
        coeffs[3] += mpf("1e-6")
        return CohClass(gam.ring, coeffs)
    monkeypatch.setattr(wedgecheck, "gamma_G_closed_form", perturbed)
    rep = check_kapranov_wedge_identity(2, 4)
    assert not rep.passed
    assert abs(rep.max_residual - 1e-6) < 1e-12


@pytest.mark.parametrize("twist", [lambda r: -r, lambda r: r - 1], ids=["-r", "r-1"])
def test_kapranov_identity_fails_on_a_mistwisted_satake_image(monkeypatch, twist):
    # the P^{N-1} factors twisted by twist(r) pi i instead of -(r-1) pi i:
    # only the Satake side of each partition's comparison sees it
    def mistwisted(ring_P, r, k):
        return exp_cup(charclasses.gamma_basis_class((k,), ring_P), ring_P.basis_class((1,)),
                       twist(r) * 1j * mp.pi)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    assert check_kapranov_wedge_identity(2, 4).passed and verify.criterion_5()["passed"]
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses, "_twisted_gamma_basis_class", mistwisted)
    rep = check_kapranov_wedge_identity(2, 4)
    assert not rep.passed and rep.max_residual > 1
    c5 = verify.criterion_5()
    assert not c5["passed"] and c5["details"]["max_residual"] > 1


def test_criterion_5_reads_each_closed_form_once(monkeypatch):
    # one ring-level comparison per Grassmannian, not one per partition
    honest = wedgecheck.gamma_G_closed_form
    calls = []

    def counted(r, N):
        calls.append((r, N))
        return honest(r, N)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(wedgecheck, "gamma_G_closed_form", counted)
    c5 = verify.criterion_5()
    assert c5["passed"] and c5["details"]["cases"] == 36
    assert calls == [(2, 4), (2, 5), (3, 6)]


def test_mrs_wedge_g24():
    rep = check_mrs_wedge(2, 4)
    # passed requires the Kapranov Gram to be the compound of the Beilinson one
    assert rep.passed and rep.max_residual < 1e-8


def test_mrs_wedge_g25():
    rep = check_mrs_wedge(2, 5)
    assert rep.passed


def test_mrs_wedge_fails_on_a_negated_kapranov_vector(monkeypatch):
    # the Kapranov identity fixes every sign to +1, so a sign flip is a failure
    honest = mrs.kapranov_gamma_mrs

    def negate_one(r, N):
        m = honest(r, N)
        m.vectors[2] = -m.vectors[2]
        return m
    monkeypatch.setattr(mrs, "kapranov_gamma_mrs", negate_one)
    rep = check_mrs_wedge(2, 4)
    assert not rep.passed
    assert rep.max_residual > 1


def test_mrs_wedge_fails_on_a_negated_beilinson_vector(monkeypatch):
    # the Kapranov Gram is read against the minors of the Beilinson Gram, so
    # a sign flip on P^3 changes every minor with that row or column once
    honest = mrs.beilinson_gamma_mrs

    def negate_one(N):
        m = honest(N)
        m.vectors[1] = -m.vectors[1]
        return m
    monkeypatch.setattr(mrs, "beilinson_gamma_mrs", negate_one)
    rep = check_mrs_wedge(2, 4)
    assert not rep.passed
    assert rep.max_residual >= 1


def test_criterion_4_fails_on_a_negated_kapranov_vector(monkeypatch):
    # a sign flip keeps the G(2,4) Gram integral and uni-uppertriangular:
    # only its comparison with the exact Euler matrix sees it
    honest = mrs.kapranov_gamma_mrs

    def negate_one(r, N):
        m = honest(r, N)
        m.vectors[2] = -m.vectors[2]
        return m
    assert verify.criterion_4()["passed"]
    monkeypatch.setattr(mrs, "kapranov_gamma_mrs", negate_one)
    assert not verify.criterion_4()["passed"]


@pytest.mark.parametrize("r,N", [(2, 6), (3, 6), (3, 7)])
def test_kapranov_gram_is_the_compound_of_the_beilinson_gram(r, N):
    # Ueda's identity past criterion 11's targets; the residual is only the
    # Grams' rounding error
    rep = check_mrs_wedge(r, N)
    assert rep.passed and rep.max_residual < 1e-25


def test_criterion_11_reports_the_gram_rounding_margin():
    details = verify.criterion_11()["details"]
    assert details["G24_residual"] < 1e-30 and details["G25_residual"] < 1e-30


def test_criteria_5_and_11_take_each_satake_image_once(monkeypatch):
    build = charclasses.satake
    calls = []

    def counted(factors, ring_G):
        calls.append((ring_G.r, ring_G.N))
        return build(factors, ring_G)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses, "satake", counted)
    assert verify.criterion_5()["passed"]
    # the boxes of G(2,4), G(2,5), G(3,6), and one closed-form Gamma class each
    assert len(calls) == 6 + 10 + 20 + 3
    assert verify.criterion_11()["passed"]
    assert len(calls) == 39


def test_scalar_products_never_format_the_class(monkeypatch):
    # an mpmath scalar on the left of a CohClass formats repr(CohClass) for a
    # failed conversion before Python falls back to __rmul__; the class goes
    # on the left so that path is never taken
    def refuse(self):
        raise AssertionError("repr(CohClass) was formatted")
    monkeypatch.setattr(CohClass, "__repr__", refuse)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})   # build every class here
    P3 = build_ring("P", 4)
    s = mpc(0.5, 1.5)
    out = exp_cup(P3.unit(), P3.basis_class((1,)), s)
    assert all(abs(c - s ** k / math.factorial(k)) < 1e-30 for k, c in enumerate(out.coeffs))
    G24 = build_ring("G", 4, 2)
    gam = gamma_class(G24)
    assert abs(bracket_pairing(gam, gam) - 1) < 1e-20
    assert len(satake_gamma_class((2, 1), G24).coeffs) == G24.rank


@pytest.mark.parametrize("r,N", [(2, 4), (2, 5), (3, 6)])
def test_satake_gamma_class_is_the_sigma_1_twist_on_the_grassmannian(r, N):
    # the oracle twists the Satake image on G(r,N), as Kapranov's identity
    # is written; satake_gamma_class twists the P^{N-1} factors instead
    ring_G, ring_P = build_ring("G", N, r), build_ring("P", N)
    pref = (2j * mp.pi) ** (-(r * (r - 1) // 2))
    for nu in ring_G.basis:
        raw = satake([charclasses.gamma_basis_class((k,), ring_P) for k in wedge_exponents(nu, r)],
                     ring_G)
        want = exp_cup(raw, ring_G.basis_class((1,)), -(r - 1) * 1j * mp.pi) * pref
        got = satake_gamma_class(nu, ring_G)
        scale = max(abs(c) for c in want.coeffs)
        assert max(abs(g - w) for g, w in zip(got.coeffs, want.coeffs)) < mpf("1e-33") * scale
