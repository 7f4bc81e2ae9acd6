"""End-to-end Satake verification layer."""

import itertools
import math
import random

import pytest
from mpmath import mp, mpc, mpf

from qgamma import charclasses, mrs, verify, wedgecheck
from qgamma.cli import main
from qgamma.mrs import euler_matrix
from qgamma.rings import (CohClass, build_ring, exp_cup, partitions_in_box, satake,
                          wedge_exponents, wedge_matrix)
from qgamma.charclasses import Fp, bracket_pairing, gamma_class, satake_gamma_class
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


@pytest.mark.parametrize("r,N", [(3, 4), (3, 5), (4, 6), (5, 7)])
def test_kapranov_identity_past_half_the_box(r, N):
    # 2r > N: the exterior power has more factors than the box has columns
    rep = check_kapranov_wedge_identity(r, N)
    assert rep.passed and rep.max_residual < 1e-10


def test_kapranov_identity_trivial_r1():
    rep = check_kapranov_wedge_identity(1, 3)
    assert rep.passed and rep.max_residual < 1e-25


def _perturbed_closed_form(monkeypatch, at_point, shift):
    # coefficient 3 of the closed form at one period point moved by shift
    honest = wedgecheck.gamma_G_closed_form

    def perturbed(r, N, point=charclasses.MP_POINT):
        gam = honest(r, N, point)
        if point is not at_point:
            return gam
        coeffs = list(gam.coeffs)
        coeffs[3] += shift
        return CohClass(gam.ring, coeffs)
    monkeypatch.setattr(wedgecheck, "gamma_G_closed_form", perturbed)


def test_kapranov_identity_fails_on_a_perturbed_closed_form(monkeypatch):
    # the closed form is compared with the generic Gamma class once per ring
    _perturbed_closed_form(monkeypatch, charclasses.MP_POINT, mpf("1e-6"))
    rep = check_kapranov_wedge_identity(2, 4)
    assert not rep.passed
    assert abs(rep.max_residual - 1e-6) < 1e-12


def test_kapranov_identity_fails_on_a_perturbed_exact_closed_form(monkeypatch):
    # the F_p closed form is compared exactly: one coefficient off by 1
    _perturbed_closed_form(monkeypatch, charclasses.FP_POINT, 1)
    rep = check_kapranov_wedge_identity(2, 4)
    assert not rep.passed and rep.max_residual == 1.0


def test_kapranov_identity_fails_on_a_nan_closed_form(monkeypatch, capsys):
    # max() over floats drops a NaN that follows a finite value; the check
    # must not, and the CLI must not print it
    _perturbed_closed_form(monkeypatch, charclasses.MP_POINT, mpf("nan"))
    rep = check_kapranov_wedge_identity(2, 4)
    assert not rep.passed and rep.max_residual == math.inf
    assert main(["satake", "--target", "G(2,4)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "nan" not in captured.err.lower()


@pytest.mark.parametrize("twist", [lambda r: -r, lambda r: r - 1], ids=["-r", "r-1"])
def test_kapranov_identity_fails_on_a_mistwisted_satake_image(monkeypatch, twist):
    # the P^{N-1} factors twisted by twist(r) pi i instead of -(r-1) pi i:
    # only the Satake side of each partition's comparison sees it
    def mistwisted(ring_P, r, k, point):
        return exp_cup(charclasses.gamma_basis_class((k,), ring_P, point), ring_P.basis_class((1,)),
                       twist(r) * point.tau / 2)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    assert check_kapranov_wedge_identity(2, 4).passed and verify.criterion_5()["passed"]
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses, "_twisted_gamma_basis_class", mistwisted)
    rep = check_kapranov_wedge_identity(2, 4)
    # the residual counts the mismatched F_p coefficients
    assert not rep.passed and rep.max_residual >= 1
    c5 = verify.criterion_5()
    assert not c5["passed"] and c5["details"]["max_residual"] >= 1


def test_criterion_5_reads_each_closed_form_once(monkeypatch):
    # one ring-level comparison per Grassmannian and period point, not one
    # per partition
    honest = wedgecheck.gamma_G_closed_form
    calls = []

    def counted(r, N, point=charclasses.MP_POINT):
        calls.append((r, N, point.key[0]))
        return honest(r, N, point)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(wedgecheck, "gamma_G_closed_form", counted)
    c5 = verify.criterion_5()
    assert c5["passed"] and c5["details"]["cases"] == 36
    assert calls == [(r, N, key) for r, N in [(2, 4), (2, 5), (3, 6)] for key in ["F_p", "mp"]]


def test_mrs_wedge_g24():
    rep = check_mrs_wedge(2, 4)
    # passed requires the Kapranov Gram to be the compound of the Beilinson one
    assert rep.passed and rep.max_residual < 1e-8


def test_mrs_wedge_g25():
    rep = check_mrs_wedge(2, 5)
    assert rep.passed


def _negate_one_basis_vector(monkeypatch, kind, nu):
    # the F_p Gamma-basis class of nu on the rings of one kind, negated
    honest = wedgecheck.gamma_basis_class

    def negate_one(lam, ring, point=charclasses.MP_POINT):
        v = honest(lam, ring, point)
        return -v if (ring.kind, tuple(lam)) == (kind, nu) and point is charclasses.FP_POINT else v
    monkeypatch.setattr(wedgecheck, "gamma_basis_class", negate_one)


def _off_diagonal_support(ring, nu) -> int:
    # the nonzero Euler-matrix entries in nu's row and column, off the diagonal
    G, i = euler_matrix(ring), ring.index[nu]
    return sum(x != 0 for x in G[i]) + sum(row[i] != 0 for row in G) - 2


def test_mrs_wedge_fails_on_a_negated_kapranov_vector(monkeypatch):
    # the Kapranov identity fixes every sign to +1, so a sign flip is a
    # failure: each nonzero entry of its row and column off the diagonal
    # changes sign
    _negate_one_basis_vector(monkeypatch, "G", (1, 1))
    rep = check_mrs_wedge(2, 4)
    assert not rep.passed
    assert rep.max_residual == _off_diagonal_support(build_ring("G", 4, 2), (1, 1)) == 4


def test_mrs_wedge_fails_on_a_negated_beilinson_vector(monkeypatch):
    # the Kapranov Gram is the compound of the Beilinson Gram, and each is
    # checked: a sign flip on P^3 shows in the P^3 Gram
    _negate_one_basis_vector(monkeypatch, "P", (1,))
    rep = check_mrs_wedge(2, 4)
    assert not rep.passed
    assert rep.max_residual == _off_diagonal_support(build_ring("P", 4), (1,)) == 3


def test_mrs_wedge_fails_on_a_bracket_with_the_opposite_twist(monkeypatch):
    # e^{-pi i c1} in place of e^{pi i c1} in both orderings of the form: a
    # form its own self-check accepts, but not the Euler pairing
    honest = charclasses.exp_cup

    def flipped(a, x, s):
        c1 = a.ring.c1()
        return honest(a, x, -s if list(x.coeffs) == list(c1.coeffs) else s)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses, "exp_cup", flipped)
    rep = check_mrs_wedge(2, 4)
    assert not rep.passed and rep.max_residual >= 1


def _zeta_redrawn(monkeypatch, k):
    # zeta(k) at the F_p point drawn afresh, apart from 2 pi i
    honest = charclasses.FP_POINT.zeta

    def redrawn(j):
        return Fp(random.Random(f"zeta({j}), drawn afresh").randrange(1, charclasses.P)) \
            if j == k else honest(j)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses.FP_POINT, "zeta", redrawn)


@pytest.mark.parametrize("r,N", [(2, 4), (3, 6)])
def test_the_identities_need_zeta_2_from_2_pi_i(monkeypatch, r, N):
    _zeta_redrawn(monkeypatch, 2)
    assert not check_kapranov_wedge_identity(r, N).passed
    assert not check_mrs_wedge(r, N).passed


@pytest.mark.parametrize("r,N", [(2, 4), (3, 6)])
def test_zeta_3_is_a_free_variable_of_the_identities(monkeypatch, r, N):
    _zeta_redrawn(monkeypatch, 3)
    assert check_kapranov_wedge_identity(r, N).passed
    assert check_mrs_wedge(r, N).passed


def test_satake_checks_on_g48_are_exact():
    # rank 70: the 40-digit Gram margin shrank about a thousandfold per rank
    # step; at the F_p point nothing is rounded
    rep = check_kapranov_wedge_identity(4, 8)
    assert rep.passed and rep.max_residual < 1e-30
    rep = check_mrs_wedge(4, 8)
    assert rep.passed and rep.max_residual == 0.0


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
    # Ueda's identity past criterion 11's targets, exactly
    rep = check_mrs_wedge(r, N)
    assert rep.passed and rep.max_residual == 0.0


def test_criterion_11_reports_no_mismatched_gram_entry():
    details = verify.criterion_11()["details"]
    assert details["G24_residual"] == 0.0 and details["G25_residual"] == 0.0


def test_criteria_5_and_11_take_each_satake_image_once(monkeypatch):
    wedge, sat = charclasses.wedge_matrix, charclasses.satake
    calls = []

    def counted_wedge(a, r, parts):
        calls.append(("wedge_matrix", r, len(a)))
        return wedge(a, r, parts)

    def counted_satake(factors, ring_G):
        calls.append(("satake", ring_G.r, ring_G.N))
        return sat(factors, ring_G)
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    monkeypatch.setattr(charclasses, "wedge_matrix", counted_wedge)
    monkeypatch.setattr(charclasses, "satake", counted_satake)
    assert verify.criterion_5()["passed"]
    # one exterior power for the whole box of G(2,4), G(2,5), G(3,6) at the
    # F_p point, and the closed-form Gamma class at both points
    want = [(name, r, N) for r, N in [(2, 4), (2, 5), (3, 6)]
            for name in ["wedge_matrix", "satake", "satake"]]
    assert calls == want
    assert verify.criterion_11()["passed"]
    assert calls == want


def test_criterion_5_caches_one_satake_box_per_grassmannian(monkeypatch):
    monkeypatch.setattr(charclasses, "_CLASS_CACHE", {})
    assert verify.criterion_5()["passed"]
    keys = [key for key in charclasses._CLASS_CACHE if "satake" in key[0] or "twisted" in key[0]]
    assert sorted(keys) == [("satake_gamma_basis", "G", r, N, charclasses.FP_POINT.key)
                            for r, N in [(2, 4), (2, 5), (3, 6)]]


def _per_partition_satake_image(nu, ring_G, point):
    # the route taken one partition at a time: satake of the twisted
    # factors at wedge_exponents(nu, r), then the normalization
    r, ring_P = ring_G.r, build_ring("P", ring_G.N)
    raw = satake([charclasses._twisted_gamma_basis_class(ring_P, r, k, point)
                  for k in wedge_exponents(nu, r)], ring_G)
    return raw * point.tau ** (-(r * (r - 1) // 2))


@pytest.mark.parametrize("point", [charclasses.FP_POINT, charclasses.MP_POINT],
                         ids=["F_p", "mp"])
@pytest.mark.parametrize("r,N", [(2, 4), (2, 5), (3, 6), (3, 5), (4, 6), (4, 8)])
def test_satake_images_of_the_box_are_the_per_partition_images(r, N, point):
    # read from one exterior power, every coefficient is the one the
    # per-partition route computes, in the same arithmetic
    ring = build_ring("G", N, r)
    for nu in ring.basis:
        got = satake_gamma_class(nu, ring, point).coeffs
        want = _per_partition_satake_image(nu, ring, point).coeffs
        assert list(got) == list(want)


def _leibniz(a, rows, cols):
    """det a[rows, cols], the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        sign = (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
        total += sign * math.prod(a[rows[i]][cols[j]] for i, j in enumerate(perm))
    return total


@pytest.mark.parametrize("r,N", [(r, N) for N in range(1, 7) for r in range(1, min(3, N) + 1)])
def test_wedge_matrix_is_every_leibniz_minor(r, N):
    rng = random.Random(f"wedge_matrix {r} {N}")
    a = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(N)] for _ in range(N)]
    parts = partitions_in_box(r, N - r)
    keys = [sorted(wedge_exponents(nu, r)) for nu in parts]
    assert wedge_matrix(a, r, parts) == [[_leibniz(a, i, j) for j in keys] for i in keys]


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
