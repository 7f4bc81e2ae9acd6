"""Acceptance suite: one test per criterion, one pass/fail line each."""

import pytest

from qgamma import mrs, verify
from qgamma.cli import main


def _check(result):
    line = f'criterion {result["id"]:2d} [{result["name"]}]: ' \
           f'{"PASS" if result["passed"] else "FAIL"}'
    print(line)
    assert result["passed"], f'{line}  details: {result["details"]}'


def test_criterion_01_property_o_and_spectra():
    _check(verify.criterion_1())


def test_criterion_02_fundamental_solution_oracle():
    _check(verify.criterion_2())


def test_criterion_03_gamma_conjecture_limit():
    _check(verify.criterion_3())


def test_criterion_04_gram_equals_euler_pairing():
    _check(verify.criterion_4())


def test_criterion_05_satake_wedge_identity():
    _check(verify.criterion_5())


def test_criterion_06_mellin_solution():
    _check(verify.criterion_6())


def test_criterion_07_apery_limit():
    _check(verify.criterion_7())


def test_criterion_08_quantum_period_radius():
    _check(verify.criterion_8())


def test_criterion_09_mutation_suite():
    _check(verify.criterion_9())


@pytest.mark.parametrize("kernel", [
    # R for L and L for R
    lambda mutation: lambda v, u, G, right: mutation(v, u, G, not right),
    # v + (vGu) u for v - (vGu) u
    lambda mutation: lambda v, u, G, right: [2 * x - y for x, y in
                                             zip(v, mutation(v, u, G, right))],
], ids=["side-swapped", "sign-flipped"])
def test_criterion_09_fails_on_a_corrupted_mutation_kernel(monkeypatch, kernel):
    # braid_act and phase_rotation both call mrs._mutation, so corrupting
    # that one kernel must reach the braid checks and the P^2 turn alike
    monkeypatch.setattr(mrs, "_mutation", kernel(mrs._mutation))
    assert mrs.braid_act([[1, 2], [0, 1]], [1, -1]) != [[1, 0], [0, 1]]
    try:
        assert not verify.criterion_9()["passed"]
    except ArithmeticError:
        pass
    assert main(["verify-all"]) == 2


def test_criterion_10_zeta_regularization():
    _check(verify.criterion_10())


def test_criterion_11_mrs_wedge():
    _check(verify.criterion_11())
