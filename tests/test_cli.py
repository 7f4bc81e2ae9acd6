"""CLI surface: subcommand behavior, output determinism, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgamma import cli, connection, mrs
from qgamma.charclasses import bracket_pairing
from qgamma.mrs import (MRS, SOB, beilinson_gamma_mrs, euler_matrix, gamma_mrs, gram,
                        integer_gram, mutate_phase_rotation)
from qgamma.rings import CohClass, build_ring
from qgamma.cli import main, parse_target, clean


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_target():
    assert parse_target("P(3)").N == 4
    ring = parse_target("G(2,5)")
    assert (ring.r, ring.N) == (2, 5)
    from qgamma.cli import UsageError
    with pytest.raises(UsageError):
        parse_target("X(9)")


def test_clean_formats_floats():
    assert clean(0.1234567890123456789) == float("1.234567890123e-01")
    assert clean(complex(1, 2)) == [1.0, 2.0]
    assert clean(complex(1, 0)) == 1.0
    with pytest.raises(OverflowError, match="spread"):
        clean({"ok": 1.0, "spread": [0.5, float("nan")]})


def test_clean_refuses_an_mpmath_value_that_underflows_to_zero():
    with pytest.raises(OverflowError, match="numeric"):
        clean({"numeric": mpmath.mpf("1e-400")})
    with pytest.raises(OverflowError, match="value"):
        clean({"value": mpmath.mpc("1e-400", "-1e-500")})
    assert clean({"zero": mpmath.mpf(0), "small": mpmath.mpf("1e-300")}) == {
        "zero": 0.0, "small": 1e-300}
    assert clean(mpmath.mpc(1, "1e-400")) == 1.0


def test_clean_refuses_a_rational_too_long_to_print():
    # Python refuses str() of an integer past sys.get_int_max_str_digits()
    with pytest.raises(OverflowError, match="value"):
        clean({"n": 3000, "value": Fraction(10 ** 5000, 3)})


def test_spectrum_command(capsys):
    code, out = run(capsys, "spectrum", "--target", "G(2,5)")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["T"] - 8.0901699437) < 1e-9
    assert payload["property_o"] is True


def test_zetareg_command(capsys):
    code, out = run(capsys, "zetareg", "--delta", "1", "--z", "1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["numeric"] - 0.3989422804) < 1e-9
    assert payload["rel_err"] < 1e-8


@pytest.mark.parametrize("delta, z, code", [
    ("1", "1e6", 0), ("0", "1e-5", 0),
    # the product is about e^{-1000}: nonzero, but 0.0 as a float
    ("1", "1e-3", 3)])
def test_zetareg_far_arguments(capsys, delta, z, code):
    assert main(["zetareg", "--delta", delta, "--z", z]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["rel_err"] < 1e-30
    else:
        assert captured.out == ""
        assert "numeric" in captured.err


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1e6), st.floats(1e-5, 1e6))
def test_zetareg_answers_or_refuses_the_float_range(delta, z):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["zetareg", "--delta", repr(delta), "--z", repr(z)])
    assert code in (0, 3), err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["rel_err"] < 1e-30
    else:
        assert out.getvalue() == ""


def test_limit_command(capsys):
    code, out = run(capsys, "limit", "--target", "P(2)", "--t", "8,10,12")
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_psi_command(capsys):
    # t = 8 is still above the quadrature's rounding floor
    for t in ["1", "8"]:
        code, out = run(capsys, "psi", "--N", "2", "--t", t)
        assert code == 0
        assert json.loads(out)["max_spread"] < 1e-8


def test_usage_error_exit_1(capsys):
    assert main(["not-a-command"]) == 1
    assert main(["limit", "--target", "P(2)"]) == 1
    assert main(["limit", "--target", "Q(7)", "--t", "8"]) == 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--target", "P(0)"],
    ["gamma", "--target", "G(5,40)"],
    ["psi", "--N", "9", "--t", "1"],
    pytest.param(["psi", "--N", "1", "--t", "1"], id="psi-N1"),
    ["zetareg", "--delta", "-1", "--z", "1"],
    ["limit", "--target", "P(2)", "--t", "-1"],
    ["apery", "--target", "G(2,5)", "--n-grid", "-3"],
    pytest.param(["limit", "--target", "P(1)", "--t", "0"], id="limit-t0"),
    pytest.param(["zetareg", "--delta", "1", "--z", "0"], id="zetareg-z0"),
    pytest.param(["zetareg", "--delta", "1", "--z", "-1"], id="zetareg-z-1"),
], ids=lambda argv: argv[0])
def test_bad_argument_values_are_usage_errors(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    if argv[0] == "spectrum":
        assert "P^{N-1} needs N >= 2, got N = 1" in err
    if argv[0] == "psi":
        assert err.startswith(f"usage error: psi supports 2 <= N <= 6, got --N {argv[2]}\n")


@pytest.mark.parametrize("t", ["-1", "0"])
def test_psi_non_positive_t_is_a_usage_error_naming_t(capsys, t):
    assert main(["psi", "--N", "3", "--t", t]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: psi needs t > 0, got --t {t}\n")


@pytest.mark.parametrize("argv", [
    ["limit", "--target", "P(1)", "--t", "1e-400"],
    ["psi", "--N", "2", "--t", "1e-400"],
    ["zetareg", "--delta", "1", "--z", "1e-400"],
], ids=lambda argv: argv[0])
def test_a_positive_literal_that_underflows_float64_is_a_usage_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"usage error: argument {argv[-2]}: '1e-400' is nonzero but underflows float64 to 0.0\n")


def test_the_smallest_subnormal_t_is_a_float_whose_limit_fails(capsys):
    assert main(["limit", "--target", "P(1)", "--t", "5e-324"]) == 2
    assert json.loads(capsys.readouterr().out)["converged"] is False


def test_g_coeffs_that_are_not_integers_are_a_usage_error_naming_the_option(capsys):
    coeffs = "1.5" + ",0" * 9
    assert main(["apery", "--target", "G(2,5)", "--g-coeffs", coeffs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"usage error: argument --g-coeffs: '{coeffs}' is not a list of integers\n")


def test_g_coeffs_take_negative_entries(capsys):
    # the default class sigma_{3,1} - sigma_{2,2} of G(2,5), spelled out
    ring = build_ring("G", 5, 2)
    g = ring.basis_class((3, 1)) - ring.basis_class((2, 2))
    coeffs = ",".join(str(c) for c in g.coeffs)
    assert "-1" in coeffs
    explicit = run(capsys, "apery", "--target", "G(2,5)", "--g-coeffs", coeffs)
    assert explicit == run(capsys, "apery", "--target", "G(2,5)")
    assert explicit[0] == 0


def test_negative_nmax_exit_1(capsys):
    assert main(["jfun", "--target", "P(2)", "--nmax", "-3"]) == 1
    assert main(["period", "--target", "G(2,4)", "--nmax", "-2"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["limit", "--target", "P(3)", "--t", "40,60"],
    # non-finite results: never Infinity or NaN in the JSON
    pytest.param(["zetareg", "--delta", "1e300", "--z", "1"], id="zetareg-inf"),
    pytest.param(["psi", "--N", "3", "--t", "1e5"], id="psi-inf"),
    pytest.param(["psi", "--N", "2", "--t", "1e-300"], id="psi-nan"),
    # the smallest subnormal is a float, so it reaches the numerics
    pytest.param(["psi", "--N", "2", "--t", "5e-324"], id="psi-subnormal"),
    pytest.param(["zetareg", "--delta", "1", "--z", "5e-324"], id="zetareg-subnormal"),
    # quadrature below its rounding floor: an answer would have few right digits
    pytest.param(["psi", "--N", "2", "--t", "20"], id="psi-floor-N2-t20"),
    pytest.param(["psi", "--N", "3", "--t", "12"], id="psi-floor-N3-t12"),
    pytest.param(["psi", "--N", "2", "--t", "1e-5"], id="psi-floor-N2-t1e-5"),
], ids=lambda argv: argv[0])
def test_float_overflow_exit_3(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerics out of range:")


def test_a_non_finite_gram_entry_exit_3(capsys, monkeypatch):
    # criterion 4 rounds the Kapranov Gram; a NaN in one vector is numerics
    # out of range naming the entry, not a usage error
    honest = mrs.kapranov_gamma_mrs

    def with_nan(r, N):
        m = honest(r, N)
        v = m.vectors[2]
        m.vectors[2] = CohClass(v.ring, [mpmath.mpf("nan"), *v.coeffs[1:]])
        return m
    monkeypatch.setattr(mrs, "kapranov_gamma_mrs", with_nan)
    assert main(["verify-all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # [v_0, v_2) is the first entry that reads the NaN
    assert captured.err == "numerics out of range: Gram entry (0, 2) is (nan + nanj)\n"


def test_apery_exact_rows_converge_on_g25(capsys):
    assert main(["apery", "--target", "G(2,5)", "--n-grid", "20,80"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is True and out["gap"] == 0.0


def test_exact_output_too_long_to_print_exit_3(capsys):
    # the point row is refused at its first order past the printable digits
    assert main(["period", "--target", "P(2)", "--nmax", "3000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"numerics out of range: exact rows <g, U_n> pass "
                            f"{sys.get_int_max_str_digits()} digits, the first at n = 1830\n")


@pytest.mark.parametrize("target, first", [("G(2,4)", 1688), ("P(2)", 1659)])
def test_jfun_refuses_its_first_j_too_long_to_print(capsys, monkeypatch, target, first):
    # J_n is refused at its first order past the printable digits, before
    # any later order is solved
    solve = connection._solve
    orders = []

    def counted(m, *args):
        orders.append(m)
        return solve(m, *args)
    monkeypatch.setattr(connection, "_solve", counted)
    assert main(["jfun", "--target", target, "--nmax", "3000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"numerics out of range: exact J_n pass "
                            f"{sys.get_int_max_str_digits()} digits, the first at n = {first}\n")
    assert max(orders) == first


@pytest.mark.parametrize("argv", [
    ["limit", "--target", "P(2)", "--t", "1e5"],             # order 1.8M
], ids=lambda argv: argv[0])
def test_float_j_stops_at_its_first_non_finite_row(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the first at n = " in captured.err


@pytest.mark.parametrize("argv", [
    ["apery", "--target", "G(2,5)", "--n-grid", "20,400"],     # order 2000
    ["apery", "--target", "G(2,5)", "--n-grid", "100000"],     # order 500k
], ids=["order-2000", "order-500k"])
def test_apery_rows_stop_at_the_printable_digits_exit_3(capsys, argv):
    # the exact g-row and point row of G(2,5) pass the digits Python prints
    # at order 1865, which pairing_rows refuses before solving further
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerics out of range:")
    assert (f"pass {sys.get_int_max_str_digits()} digits, the first at n = 1865"
            in captured.err)


def test_failed_self_check_exit_2(capsys, monkeypatch):
    solve = connection._solve

    def corrupted(m, rhs, left, op, order, div):
        X = solve(m, rhs, left, op, order, div)
        X[0][-1] += 1
        return X

    argvs = [["jfun", "--target", "P(2)", "--nmax", "4"],     # the matrix series U
             ["period", "--target", "P(2)", "--nmax", "4"]]   # the point row
    for argv in argvs:
        assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(connection, "_solve", corrupted)
    for argv in argvs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("check failed: exact solve at order 3: residual")


def test_stokes_failure_exit_2(capsys):
    # natural Beilinson order on P^3 is not a phase order at -0.05
    assert main(["stokes", "--target", "P(3)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("check failed:")


def test_stokes_inadmissible_phase_is_usage_error(capsys):
    # mutate exits 1 on the same input
    for cmd in (["stokes"], ["mutate", "--to", "-3"]):
        assert main(cmd + ["--target", "P(1)", "--phase", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: phase 0.0 is not admissible")


def test_byte_identical_json(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["spectrum", "--target", "G(2,4)", "--out", str(a)]) == 0
    assert main(["spectrum", "--target", "G(2,4)", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_output(capsys):
    code, out = run(capsys, "zetareg", "--delta", "1", "--z", "2",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("numeric,") for line in lines)


@pytest.mark.parametrize("cmd", ["gamma", "spectrum"])
def test_csv_rows_parse_to_the_header_width(capsys, cmd):
    # a G(r,N) target and a partition key with two parts both hold a comma
    code, out = run(capsys, cmd, "--target", "G(2,4)", "--format", "csv")
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == ["key", "value"]
    assert rows and all(len(row) == 2 for row in rows)
    code, out = run(capsys, cmd, "--target", "G(2,4)")
    want = dict(cli._flatten(json.loads(out)))
    assert sorted(want) == [k for k, _ in rows]
    for k, v in rows:
        w = want[k]
        assert json.loads(v) == w if isinstance(w, (list, dict)) else v == str(w)
    assert ["target", "G(2,4)"] in rows


def test_mutate_command(capsys):
    code, out = run(capsys, "mutate", "--target", "P(1)", "--to", "-3.3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["mutations"]) == 1
    assert payload["mutations"][0]["direction"] == "R"


def _integer_rotation_gram(N, phase, target):
    """Gram after rotating the integer system of P^{N-1} that mutate and
    scripts/rotate_mrs.py rotate, built here from the numeric side: unit
    vectors paired through the rounded Beilinson Gram."""
    base = beilinson_gamma_mrs(N, phase=phase)
    G = np.round(gram(SOB(base.vectors, base.pairing)).real).astype(int)
    m = MRS(vectors=[np.eye(N, dtype=int)[i] for i in range(N)],
            markings=base.markings, phase=phase, pairing=lambda a, b: a @ G @ b)
    m2, _ = mutate_phase_rotation(m, target)
    return gram(SOB(m2.vectors, m2.pairing)).real.astype(int).tolist()


def _less_than_a_turn(phase, target):
    """(start, end): the rotation from phase to target less its whole turns,
    which preserve the Gram, with the start moved into [0, 2 pi); reduced at
    2,200 bits, so exact for any finite float phases."""
    with mpmath.workprec(2200):
        two_pi = 2 * mpmath.pi
        travelled = mpmath.mpf(target) - phase
        start = mpmath.mpf(phase) % two_pi
        return float(start), float(start + mpmath.sign(travelled) * (abs(travelled) % two_pi))


def _mutate(capsys, target, phase, to):
    """(exit code, payload, seconds) of one mutate command."""
    start = time.perf_counter()
    code, out = run(capsys, "mutate", "--target", target, "--phase", phase, f"--to={to}")
    return code, json.loads(out), time.perf_counter() - start


def test_mutate_many_turns_stays_exact(capsys):
    code, out = run(capsys, "mutate", "--target", "P(2)", "--phase", "-1.87",
                    "--to=-200")
    assert code == 0
    payload = json.loads(out)
    assert payload["final_gram"] == _integer_rotation_gram(3, -1.87, -200.0)
    assert set(payload) == {"target", "phase_from", "phase_to", "mutations", "final_gram"}
    assert sum(e["count"] for e in payload["mutations"]) > 150


def test_mutate_a_million_radians(capsys):
    code, out = run(capsys, "mutate", "--target", "P(2)", "--phase", "-1.87",
                    "--to=-1e6")
    assert code == 0
    assert len(json.loads(out)["mutations"]) <= 12


def test_mutate_1e10_radians_stays_within_gram_tolerance(capsys):
    code, payload, _ = _mutate(capsys, "P(2)", "-1.87", "-1e10")
    assert code == 0
    # the rotation runs on the exact Euler matrix, which the numeric Gram of
    # the Gamma basis rounds to within the Gram tolerance; nothing is rounded
    ints, err = integer_gram(beilinson_gamma_mrs(3, phase=-1.87))
    assert ints == euler_matrix(build_ring("P", 3)) and err < 1e-9
    assert payload["final_gram"] == _integer_rotation_gram(3, *_less_than_a_turn(-1.87, -1e10))


@pytest.mark.parametrize("target, phase, to", [
    pytest.param("P(1)", "-0.05", "1e100", id="P1-1e100"),
    pytest.param("P(2)", "-1.87", "1e308", id="P2-1e308"),
    pytest.param("P(2)", "-1.87", "-1e12", id="P2--1e12"),
    pytest.param("P(2)", "-1.87", "-1e15", id="P2--1e15"),
    # 16 rad between two phases near 1e17: two turns and a remainder
    pytest.param("P(1)", "1e17", "1.0000000000000001e17", id="P1-from-1e17")])
def test_mutate_far_rotation_is_the_integer_system_rotation(capsys, target, phase, to):
    # whole turns preserve the integer Gram exactly, so the final Gram is that
    # of the remainder of less than a turn, at any number of turns
    code, payload, seconds = _mutate(capsys, target, phase, to)
    assert code == 0 and seconds < 5
    g = payload["final_gram"]
    assert [g[i][i] for i in range(len(g))] == [1] * len(g)
    N = int(target[2]) + 1
    assert g == _integer_rotation_gram(N, *_less_than_a_turn(float(phase), float(to)))


def test_mutate_1e17_radians_counts_whole_turns_exactly(capsys):
    # 1e17 + 0.05 = 15915494309189533 turns + 3.67 rad, which passes both crossings
    code, payload, _ = _mutate(capsys, "P(1)", "-0.05", "1e17")
    assert code == 0
    assert [e["count"] for e in payload["mutations"]] == [15915494309189533] * 2 + [1, 1]
    assert payload["final_gram"] == [[1, 2], [0, 1]]


def test_mutate_far_rotation_keeps_the_unit_diagonal(capsys):
    code, out = run(capsys, "mutate", "--target", "P(1)", "--to", "1e20")
    assert code == 0
    assert json.loads(out)["final_gram"] == [[1, 2], [0, 1]]


def test_mutate_of_a_non_integral_gram_is_out_of_range(capsys, monkeypatch):
    def scaled(ring, phase):
        m = gamma_mrs(ring, phase)
        return replace(m, pairing=lambda a, b: 1.5 * bracket_pairing(a, b))
    with pytest.raises(OverflowError):
        mutate_phase_rotation(scaled(build_ring("P", 2), -0.05), -3.3)
    monkeypatch.setattr(cli, "euler_matrix",
                        lambda ring: 1.5 * np.array(euler_matrix(ring), dtype=object))
    assert main(["mutate", "--target", "P(1)", "--to", "-3.3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerics out of range: Gram rounding error 0.5 exceeds 1e-9\n"


@pytest.mark.parametrize("entry", [2**53 + 1, 10**20 + 7])
def test_mutate_of_a_gram_past_2_53_is_out_of_range(capsys, monkeypatch, entry):
    # the Euler entries of G(2,18) to G(2,25) reach 4.1e16 to 5.5e24; the
    # rotation runs on Python ints, so past 2^53 the final Gram stays exact
    monkeypatch.setattr(cli, "euler_matrix",
                        lambda ring: np.array([[1, entry], [0, 1]], dtype=object))
    code, payload, _ = _mutate(capsys, "P(1)", "-0.05", "-3.3")
    assert code == 0
    assert payload["final_gram"] == [[1, 0], [-entry, 1]]


@pytest.mark.parametrize("to", ["--to=-inf", "--to=nan", "--to=inf"])
def test_mutate_non_finite_phase_exit_1(capsys, to):
    assert main(["mutate", "--target", "P(1)", to]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["stokes", "--target", "P(1)", "--phase", "nan"],
    ["limit", "--target", "P(2)", "--t", "8,inf"],
    ["psi", "--N", "2", "--t", "1e999"],
    ["zetareg", "--delta", "1", "--z", "-inf"],
], ids=lambda argv: argv[0])
def test_non_finite_floats_are_usage_errors(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_mutate_turns_of_unsorted_system_exit_2(capsys):
    # the Beilinson order of P^2 is not a phase order at the default -0.05
    assert main(["mutate", "--target", "P(2)", "--to", "-700"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("check failed:")


@pytest.mark.parametrize("target, to", [("G(2,4)", "-3"), ("G(3,7)", "-2")])
def test_mutate_less_than_a_turn_of_unsorted_system_exit_2(capsys, target, to):
    # the Kapranov order is not a phase order at the default -0.05
    assert main(["mutate", "--target", target, "--to", to]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("check failed:")


def test_satake_command(capsys):
    code, out = run(capsys, "satake", "--target", "G(2,4)")
    assert code == 0
    payload = json.loads(out)
    # one row per claim: spectrum, kapranov, mrs-wedge
    assert [c["case"] for c in payload["checks"]] == [
        "spectrum G(2,4)", "kapranov G(2,4)", "mrs-wedge G(2,4)"]
    assert all(c["pass"] for c in payload["checks"])


def _run_python(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in [src, os.environ.get("PYTHONPATH")] if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_cli_import_leaves_scipy_out():
    out = _run_python("-c", "import sys, qgamma.cli; print('scipy' in sys.modules)")
    assert out.returncode == 0
    assert out.stdout.strip() == "False"


# the integer, mpmath and float-J subcommands: numpy serves only the
# quadrature and verify-all's seeded random Grams
NUMPY_FREE_COMMANDS = [
    ["spectrum", "--target", "G(2,5)"],
    ["satake", "--target", "G(2,4)"],
    ["gamma", "--target", "G(2,4)"],
    ["jfun", "--target", "G(2,4)", "--nmax", "6"],
    ["period", "--target", "P(2)", "--nmax", "6"],
    ["apery", "--target", "G(2,5)"],
    ["limit", "--target", "P(2)", "--t", "8,10,12"],
    ["stokes", "--target", "P(2)", "--phase", "-1.87"],
    ["mutate", "--target", "P(2)", "--phase", "-1.87", "--to", "-20"],
    ["zetareg", "--delta", "1", "--z", "1"]]


@pytest.mark.parametrize("argv", [None, *NUMPY_FREE_COMMANDS],
                         ids=lambda argv: argv[0] if argv else "import")
def test_cli_import_and_numpy_free_commands_leave_numpy_out(argv):
    command = f"assert qgamma.cli.main({argv!r}) == 0\n" if argv else ""
    out = _run_python("-c", f"import sys, qgamma.cli\n{command}"
                      "assert 'numpy' not in sys.modules, 'numpy was loaded'")
    assert out.returncode == 0, out.stderr


def test_cli_import_leaves_quadrature_setup_out():
    # the Psi quadrature builds its Gauss-Legendre nodes and Gamma(s) values
    # on first use, so importing the CLI pays for neither
    out = _run_python("-c", "import sys, qgamma.cli\n"
                      "from qgamma.asympt import _gamma_nodes, _leggauss\n"
                      "print('numpy.polynomial' in sys.modules,\n"
                      "      _gamma_nodes.cache_info().currsize, _leggauss.cache_info().currsize)")
    assert out.returncode == 0
    assert out.stdout.strip() == "False 0 0"


def test_psi_overflow_is_reported_without_warnings():
    # a fresh process: pytest would capture numpy's RuntimeWarnings
    out = _run_python("-m", "qgamma.cli", "psi", "--N", "2", "--t", "1e-300")
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == "numerics out of range: t^(-N s) overflows at N = 2, t = 1e-300\n"


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_rotate_mrs_script_preserves_the_gram():
    out = _run_python(str(SCRIPTS / "rotate_mrs.py"), "3", "-1.87")
    assert out.returncode == 0
    assert "Gram preserved: True" in out.stdout
    assert re.search(r"^det = -?1$", out.stdout, re.M)


def test_apery_convergence_script_runs():
    out = _run_python(str(SCRIPTS / "apery_convergence.py"), "20")
    assert out.returncode == 0
    assert "final gap:" in out.stdout
