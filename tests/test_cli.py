"""CLI surface: subcommand behavior, output determinism, exit codes."""

import json

import pytest

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


def test_limit_command(capsys):
    code, out = run(capsys, "limit", "--target", "P(2)", "--t", "8,10,12")
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_psi_command(capsys):
    code, out = run(capsys, "psi", "--N", "2", "--t", "1")
    assert code == 0
    assert json.loads(out)["max_spread"] < 1e-8


def test_usage_error_exit_1(capsys):
    assert main(["not-a-command"]) == 1
    assert main(["limit", "--target", "P(2)"]) == 1
    assert main(["limit", "--target", "Q(7)", "--t", "8"]) == 1


def test_negative_nmax_exit_1(capsys):
    assert main(["jfun", "--target", "P(2)", "--nmax", "-3"]) == 1
    assert main(["period", "--target", "G(2,4)", "--nmax", "-2"]) == 1
    assert capsys.readouterr().out == ""


def test_stokes_failure_exit_2(capsys):
    # natural Beilinson order on P^3 is not a phase order at -0.05
    code, out = run(capsys, "stokes", "--target", "P(3)")
    assert code == 2


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


def test_mutate_command(capsys):
    code, out = run(capsys, "mutate", "--target", "P(1)", "--to", "-3.3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["mutations"]) == 1
    assert payload["mutations"][0]["direction"] == "R"


def test_satake_command(capsys):
    code, out = run(capsys, "satake", "--target", "G(2,4)")
    assert code == 0
    payload = json.loads(out)
    assert all(c["pass"] for c in payload["checks"])
    assert len(payload["checks"]) == 8
