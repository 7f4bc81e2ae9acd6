#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py          # everything (about 3 minutes)
    python3 perfbench/selftest.py --gates  # only the in-process gate tests

1. Short mode: each workload runs once (--seconds 1) with --trace 0 and
   --trace 1; every metric named in BENCHMARK.json must be present with its
   unit, and the gates must pass.
2. Gates: outputs checked against a deliberately corrupted reference, or
   outputs deliberately broken, must fail; the untouched ones must pass.
3. Without the program (only BENCHMARK.json and perfbench/), the benchmark
   must exit non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def short_mode() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", wl["name"],
                   "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=180)
            assert proc.returncode == 0, (cmd, proc.stdout[-2000:], proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (wl["name"], trace, set(got) ^ set(want))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok  short mode {wl['name']} trace={trace} "
                  f"({result['attempted']} operations)")


def gates() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads as w

    ref = w.load_reference()

    def fails(verdicts):
        return any(msg for _, msg in verdicts)

    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        out = Path(tmp) / "verify_all.json"
        out.write_text(json.dumps(ref["acceptance"]))
        assert not fails(w.check_acceptance((0, out), ref["acceptance"]))
        bad = copy.deepcopy(ref["acceptance"])
        bad[4]["details"]["cases"] += 1                      # criterion 5
        assert fails(w.check_acceptance((0, out), bad))
        bad = copy.deepcopy(ref["acceptance"])
        bad[8]["details"]["monodromy"][0][0] += 1            # criterion 9
        assert fails(w.check_acceptance((0, out), bad))
        assert fails(w.check_acceptance((2, out), ref["acceptance"]))
        broken = copy.deepcopy(ref["acceptance"])
        broken[9]["details"]["max_rel_err"] = 1e-6           # above criterion 10's 1e-8
        out.write_text(json.dumps(broken))
        assert fails(w.check_acceptance((0, out), ref["acceptance"]))
        broken[9]["details"]["max_rel_err"] = 1e-12          # a smaller residual passes
        out.write_text(json.dumps(broken))
        assert not fails(w.check_acceptance((0, out), ref["acceptance"]))
    print("ok  acceptance gate")

    value = w.rank_target("G", 6, 3)
    assert w.check_rank_target("G3_6", value, ref["rank_sweep"]) is None
    bad = copy.deepcopy(ref["rank_sweep"])
    bad["G3_6"]["J_sha256"] = "0" * 64
    assert w.check_rank_target("G3_6", value, bad)
    bad = copy.deepcopy(ref["rank_sweep"])
    bad["G3_6"]["gamma"][3][0] = str(float(bad["G3_6"]["gamma"][3][0]) + 1e-20)
    assert w.check_rank_target("G3_6", value, bad)
    print("ok  rank_sweep gate")

    inputs = w.make_inputs("limits_rotation", 7)
    value = w.rotate(inputs["phase"], 3)
    lim = ref["limits_rotation"]
    assert w.check_limits("rotation.turns3", value, inputs, lim) is None
    bad = copy.deepcopy(lim)
    bad["monodromy_1"][1][2] += 1
    assert w.check_limits("rotation.turns3", value, inputs, bad)
    assert w.check_limits("rotation.turns3", (value[0] + 1, value[1]), inputs, lim)
    psi = w.psi_routes(*inputs["psi"][0])
    name = f"psi.N{inputs['psi'][0][0]}.t{inputs['psi'][0][1]:.6f}"
    assert w.check_limits(name, psi, inputs, lim) is None
    assert w.check_limits(name, (psi[0] * (1 + 1e-6),) * 3, inputs, lim)
    assert w.check_limits(name, (float("nan"),) * 3, inputs, lim)
    print("ok  limits_rotation gate")

    records = [("G3_6", value, "ArithmeticError: x", []), ("P3", None, None, ["overflow"])]
    verdicts = w.check("rank_sweep", {}, records, ref)
    assert len(verdicts) == 2 and all(msg for _, msg in verdicts)
    verdicts = w.check("acceptance", {}, [("verify-all", None, "ValueError: x", [])], ref)
    assert len(verdicts) == 11 and all(msg for _, msg in verdicts)
    print("ok  exceptions and warnings count as failed operations")


def without_program() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "acceptance", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], capture_output=True, text=True,
                              cwd=tmp, timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok  no program: exit", proc.returncode, "without a result")


if __name__ == "__main__":
    (BENCH / "results").mkdir(exist_ok=True)
    gates()
    without_program()
    if "--gates" not in sys.argv:
        short_mode()
