#!/usr/bin/env python3
"""qgamma benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it uses ``src/`` directly; nothing
needs installing).  Workloads: acceptance, rank_sweep, limits_rotation (see
workloads.py).  Every measurement runs in a fresh single-threaded child
process, one at a time.

--trace 0 measures the end-to-end metrics:
  setup_s      interpreter start until ``import qgamma.cli`` returns (median
               of several fresh starts);
  wall_s       the workload body in a fresh process, caches cold (median);
  warm_wall_s  the same body again in the same process (median);
  peak_rss_mb  the child's ru_maxrss (median).
--trace 1 measures the per-layer metrics: module import times from
``python -X importtime``, and the inclusive time and counts of the spans
recorded around each call into a qgamma module in a traced child, plus the
tracing overhead (traced minus untraced wall_s) and a symfunc probe.

All times are scaled to a nominal machine speed (see calib.py): this
process and its children are pinned to one CPU, and each time is multiplied
by the speed factor sampled on that CPU while it was measured.  The raw
times are kept in the results file.

Children are started while the time used plus half the last child's
duration stays within --seconds; at least one always runs.  Every output is gated
against reference.json.  Human-readable lines go first; the last stdout line
is the JSON result.  The full record, with the environment, goes to
perfbench/results/.  Exit status: 0 when every gate passed, 1 when a gate
failed or a child crashed, 2 when there is no qgamma source to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170            # hard cap on one run, children included
END_TO_END = {"setup_s": "s", "wall_s": "s", "warm_wall_s": "s", "peak_rss_mb": "MB"}
IMPORT_PACKAGES = ("numpy", "mpmath", "scipy", "qgamma")
# ROADMAP re-anchor figures (seconds) that the seed baseline is compared with.
REANCHOR = {"verify.criterion_5_s": 4.52, "verify.criterion_11_s": 1.52,
            "connection.j_coefficients.G3_8_s": 8.0}


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def spawn(cmd: list, deadline: float, log: Path, handshake: bool = True):
    """Run one child; returns (seconds to the 'imported' line, stdout, stderr
    text).  The child is killed if it outlives the deadline."""
    t0 = time.perf_counter()
    with open(log, "w+") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=child_env(), cwd=ROOT)
        try:
            setup = None
            if handshake:
                ready, _, _ = select.select([proc.stdout], [], [],
                                            max(deadline - time.perf_counter(), 0))
                line = proc.stdout.readline() if ready else ""
                setup = time.perf_counter() - t0
                if line.strip() != "imported":
                    proc.kill()
                    proc.wait()
                    err.seek(0)
                    raise ChildError(f"child did not import qgamma.cli:\n{err.read()[-2000:]}")
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildError(f"child exceeded the {RUN_LIMIT_S} s run limit: {cmd}")
        err.seek(0)
        errtext = err.read()
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}:\n{errtext[-2000:]}")
    return setup, out, errtext


def run_child(mode, args, tmp: Path, deadline: float) -> tuple[float, dict]:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--tmp", str(tmp)]
    setup, out, _ = spawn(cmd, deadline, tmp / "child.stderr")
    if mode == "import":
        return setup, {}
    lines = out.strip().splitlines()
    try:
        return setup, json.loads(lines[-1])
    except (IndexError, ValueError):
        raise ChildError(f"child printed no result: {out[-500:]!r}")


def setup_sample(args, tmp: Path, deadline: float) -> tuple[float, float]:
    """(raw seconds to import qgamma.cli in a fresh interpreter, speed scale
    from calibration probes just before and after)."""
    before = calib.probe(5)
    raw, _ = run_child("import", args, tmp, deadline)
    return raw, calib.scale(before + calib.probe(5))


def import_times(tmp: Path, deadline: float) -> dict:
    """Scaled seconds spent in each package's module bodies while importing
    qgamma.cli: sum of the 'self' column of python -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import qgamma.cli"]
    before = calib.probe(5)
    _, _, errtext = spawn(cmd, deadline, tmp / "importtime.stderr", handshake=False)
    speed = calib.scale(before + calib.probe(5))
    totals = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    for line in errtext.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (f.strip() for f in line[len("import time:"):].split("|"))
        if not self_us.isdigit():
            continue
        pkg = name.split(".")[0]
        if pkg in totals:
            totals[pkg] += int(self_us) / 1e6 * speed
    return {f"import.{pkg}_s": v for pkg, v in totals.items()}


def loop(start: float, seconds: float, deadline: float, step) -> list:
    """Call step() while the time used plus half the last step's duration
    fits in `seconds` (so a run overshoots by at most half a step); always
    at least once."""
    samples = []
    while True:
        t0 = time.perf_counter()
        samples.append(step())
        now = time.perf_counter()
        if now - start + (now - t0) / 2 > seconds or now + (now - t0) > deadline:
            return samples


def measure(args, tmp: Path, start: float, deadline: float) -> dict:
    run_child("import", args, tmp, deadline)      # writes bytecode; not timed
    setups = [setup_sample(args, tmp, deadline) for _ in range(SETUP_SAMPLES)]
    res = [r for _, r in loop(start, args.seconds, deadline,
                              lambda: run_child("measure", args, tmp, deadline))]
    metrics = {"setup_s": statistics.median(raw * speed for raw, speed in setups),
               "wall_s": statistics.median(r["cold_wall_s"] for r in res),
               "warm_wall_s": statistics.median(r["warm_wall_s"] for r in res),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in res)}
    return {"metrics": metrics, "units": END_TO_END, "children": res,
            "samples": {"setup_s": [raw * speed for raw, speed in setups],
                        "setup_raw_s": [raw for raw, _ in setups],
                        "wall_s": [r["cold_wall_s"] for r in res],
                        "wall_raw_s": [r["cold_raw_s"] for r in res],
                        "warm_wall_s": [r["warm_wall_s"] for r in res],
                        "warm_wall_raw_s": [r["warm_raw_s"] for r in res],
                        "peak_rss_mb": [r["peak_rss_mb"] for r in res]}}


def trace(args, tmp: Path, start: float, deadline: float) -> dict:
    imports = [import_times(tmp, deadline) for _ in range(IMPORTTIME_SAMPLES)]
    pairs = loop(start, args.seconds, deadline,
                 lambda: (run_child("untraced", args, tmp, deadline)[1],
                          run_child("traced", args, tmp, deadline)[1]))
    traced = [t for _, t in pairs]
    metrics = {k: statistics.median(i[k] for i in imports) for k in imports[0]}
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(t["layers"][name] for t in traced)
    metrics["trace.overhead_s"] = (statistics.median(t["cold_wall_s"] for t in traced)
                                   - statistics.median(u["cold_wall_s"] for u, _ in pairs))
    units = {k: "s" if k.endswith("_s") else "count" for k in metrics}
    return {"metrics": metrics, "units": units,
            "children": [c for pair in pairs for c in pair],
            "rank_table": rank_scaling([t["rank_table"] for t in traced]),
            "reanchor": reanchor(traced)}


def reanchor(traced: list) -> dict:
    """Raw (unscaled) median seconds of the spans the ROADMAP re-anchor
    timed, flagged when they differ from its figures by more than 10%."""
    out = {}
    for name, roadmap in REANCHOR.items():
        if traced[0]["layers"].get(name):
            raw = statistics.median(t["layers"][name] / t["cold_speed"] for t in traced)
            out[name] = {"raw_s": raw, "roadmap_s": roadmap,
                         "flag": abs(raw / roadmap - 1) > 0.10}
    return out


def rank_scaling(tables: list) -> dict:
    """Median seconds per target and the least-squares exponent a in
    t ~ rank^a for each stage."""
    rows = []
    for i, row in enumerate(tables[0]):
        med = {k: statistics.median(t[i][k] for t in tables)
               for k in row if k.endswith("_s")}
        rows.append({"target": row["target"], "rank": row["rank"], **med})
    fits = {}
    for stage in ("build_ring_s", "gamma_class_s", "j_coefficients_s"):
        pts = [(math.log(r["rank"]), math.log(r[stage])) for r in rows if r.get(stage, 0) > 0]
        if len(pts) >= 2:
            mx = statistics.fmean(x for x, _ in pts)
            my = statistics.fmean(y for _, y in pts)
            fits[stage] = (sum((x - mx) * (y - my) for x, y in pts)
                           / sum((x - mx) ** 2 for x, _ in pts))
    return {"rows": rows, "exponents": fits}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def report(args, record: dict) -> None:
    print(f"qgamma benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(record["env"], sort_keys=True))
    n = len(record["children"])
    for name, value in record["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {record['units'][name]:6s} (children: {n})")
    print(f"  {'ops_failed_share':42s} {record['ops_failed_share']:14.6g} share "
          f"({record['failed']} of {record['attempted']} operations)")
    for msg in record["failures"][:20]:
        print(f"  FAILED {msg}")
    table = record.get("rank_table")
    if table and table["rows"] and args.workload == "rank_sweep":
        print("rank scaling (traced, seconds):")
        print(f"  {'target':8s} {'rank':>5s} {'build_ring':>11s} {'gamma_class':>12s} "
              f"{'j_coeffs':>10s}")
        for r in table["rows"]:
            print(f"  {r['target']:8s} {r['rank']:5d} {r.get('build_ring_s', 0):11.4f} "
                  f"{r.get('gamma_class_s', 0):12.4f} {r.get('j_coefficients_s', 0):10.4f}")
        ex = table["exponents"]
        print(f"  {'exponent':8s} {'':5s} {ex.get('build_ring_s', math.nan):11.2f} "
              f"{ex.get('gamma_class_s', math.nan):12.2f} "
              f"{ex.get('j_coefficients_s', math.nan):10.2f}")
    for name, cmp in record.get("reanchor", {}).items():
        print(f"  vs ROADMAP re-anchor: {name} {cmp['raw_s']:.3f} s (raw) vs "
              f"{cmp['roadmap_s']} s{'  (differs by more than 10%)' if cmp['flag'] else ''}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qgamma" / "cli.py").is_file():
        print(f"no qgamma source under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    # One CPU for this process and its children, so that the calibration
    # probes see the same CPU as the measured code.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    try:
        record = (trace if args.trace else measure)(args, tmp, start, deadline)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    children = record["children"]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env={**children[0]["env"], "git_commit": git_commit(),
                                         "pinned_cpu": cpu},
                  attempted=attempted, failed=failed,
                  ops_failed_share=failed / attempted if attempted else 1.0,
                  failures=[f for c in children for f in c["failures"]],
                  elapsed_s=time.perf_counter() - start)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(args, record)
    correct = attempted > 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {k: {"value": v, "unit": record["units"][k]}
                                  for k, v in record["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
