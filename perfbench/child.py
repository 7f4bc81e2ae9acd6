"""One fresh benchmark process.  Started by run.py; not meant to be run by hand.

It imports ``qgamma.cli`` first and prints ``imported`` as soon as the import
returns, so the parent can time interpreter start plus import (setup_s).
Then, by ``--mode``:

- ``import``: exit.
- ``measure``: run the workload body twice, cold and then warm, gating the
  outputs after each run.
- ``untraced``: run the body once, cold.
- ``traced``: run the body once, cold, with a span around every call into a
  qgamma module, then run the symfunc probe.

The last stdout line is one JSON object with the measurements.
"""

from __future__ import annotations

import sys


def run_body(ops, tracer=None):
    """Run the operations in order; returns (records, wall seconds, speed
    scale from calib).  A record is (name, value, error text or None,
    [RuntimeWarning messages])."""
    import time
    import warnings

    import calib

    records = []

    def loop():
        for name, thunk in ops:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    value = tracer.run(f"op.{name}", thunk) if tracer else thunk()
                    error = None
                except Exception as exc:   # an operation failure is data, not a crash
                    value, error = None, f"{type(exc).__name__}: {exc}"
            records.append((name, value, error,
                            [str(w.message) for w in caught
                             if issubclass(w.category, RuntimeWarning)]))

    sampler = calib.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    if tracer:
        tracer.run("body", loop)
    else:
        loop()
    seconds = time.perf_counter() - t0
    return records, seconds, calib.scale(sampler.stop())


def environment() -> dict:
    import os
    import platform

    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "mp_dps": mpmath.mp.dps, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def rank_table(tracer, speed: float) -> list:
    """Per rank_sweep Grassmannian target: scaled seconds in build_ring,
    gamma_class and j_coefficients, read from the op.<target> spans."""
    from math import comb

    import workloads
    rows = []
    for kind, N, r in workloads.RANK_TARGETS:
        tag = workloads.tag(kind, N, r)
        op = next((s for s in tracer.spans if s["name"] == f"op.{tag}"), None)
        if kind != "G" or op is None:
            continue
        stages = {"rings.build_ring": "build_ring_s",
                  "charclasses.gamma_class": "gamma_class_s",
                  f"connection.j_coefficients.{tag}": "j_coefficients_s"}
        row = {"target": f"G({r},{N})", "rank": comb(N, r)}
        for s in tracer.spans:
            if s["parent"] == op["id"] and s["name"] in stages:
                row[stages[s["name"]]] = (s["end"] - s["start"]) * speed
        rows.append(row)
    return rows


def layer_metrics(tracer, speed: float) -> dict:
    """Per-layer metrics of one traced body: scaled inclusive seconds of
    each span name, and the counters."""
    import workloads
    summary = tracer.summary()
    out = {name: summary.get(name[:-2], {}).get("inclusive_s", 0.0) * speed
           for name in workloads.SPAN_METRICS}
    out["charclasses.bracket_pairing_calls"] = \
        summary.get("charclasses.bracket_pairing", {}).get("calls", 0)
    for name in workloads.COUNT_METRICS:
        out.setdefault(name, tracer.counts.get(name, 0))
    return out


def symfunc_probe() -> dict:
    import calib
    import workloads
    sampler = calib.Sampler()
    sampler.start()
    out = workloads.symfunc_probe()
    out["symfunc.schur_products_s"] *= calib.scale(sampler.stop())
    return out


def main(argv) -> int:
    import argparse
    import json
    import resource
    from pathlib import Path

    import tracer as tracing
    import workloads

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True,
                   choices=["import", "measure", "untraced", "traced"])
    p.add_argument("--tmp", required=True)
    args = p.parse_args(argv)
    if args.mode == "import":
        return 0

    ref = workloads.load_reference()
    inputs = workloads.make_inputs(args.workload, args.seed)
    tmp = Path(args.tmp)
    result = {"env": environment(), "failures": []}
    passes = ["cold", "warm"] if args.mode == "measure" else ["cold"]
    attempted = failed = 0
    tr = None
    for label in passes:
        ops = workloads.operations(args.workload, inputs, tmp)
        if args.mode == "traced":
            tr = tracing.Tracer()
            for module, attr, name, count in workloads.layers():
                tr.patch(_qgamma_modules(), module, attr, name, count)
            try:
                records, seconds, speed = run_body(ops, tr)
            finally:
                tr.unpatch()
        else:
            records, seconds, speed = run_body(ops)
        result[f"{label}_wall_s"] = seconds * speed
        result[f"{label}_raw_s"] = seconds
        result[f"{label}_speed"] = speed
        verdicts = workloads.check(args.workload, inputs, records, ref)
        attempted += len(verdicts)
        bad = [f"{label} {name}: {msg}" for name, msg in verdicts if msg]
        failed += len(bad)
        result["failures"] += bad
        del records
    result["attempted"], result["failed"] = attempted, failed
    if tr is not None:
        result["layers"] = layer_metrics(tr, speed)
        result["layers"].update(symfunc_probe())
        result["spans"] = tr.summary()
        result["rank_table"] = rank_table(tr, speed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def _qgamma_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qgamma" or name.startswith("qgamma."))]


if __name__ == "__main__":
    import qgamma.cli  # noqa: F401  setup_s ends when this import returns
    print("imported", flush=True)
    sys.exit(main(sys.argv[1:]))
