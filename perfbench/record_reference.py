#!/usr/bin/env python3
"""Record the benchmark's reference outputs from the current code.

Run from the repository root on a commit whose outputs are known good:

    PYTHONPATH=src python3 perfbench/record_reference.py

It rewrites perfbench/reference.json with:
- the verify-all JSON report (all 11 criteria);
- for each rank_sweep target: rank, SHA-256 of the cup table, the Gamma
  class coefficients (35 digits) and SHA-256 of the exact J Fractions;
- for limits_rotation: the G(2,5) spectral radius T and Apery target, the
  P^2 integer Gram and the one-turn monodromy M_1.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from qgamma import asympt, cli, connection  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        out = Path(tmp) / "verify_all.json"
        if cli.main(["verify-all", "--out", str(out)]) != 0:
            print("verify-all failed; not recording", file=sys.stderr)
            return 1
        acceptance = json.loads(out.read_text())

    rank = {}
    for target in workloads.RANK_TARGETS:
        rank[workloads.tag(*target)] = workloads.rank_target_record(
            *workloads.rank_target(*target))

    ring = workloads.g25()
    gram = workloads.p2_gram(workloads.BASE_PHASE)
    M1, _ = workloads.rotate(workloads.BASE_PHASE, 1)
    limits = {"G25_T": connection.spectrum(ring).T,
              "G25_apery_target": asympt.apery_ratios(
                  ring, workloads.apery_class(), [20, 30, 40]).target,
              "gram": np.round(gram.real).astype(int).tolist(),
              "monodromy_1": [[int(x) for x in row] for row in M1]}

    ref = {"acceptance": acceptance, "rank_sweep": rank, "limits_rotation": limits}
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
