"""The benchmark's traced run must end in a strict-JSON result.

``perfbench/run.py`` exits 0 even when its last line is not a usable
result: it prints ``null`` with an ``absent`` reason for a per-layer metric
whose library hook is gone (``compute_rates``, ``ancestor_sums``,
``recover_solution``, ``keep_path=``, ``counters=``, ``path[i].boundary``,
``rate_recomputations``, ``iterations``, ``decode_prufer``), and
``json.dumps`` writes a bare ``NaN`` or ``Infinity`` for a non-finite one.
Each workload of ``BENCHMARK.json`` is run for one second with
``--trace 1``; the run writes only to the ignored ``perfbench/out/``.

A change that retargets ``perfbench`` updates this test with it.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(token):
    raise ValueError(f"non-finite constant {token} in the result line")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_in_finite_per_layer_metrics(workload):
    # The run takes about 2 s; the timeout leaves room for a loaded machine.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for name, metric in metrics.items():
        assert "absent" not in metric, (name, metric["absent"])
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
