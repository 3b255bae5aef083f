"""Smoke test of the benchmark harness at minimal length.

Run from the repository root (it is not part of the tier-1 suite, which
collects ``tests/`` only):

    python -m pytest benchmarks/test_perf.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from acsbm import AssortativityMode, FitConfig, Partition, fit  # noqa: E402

import harness  # noqa: E402
import verify  # noqa: E402
from workloads import load_karate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/perf.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}
    printed = [line.split() for line in proc.stdout.splitlines()[1:-1]]
    assert [(row[0], row[-1]) for row in printed] == \
        [(m["name"], m["unit"]) for m in table]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark("karate-pool", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_verification_catches_corrupted_results():
    graph, _ = load_karate()
    good = fit(graph, FitConfig(k=2, mode=AssortativityMode.STRONG, seed=0))
    assert verify.check_restart(graph, good) == []

    m = verify.block_matrix(graph, good.partition.assign, 2)
    flat = np.full((2, 2), float(good.omega.mean()))  # feasible, not optimal
    flat_ll = verify.log_likelihood(m, flat)
    # Scaling the optimum keeps it feasible and costs a few 1e-6 nats: a
    # looser solver's shortfall, which the oracle check must still see.
    scaled = good.omega * (1.0 + 3e-4)
    scaled_ll = verify.log_likelihood(m, scaled)
    assert 0.0 < good.log_likelihood - scaled_ll < 1e-4
    swapped = good.omega[::-1, ::-1].copy()
    swapped[0, 0], swapped[0, 1] = swapped[0, 1], swapped[0, 0] + 1.0
    swapped[1, 0] = swapped[0, 1]
    corrupted = {
        "log-likelihood": replace(good, log_likelihood=good.log_likelihood + 1e-6),
        "partition": replace(good, partition=Partition(
            2, [1 - good.partition.assign[0]] + good.partition.assign[1:])),
        "infeasible omega": replace(good, omega=swapped),
        "trace": replace(good, trace=good.trace[:1] * 2 + good.trace[1:]),
        "empty block": replace(good, partition=Partition(2, [0] * graph.n)),
        "below oracle": replace(good, omega=flat, log_likelihood=flat_ll,
                                trace=[flat_ll]),
        "slightly below oracle": replace(good, omega=scaled,
                                         log_likelihood=scaled_ll,
                                         trace=[scaled_ll]),
    }
    for name, bad in corrupted.items():
        assert verify.check_restart(graph, bad), name


def test_digest_mismatch_counts_as_failure():
    def record(digest):
        return harness.PassRecord(1, False, 1.0, 0.0, 10, 10, 0, 0, digest, 0,
                               [], raised=False)

    passes = [record("a"), record("a"), record("b")]
    assert harness.check_digests(passes) == 10
    assert passes[2].problems and not passes[1].problems
