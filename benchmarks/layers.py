"""Per-layer metrics of the traced run.

Values come from the spans of the traced passes, from the ``FitResult``
counters, and from replays of real traffic (binding block statistics
harvested by the tracer, legal moves of the workload's largest graph).  A
timing with no samples on a workload (say, strong solves on
scale-unconstrained) reads 0; the matching count says why.  No workload runs
weak fits (see workloads.py): the weak solver is timed on the strong corpus
entries whose closed-form optimum is weakly infeasible, i.e. on desk-strong's
traffic.  BENCHMARK.json names every metric with its unit and direction.

What each layer's metrics should move:

- ``search.fit_*``, ``search.*_per_restart``: restarts_per_s everywhere;
  ``search.self_ms_per_restart`` and ``search.candidate_us`` mostly on
  scale-unconstrained; ``search.parallel_efficiency``,
  ``search.pool_starts_per_pass`` and ``search.task_bytes`` on karate-pool.
- ``solver.*`` and ``likelihood.*``: restarts_per_s on desk-strong (the
  weak replay serves weak ``acsbm fit`` users; no workload runs weak fits);
  ``solver.kkt_residual_max`` and ``solver.oracle_gap_max`` nll_mean.
- ``core.*`` and ``generators.*``: setup_s; ``core.apply_relocation_us``
  and ``search.delta_relocation_us`` time public helpers that fit does not
  call today.
- ``metrics.nmi_us``, ``benchmark.*``: restarts_per_s on karate-pool.
- ``cli.fit_ms`` (one ``acsbm fit`` process on karate) and
  ``trace.overhead_s`` move no workload metric.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from acsbm import (AssortativityMode, Graph, Partition, apply_relocation,
                   block_stats, delta_relocation, is_feasible,
                   lambda_profile_oracle, omega_mle, solve_constrained)

perf_counter = time.perf_counter

# Spans of set-up and fitting inside the pass entry point; what is left of
# the entry point's span is the benchmark layer's own work.
_NOT_BENCHMARK = {"search.multi_start", "generators.generate_ppm",
                  "generators.generate_sbm", "core.parse_edge_list"}

REPLAY_MOVES = 1000
GRAPH_BUILD_REPS = 5


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    """Nearest-rank 90th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[math.ceil(0.9 * len(ordered)) - 1])


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def span_metrics(spans) -> dict:
    """Metrics read off the spans of the traced passes."""
    by_name = defaultdict(list)
    child_s = [0.0] * len(spans)
    non_bench_s = [0.0] * len(spans)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
            if s.name in _NOT_BENCHMARK:
                non_bench_s[s.parent] += s.seconds

    fits = by_name["search.fit"]
    restarts = max(1, len(fits))
    fit_ms = [1e3 * s.seconds for s in fits]
    self_s = [s.seconds - child_s[i] for i, s in enumerate(spans)
              if s.name == "search.fit"]
    candidates = sum(s.attrs["filtered"] + s.attrs["moves"] for s in fits)

    solves = by_name["solver.solve_constrained"]
    feasible_checks = by_name["solver.is_feasible"]
    out = {
        "search.fit_ms_p50": _median(fit_ms),
        "search.fit_ms_p90": _p90(fit_ms),
        "search.fit_samples": len(fits),
        "search.self_ms_per_restart": 1e3 * sum(self_s) / restarts,
        "search.candidate_us": 1e6 * sum(self_s) / max(1, candidates),
        "search.sweeps_per_restart": sum(s.attrs["sweeps"] for s in fits) / restarts,
        "search.moves_per_restart": sum(s.attrs["moves"] for s in fits) / restarts,
        "search.filtered_per_restart": sum(s.attrs["filtered"] for s in fits) / restarts,
        "solver.fit_share": (sum(s.seconds for s in solves)
                             / max(1e-12, sum(s.seconds for s in fits))),
        "solver.binding_frac": len(solves) / len(feasible_checks) if feasible_checks else 0.0,
        "solver.is_feasible_us": _median([1e6 * s.seconds for s in feasible_checks]),
        "solver.unconverged": sum(not s.attrs["converged"] for s in solves),
        "solver.kkt_residual_max": max((s.attrs["kkt_residual"] for s in solves), default=0.0),
        "likelihood.omega_mle_us": _median([1e6 * s.seconds for s in by_name["likelihood.omega_mle"]]),
        "likelihood.omega_mle_per_restart": len(by_name["likelihood.omega_mle"]) / restarts,
        "likelihood.log_likelihood_us": _median([1e6 * s.seconds for s in by_name["likelihood.log_likelihood"]]),
        "core.parse_ms": _median([1e3 * s.seconds for s in by_name["core.parse_edge_list"]]),
        "core.block_stats_us": _median([1e6 * s.seconds for s in by_name["core.block_stats"]]),
        "generators.ppm_ms": _median([1e3 * s.seconds for s in by_name["generators.generate_ppm"]]),
        "generators.sbm_ms": _median([1e3 * s.seconds for s in by_name["generators.generate_sbm"]]),
        "metrics.nmi_us": _median([1e6 * s.seconds for s in by_name["metrics.nmi"]]),
        "benchmark.self_ms": _median([1e3 * (s.seconds - non_bench_s[i])
                                      for i, s in enumerate(spans)
                                      if s.name == "benchmark.run"]),
    }
    strong = [s for s in solves if s.attrs["mode"] == "strong"]
    us = [1e6 * s.seconds for s in strong]
    out["solver.strong_solves_per_restart"] = len(strong) / restarts
    out["solver.strong_us_p50"] = _median(us)
    out["solver.strong_us_p90"] = _p90(us)
    out["solver.strong_iters_mean"] = _mean([s.attrs["iterations"] for s in strong])
    return out


def replay_solver(corpus: list) -> dict:
    """Time solve_constrained alone on the binding stats the fits produced.

    Strong optima are compared with the lambda-profile oracle; the weak
    replay uses the entries whose closed-form optimum is weakly infeasible.
    """
    strong_us, weak_us, weak_iters = [], [], []
    gap_max = 0.0
    for stats in corpus:
        start = perf_counter()
        sol = solve_constrained(stats, AssortativityMode.STRONG)
        strong_us.append(1e6 * (perf_counter() - start))
        ref = lambda_profile_oracle(stats).objective
        gap_max = max(gap_max, (ref - sol.objective) / abs(ref))
        if not is_feasible(omega_mle(stats), AssortativityMode.WEAK):
            start = perf_counter()
            sol = solve_constrained(stats, AssortativityMode.WEAK)
            weak_us.append(1e6 * (perf_counter() - start))
            weak_iters.append(sol.iterations)
    return {"solver.replay_strong_us": _median(strong_us),
            "solver.oracle_gap_max": gap_max,
            "solver.replay_weak_count": len(weak_us),
            "solver.replay_weak_us": _median(weak_us),
            "solver.replay_weak_us_p90": _p90(weak_us),
            "solver.replay_weak_iters_mean": _mean(weak_iters)}


def replay_core(graph, k: int, seed: int) -> dict:
    """Time the public relocation helpers and Graph construction on legal
    moves of a seeded random partition of ``graph``."""
    rng = random.Random(seed)
    assign = [rng.randrange(k) for _ in range(graph.n)]
    assign[:k] = range(k)
    partition = Partition(k, assign)
    stats = block_stats(graph, partition)
    sizes = partition.block_sizes()
    movable = [i for i in range(graph.n) if sizes[assign[i]] > 1]
    moves = [(i, (assign[i] + rng.randrange(1, k)) % k)
             for i in (rng.choice(movable) for _ in range(REPLAY_MOVES))]
    out = {}
    for name, helper in (("search.delta_relocation_us", delta_relocation),
                         ("core.apply_relocation_us", apply_relocation)):
        start = perf_counter()
        for i, b in moves:
            helper(stats, graph, partition, i, b)
        out[name] = 1e6 * (perf_counter() - start) / len(moves)
    build_ms = []
    for _ in range(GRAPH_BUILD_REPS):
        start = perf_counter()
        Graph(graph.n, graph.edges)
        build_ms.append(1e3 * (perf_counter() - start))
    out["core.graph_build_ms"] = _median(build_ms)
    return out


def task_bytes(graph, cfg) -> int:
    """Size of the pickled task multi_start sends to a pool worker per restart."""
    return len(pickle.dumps((graph, cfg)))


def cli_fit_ms(root: Path, graph_path: Path, k: int, seed: int, out: Path) -> float:
    """Wall time of one `acsbm fit` process (start-up, parse, fit, JSON)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-m", "acsbm.cli", "fit", "--graph", str(graph_path),
           "--k", str(k), "--model", "ac-dc-sbm", "--runs", "1",
           "--seed", str(seed), "--workers", "1", "--out", str(out)]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"acsbm fit exited with {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return 1e3 * elapsed
