"""The workloads: what one pass runs, and why the workload exists.

Every pass is a closed batch run by one process: each (instance, model) job
starts after the previous one returns.  A pass goes through the public
entry points exactly as ``acsbm bench`` users do (``acsbm.benchmark.run_*``
-> ``multi_start`` -> ``fit``) and writes the same CSV/JSONL/JSON artifacts.

Inputs.  The graphs are fixed: the n=100 acceptance fixtures, two n=1000
PPM instances and the vendored karate club.  The workload seed picks the
restart seeds: pass ``p`` of a run with seed ``s`` fits block
``b = s * BLOCKS_PER_SEED + p``, i.e. seeds ``R*b .. R*b + R-1`` for every
job (seed 0, pass 0 is the acceptance fixtures' own seeds 0..R-1).  Restart
cost varies several-fold with the random start, so successive passes fit
fresh blocks and a run's throughput averages over all of them; the traced
run instead repeats block ``s * BLOCKS_PER_SEED`` so that its passes can be
compared byte for byte.  Fixed graphs keep the quality metrics comparable
between seeds: over five seeds of random n=1000 instances the best-of-8
NMI and log-likelihood varied by 15-25%.

There is no weak-mode workload.  A weak ac-dc-sbm restart on the fixture
SBM takes 1 to 25 s depending on its random start, so a run of tens of
seconds holds too few restarts for a steady restarts_per_s.  The weak
solver is measured per layer instead, by replaying desk-strong's binding
block statistics in weak mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import acsbm.benchmark as bm
import acsbm.core
from acsbm import (ExperimentPlan, Partition, PpmSpec, SbmSpec, read_labels,
                   run_ppm_sweep, run_real, run_sbm_ensemble)
from acsbm.benchmark import MODEL_NAMES

DATA = Path(__file__).resolve().parent / "data"
KARATE_EDGES = DATA / "karate.edges"
KARATE_LABELS = DATA / "karate.labels"
KARATE_SHA256 = {
    KARATE_EDGES: "be08d16943289bdc67719f0c2039ab8961a739fd681a212009c8f37ff57f1d75",
    KARATE_LABELS: "bb5812e22a5b2f1ad39fd725287e00d65ea89b7384a1f64837cdba32cf29b7c6",
}

BLOCKS_PER_SEED = 10 ** 6

# Restarts per (instance, model) job and pass.
DESK_RUNS = 2
SCALE_RUNS = 4
KARATE_RUNS = 50

FIXTURE_PPM_SEED = 1200
FIXTURE_SBM_SEED = 2000
SCALE_PPM_SEED = 7000


class DataError(RuntimeError):
    """A vendored data file does not match its recorded checksum."""


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    jobs: int
    runs: int
    run_pass: Callable  # (block, out_dir, workers) -> None
    setup: Callable     # () -> None: the pass's inputs, built alone
    instances: dict
    uses_karate: bool = False

    @property
    def restarts_per_pass(self) -> int:
        return self.jobs * self.runs

    def describe(self, seed: int) -> dict:
        first = self.runs * seed * BLOCKS_PER_SEED
        return {"name": self.name, "workers": self.workers,
                "jobs_per_pass": self.jobs, "restarts_per_job": self.runs,
                "fit_seeds_of_pass_p": f"{first} + {self.runs}*p + (0..{self.runs - 1})",
                "instances": self.instances}


def _desk_plans(block: int, workers: int) -> tuple[ExperimentPlan, ExperimentPlan]:
    common = dict(models=["dc-sbm", "ac-dc-sbm"], runs=DESK_RUNS,
                  fit_seed=DESK_RUNS * block, n=100, k=4, workers=workers)
    ppm = ExperimentPlan(kind="ppm-sweep", instance_seed=FIXTURE_PPM_SEED,
                         avg_degree=16.0, ratios=[0.10, 0.25, 0.60], **common)
    sbm = ExperimentPlan(kind="sbm-ensemble", instance_seed=FIXTURE_SBM_SEED,
                         datasets=1, **common)
    return ppm, sbm


def _scale_plan(block: int, workers: int) -> ExperimentPlan:
    return ExperimentPlan(kind="ppm-sweep", models=["dc-sbm", "modularity"],
                          runs=SCALE_RUNS, fit_seed=SCALE_RUNS * block,
                          instance_seed=SCALE_PPM_SEED, n=1000, k=4,
                          avg_degree=16.0, ratios=[0.10, 0.25], workers=workers)


def _karate_plan(block: int, workers: int) -> ExperimentPlan:
    return ExperimentPlan(kind="real-network", models=list(MODEL_NAMES),
                          runs=KARATE_RUNS, fit_seed=KARATE_RUNS * block, k=2,
                          workers=workers)


def _ppm_specs(plan: ExperimentPlan) -> list[PpmSpec]:
    """The instances run_ppm_sweep generates for a plan."""
    return [PpmSpec(n=plan.n, k=plan.k, avg_degree=plan.avg_degree,
                    ratio=ratio, seed=plan.instance_seed + idx)
            for idx, ratio in enumerate(sorted(plan.ratios))]


def _sbm_spec(plan: ExperimentPlan) -> SbmSpec:
    """The single instance run_sbm_ensemble generates for a one-dataset plan."""
    return SbmSpec(n=plan.n, k=plan.k, diag_range=plan.diag_range,
                   offdiag_range=plan.offdiag_range, seed=plan.instance_seed)


def _desk_pass(block, out, workers) -> None:
    ppm, sbm = _desk_plans(block, workers)
    run_ppm_sweep(ppm, out_dir=out / "ppm")
    run_sbm_ensemble(sbm, out_dir=out / "sbm")


def _desk_setup() -> None:
    ppm, sbm = _desk_plans(0, 1)
    for spec in _ppm_specs(ppm):
        bm.generate_ppm(spec)
    bm.generate_sbm(_sbm_spec(sbm))


def _scale_pass(block, out, workers) -> None:
    run_ppm_sweep(_scale_plan(block, workers), out_dir=out)


def _scale_setup() -> None:
    for spec in _ppm_specs(_scale_plan(0, 1)):
        bm.generate_ppm(spec)


def _karate_pass(block, out, workers) -> None:
    run_real(_karate_plan(block, workers), graph_path=KARATE_EDGES, k=2,
             out_dir=out)


def _karate_setup() -> None:
    bm.load_edge_list(KARATE_EDGES)


def load_karate():
    """The vendored karate club and its two clubs, checked against SHA-256."""
    for path, digest in KARATE_SHA256.items():
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            raise DataError(f"{path.name} does not match its recorded SHA-256")
    graph = acsbm.core.load_edge_list(KARATE_EDGES)
    return graph, Partition(2, read_labels(KARATE_LABELS))


WORKLOADS = {w.name: w for w in [
    Workload(
        "desk-strong", workers=1, jobs=8, runs=DESK_RUNS, run_pass=_desk_pass,
        setup=_desk_setup,
        instances={"ppm_seeds": [s.seed for s in _ppm_specs(_desk_plans(0, 1)[0])],
                   "sbm_seed": FIXTURE_SBM_SEED, "n": 100, "k": 4}),
    Workload(
        "scale-unconstrained", workers=1, jobs=4, runs=SCALE_RUNS, run_pass=_scale_pass,
        setup=_scale_setup,
        instances={"ppm_seeds": [s.seed for s in _ppm_specs(_scale_plan(0, 1))],
                   "n": 1000, "k": 4}),
    Workload(
        "karate-pool", workers=2, jobs=3, runs=KARATE_RUNS, run_pass=_karate_pass,
        setup=_karate_setup, instances={"graph": KARATE_EDGES.name, "k": 2},
        uses_karate=True),
]}
