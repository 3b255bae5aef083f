"""Experiment orchestration: seeded sweeps and ensembles with CSV output.

Instance seeds and fit seeds are drawn from separate counters so every
model faces identical graphs.  Row ordering is fixed by sort keys, so a
plan with the same seeds always produces byte-identical CSV files,
regardless of worker scheduling.  Statistics beyond the per-run rows
(significance tests etc.) are left to downstream tools.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .core import Graph, load_edge_list
from .generators import PpmSpec, SbmSpec, generate_ppm, generate_sbm
from .metrics import assortativity_level, count_assortative_communities, nmi
from .search import (OBJECTIVE_LIKELIHOOD, OBJECTIVE_MODULARITY, FitConfig,
                     FitResult, multi_start)
from .solver import AssortativityMode

__all__ = [
    "ExperimentPlan",
    "MODEL_NAMES",
    "model_fit_config",
    "run_ppm_sweep",
    "run_sbm_ensemble",
    "run_real",
]

DEFAULT_RATIOS = [round(0.05 * i, 2) for i in range(1, 14)]  # 0.05 .. 0.65

MODEL_NAMES = ("dc-sbm", "ac-dc-sbm", "modularity")

FEASIBILITY_TOL = 1e-6


def model_fit_config(model: str, k: int, seed: int,
                     mode: AssortativityMode | None = None) -> FitConfig:
    """FitConfig for a named model.

    dc-sbm is the unconstrained likelihood search, ac-dc-sbm the constrained
    one (strong by default, ``mode`` may select weak), and modularity the
    modularity-objective baseline.
    """
    if model == "dc-sbm":
        return FitConfig(k=k, mode=AssortativityMode.NONE, seed=seed,
                         objective=OBJECTIVE_LIKELIHOOD)
    if model == "ac-dc-sbm":
        return FitConfig(k=k, mode=mode or AssortativityMode.STRONG,
                         seed=seed, objective=OBJECTIVE_LIKELIHOOD)
    if model == "modularity":
        return FitConfig(k=k, mode=AssortativityMode.NONE, seed=seed,
                         objective=OBJECTIVE_MODULARITY)
    raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


def _json_fits(value, hint) -> bool:
    """Whether a JSON value has the type hint of a plan field."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (list, tuple):  # list[T] of any length, tuple[T, T] of two
        return isinstance(value, list) and all(_json_fits(v, args[0]) for v in value) \
            and (origin is list or len(value) == len(args))
    if args:  # T | None
        return any(_json_fits(value, a) for a in args)
    return type(value) in ((int, float) if hint is float else (hint,))


@dataclass
class ExperimentPlan:
    """Declarative description of one experiment.

    kind is "ppm-sweep", "sbm-ensemble" or "real-network".  fit seeds are
    fit_seed .. fit_seed + runs - 1 for every (instance, model) pair;
    instance d is generated with instance_seed + d.
    """

    kind: str
    models: list[str] = field(default_factory=lambda: ["dc-sbm", "ac-dc-sbm"])
    runs: int = 20
    fit_seed: int = 0
    instance_seed: int = 1000
    n: int = 100
    k: int = 4
    avg_degree: float = 16.0
    ratios: list[float] = field(default_factory=lambda: list(DEFAULT_RATIOS))
    datasets: int = 10
    diag_range: tuple[float, float] = (0.45, 0.55)
    offdiag_range: tuple[float, float] = (0.0, 0.4)
    quantile: float = 0.10
    graph_path: str | None = None
    index_base: int = 0
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("ppm-sweep", "sbm-ensemble", "real-network"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.models:
            raise ValueError("at least one model is required")
        for model in self.models:
            if model not in MODEL_NAMES:
                raise ValueError(f"unknown model {model!r}")
        if not 0 < self.quantile <= 1:
            raise ValueError("quantile must lie in (0, 1]")

    @classmethod
    def from_json(cls, path) -> "ExperimentPlan":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: a plan is a JSON object, got {type(data).__name__}")
        data.pop("comment", None)
        hints = get_type_hints(cls)
        unknown = sorted(set(data) - set(hints))
        if unknown:
            raise ValueError(f"{path}: unknown plan keys {', '.join(unknown)}")
        for f in fields(cls):
            if f.name in data and not _json_fits(data[f.name], hints[f.name]):
                raise ValueError(f"{path}: plan key {f.name!r} must be {f.type}, "
                                 f"got {json.dumps(data[f.name])}")
        for key in ("diag_range", "offdiag_range"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["diag_range"] = list(self.diag_range)
        d["offdiag_range"] = list(self.offdiag_range)
        return d


def _fit_ensemble(graph: Graph, model: str, plan: ExperimentPlan) -> list[FitResult]:
    cfg = model_fit_config(model, plan.k, plan.fit_seed)
    return multi_start(graph, cfg, plan.runs, workers=plan.workers)


def _run_record(result: FitResult, truth=None) -> dict:
    rec = result.to_dict()
    if truth is not None:
        rec["nmi"] = nmi(truth, result.partition)
    rec["assortative_count"] = count_assortative_communities(
        result.omega, FEASIBILITY_TOL)
    return rec


def run_ppm_sweep(plan: ExperimentPlan, out_dir=None) -> list[dict]:
    """Fit every model on one PPM instance per ratio.

    Returns one row per (ratio, model, run) with keys
    (ratio, model, run, nmi, loglik); optionally persists row CSV, per-run
    JSONL payloads and a manifest under ``out_dir``.
    """
    rows: list[dict] = []
    payloads: list[dict] = []
    for idx, ratio in enumerate(sorted(plan.ratios)):
        spec = PpmSpec(n=plan.n, k=plan.k, avg_degree=plan.avg_degree,
                       ratio=ratio, seed=plan.instance_seed + idx)
        graph, truth = generate_ppm(spec)
        for model in plan.models:
            for result in _fit_ensemble(graph, model, plan):
                run = result.seed - plan.fit_seed
                score = nmi(truth, result.partition)
                rows.append({"ratio": ratio, "model": model, "run": run,
                             "nmi": score, "loglik": result.log_likelihood})
                payload = _run_record(result, truth)
                payload.update(experiment="ppm-sweep", ratio=ratio,
                               model=model, run=run,
                               instance_seed=spec.seed)
                payloads.append(payload)
    rows.sort(key=lambda r: (r["ratio"], r["model"], r["run"]))
    payloads.sort(key=lambda r: (r["ratio"], r["model"], r["run"]))
    if out_dir is not None:
        _persist(out_dir, plan, "ppm_sweep.csv",
                 ["ratio", "model", "run", "nmi", "loglik"], rows, payloads)
    return rows


def _top_quantile_mean(results_rows: list[dict], quantile: float) -> float:
    """Mean NMI of the best-likelihood fraction of rows."""
    take = max(1, math.ceil(quantile * len(results_rows)))
    ordered = sorted(results_rows, key=lambda r: (-r["objective"], r["run"]))
    return float(np.mean([r["nmi"] for r in ordered[:take]]))


def run_sbm_ensemble(plan: ExperimentPlan, out_dir=None) -> list[dict]:
    """Fit every model on a family of general-SBM instances.

    Returns one row per (dataset, model, run) with keys (dataset, model,
    run, nmi, loglik, assortative_count).  When persisted, a summary CSV
    with per-(dataset, model) medians and the top-quantile mean NMI is
    written alongside the per-run rows.
    """
    rows: list[dict] = []
    payloads: list[dict] = []
    summary: list[dict] = []
    for d in range(plan.datasets):
        spec = SbmSpec(n=plan.n, k=plan.k, diag_range=plan.diag_range,
                       offdiag_range=plan.offdiag_range,
                       seed=plan.instance_seed + d)
        graph, truth, planted = generate_sbm(spec)
        for model in plan.models:
            model_rows = []
            for result in _fit_ensemble(graph, model, plan):
                run = result.seed - plan.fit_seed
                score = nmi(truth, result.partition)
                count = count_assortative_communities(result.omega,
                                                      FEASIBILITY_TOL)
                rows.append({"dataset": d, "model": model, "run": run,
                             "nmi": score, "loglik": result.log_likelihood,
                             "assortative_count": count})
                model_rows.append({"run": run, "nmi": score,
                                   "objective": result.objective_value})
                payload = _run_record(result, truth)
                payload.update(experiment="sbm-ensemble", dataset=d,
                               model=model, run=run, instance_seed=spec.seed,
                               planted_omega=planted.tolist())
                payloads.append(payload)
            summary.append({
                "dataset": d,
                "model": model,
                "median_nmi": float(np.median([r["nmi"] for r in model_rows])),
                "mean_nmi": float(np.mean([r["nmi"] for r in model_rows])),
                "top_quantile_mean_nmi": _top_quantile_mean(model_rows,
                                                            plan.quantile),
            })
    rows.sort(key=lambda r: (r["dataset"], r["model"], r["run"]))
    payloads.sort(key=lambda r: (r["dataset"], r["model"], r["run"]))
    summary.sort(key=lambda r: (r["dataset"], r["model"]))
    if out_dir is not None:
        _persist(out_dir, plan, "sbm_ensemble.csv",
                 ["dataset", "model", "run", "nmi", "loglik",
                  "assortative_count"], rows, payloads)
        _write_csv(Path(out_dir) / "sbm_summary.csv",
                   ["dataset", "model", "median_nmi", "mean_nmi",
                    "top_quantile_mean_nmi"], summary)
    return rows


def run_real(plan: ExperimentPlan, graph_path=None, k: int | None = None,
             out_dir=None) -> dict:
    """Multi-start every model on a real edge list and report the best fits.

    The report carries, per model, the winning run's block parameters with
    their diagonal minimum / off-diagonal maximum, the achieved
    assortativity level, and the block sizes.
    """
    path = graph_path or plan.graph_path
    if path is None:
        raise ValueError("real-network experiment needs a graph path")
    k = k or plan.k
    graph = load_edge_list(path, index_base=plan.index_base)

    report: dict = {"graph": str(path), "n": graph.n,
                    "total_weight": graph.total_weight, "k": k, "models": {}}
    rows: list[dict] = []
    for model in plan.models:
        cfg = model_fit_config(model, k, plan.fit_seed)
        results = multi_start(graph, cfg, plan.runs, workers=plan.workers)
        for result in results:
            rows.append({"model": model, "run": result.seed - plan.fit_seed,
                         "loglik": result.log_likelihood,
                         "modularity": result.modularity,
                         "sweeps": result.sweeps})
        best = results[0]
        omega = best.omega
        off = ~np.eye(omega.shape[0], dtype=bool)
        sizes = best.partition.block_sizes()
        report["models"][model] = {
            "log_likelihood": best.log_likelihood,
            "modularity": best.modularity,
            "seed": best.seed,
            "lambda": best.lam,
            "omega": omega.tolist(),
            "omega_diag_min": float(np.min(np.diag(omega))),
            "omega_offdiag_max": float(np.max(omega[off])) if omega.shape[0] > 1 else 0.0,
            "assortativity_level": assortativity_level(omega, FEASIBILITY_TOL).value,
            "block_sizes": sizes,
            "nonempty_blocks": sum(1 for s in sizes if s > 0),
            "partition": list(best.partition.assign),
        }
    rows.sort(key=lambda r: (r["model"], r["run"]))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "real_runs.csv",
                   ["model", "run", "loglik", "modularity", "sweeps"], rows)
        with open(out / "real_report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(out, plan, ["real_runs.csv", "real_report.json"])
    return report


def _write_csv(path: Path, fields: list[str], rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([repr(float(row[f])) if isinstance(row[f], float)
                             else row[f] for f in fields])


def _write_manifest(out: Path, plan: ExperimentPlan, artifacts: list[str]) -> None:
    manifest = {"version": __version__, "plan": plan.to_dict(),
                "artifacts": sorted(artifacts)}
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _persist(out_dir, plan: ExperimentPlan, csv_name: str, fields: list[str],
             rows: list[dict], payloads: list[dict]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / csv_name, fields, rows)
    with open(out / "runs.jsonl", "w", encoding="utf-8") as fh:
        for payload in payloads:
            fh.write(json.dumps(payload, sort_keys=True))
            fh.write("\n")
    _write_manifest(out, plan, [csv_name, "runs.jsonl", "manifest.json"])
