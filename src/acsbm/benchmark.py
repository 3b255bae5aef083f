"""Experiment orchestration: seeded sweeps and ensembles with CSV output.

Instance seeds and fit seeds are drawn from separate counters so every
model faces identical graphs.  All three runners take one record path:
``_runs`` fits every model on each instance and builds each restart's run
record, and ``_table`` sorts the records and projects the per-run CSV rows.
The synthetic runners add one summary row per (instance, model) and the
records as ``runs.jsonl``; ``run_real`` reports each model's best record.
Each hands its files to ``_write``, which adds a manifest listing exactly
the files written.  So a plan with the same seeds always produces
byte-identical files, regardless of worker scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import statistics
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .core import Partition, _count, _json, _write_text, load_edge_list
from .generators import PpmSpec, SbmSpec, generate_ppm, generate_sbm
from .metrics import assortativity_level, nmi
from .search import OBJECTIVE_LIKELIHOOD, OBJECTIVE_MODULARITY, FitConfig, multi_start
from .solver import AssortativityMode, _assortative_rows, _row_ends

__all__ = [
    "ExperimentPlan",
    "MODEL_NAMES",
    "model_fit_config",
    "run_ppm_sweep",
    "run_sbm_ensemble",
    "run_real",
]

DEFAULT_RATIOS = tuple(round(0.05 * i, 2) for i in range(1, 14))  # 0.05 .. 0.65

MODEL_NAMES = ("dc-sbm", "ac-dc-sbm", "modularity")

FEASIBILITY_TOL = 1e-6

TOP_QUANTILE = 0.10  # the summaries' top mean: each cell's best 10% of runs

# The fields each kind reads and its manifest records; a plan leaves the rest default.
_COMMON = ("kind", "models", "runs", "fit_seed", "k", "workers")
KIND_FIELDS = {"ppm-sweep": (*_COMMON, "instance_seed", "n", "avg_degree", "ratios"),
               "sbm-ensemble": (*_COMMON, "instance_seed", "n", "datasets",
                                "diag_range", "offdiag_range"),
               "real-network": _COMMON}


def model_fit_config(model: str, k: int, seed: int,
                     mode: AssortativityMode | str | None = None) -> FitConfig:
    """FitConfig for a named model.

    dc-sbm is the unconstrained likelihood search, ac-dc-sbm the constrained
    one (strong by default, ``mode`` may select weak), and modularity the
    modularity-objective baseline.  A mode the model cannot take (weak or
    strong on the other two, none on ac-dc-sbm) raises ValueError.
    """
    if model not in MODEL_NAMES:
        raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    constrained = model == "ac-dc-sbm"
    mode = AssortativityMode(mode or (AssortativityMode.STRONG if constrained
                                      else AssortativityMode.NONE))
    if constrained == (mode is AssortativityMode.NONE):
        raise ValueError(f"{model} cannot take assortativity mode {mode.value!r}")
    return FitConfig(k=k, mode=mode, seed=seed, objective=OBJECTIVE_MODULARITY
                     if model == "modularity" else OBJECTIVE_LIKELIHOOD)


def _fits(value, hint) -> bool:
    """Whether a value has the type hint of a plan field.  A list or a tuple
    serves for a tuple, numpy's scalars count as the numbers they hold, and
    an int field takes any real number, booleans too, for ``_count`` to judge."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:  # tuple[T, ...] of any length, tuple[T, T] of two
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value) \
            and (args[-1] is Ellipsis or len(value) == len(args))
    abstract = numbers.Real if hint in (int, float) else hint
    return isinstance(value, abstract) and (hint is int or not isinstance(value, bool))


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one experiment.

    ``KIND_FIELDS[kind]`` names the fields a kind reads; setting another
    away from its default is an error.  fit seeds are fit_seed .. fit_seed
    + runs - 1 for every (instance, model) pair, and instance d has seed
    instance_seed + d (ppm-sweep: one instance per ratio, ascending).  A plan
    is checked once, at construction, and cannot change after: derive a
    variant with ``dataclasses.replace``, which checks it again.
    """

    kind: str
    models: tuple[str, ...] = ("dc-sbm", "ac-dc-sbm")
    runs: int = 20
    fit_seed: int = 0
    instance_seed: int = 1000
    n: int = 100
    k: int = 4
    avg_degree: float = 16.0
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    datasets: int = 10
    diag_range: tuple[float, float] = SbmSpec.diag_range
    offdiag_range: tuple[float, float] = SbmSpec.offdiag_range
    workers: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            if not _fits(value := getattr(self, f.name), _HINTS[f.name]):
                raise ValueError(f"plan field {f.name!r} must be {f.type}, got {value!r}")
        if self.kind not in KIND_FIELDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        # ints, floats (x + 0.0: -0.0 as 0.0) and tuples however given, so
        # equal plans write equal bytes; a field the kind does not read is
        # rejected as such before any check of its value
        object.__setattr__(self, "avg_degree", float(self.avg_degree) + 0.0)
        object.__setattr__(self, "models", tuple(self.models))
        for name in ("ratios", "diag_range", "offdiag_range"):
            object.__setattr__(self, name, tuple(float(x) + 0.0
                                                 for x in getattr(self, name)))
        for f in fields(self):
            if f.name not in KIND_FIELDS[self.kind] and getattr(self, f.name) != f.default:
                raise ValueError(f"a {self.kind!r} plan does not read {f.name!r}")
        for name, low in (("runs", 1), ("n", 1), ("k", 1), ("datasets", 1),
                          ("workers", 1), ("fit_seed", 0), ("instance_seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), low))
        if not self.models:
            raise ValueError("at least one model is required")
        for model in self.models:
            if model not in MODEL_NAMES:
                raise ValueError(f"unknown model {model!r}")
        if not self.ratios:
            raise ValueError("a plan needs at least one ratio")
        for key, values in (("models", self.models), ("ratios", self.ratios)):
            if len(set(values)) < len(values):
                raise ValueError(f"{key} must list each entry once, got {list(values)}")

    @classmethod
    def from_json(cls, path) -> "ExperimentPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)  # UnicodeDecodeError, JSONDecodeError
            if not isinstance(data, dict):
                raise ValueError(f"a plan is a JSON object, got {type(data).__name__}")
            data.pop("comment", None)
            unknown = sorted(set(data) - set(_HINTS))
            if unknown:
                raise ValueError(f"unknown plan keys {', '.join(unknown)}")
            return cls(**data)
        except (TypeError, ValueError) as exc:  # TypeError: no kind
            raise ValueError(f"{path}: {exc}") from None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in KIND_FIELDS[self.kind]}


# resolved once, as get_type_hints evaluates every annotation at each call
_HINTS = get_type_hints(ExperimentPlan)


def _runs(plan: ExperimentPlan, instances) -> list[list[dict]]:
    """Fit every model of the plan on each (tags, graph, truth) of
    ``instances``, by one ``multi_start`` call each; return the run records
    of every (instance, model), best first.  A record is the restart's
    ``to_dict()`` with its NMI against ``truth`` (None without one), its
    assortative-block count, run index, ``experiment`` (the kind), ``model``
    and the instance's tags."""
    cells = []
    for tags, graph, truth in instances:
        for model in plan.models:
            results = multi_start(graph, model_fit_config(model, plan.k, plan.fit_seed),
                                  plan.runs, workers=plan.workers)
            cells.append([{**rec, "model": model, **tags,
                           "nmi": None if truth is None else nmi(truth, r.partition),
                           "assortative_count": sum(_assortative_rows(
                               *_row_ends(rec["omega"]), FEASIBILITY_TOL)),
                           "run": r.seed - plan.fit_seed, "experiment": plan.kind}
                          for r in results for rec in (r.to_dict(),)])
    return cells


def _table(cells: list[list[dict]], fields: list[str]) -> tuple[list[dict], list[dict]]:
    """The records of ``cells`` sorted by ``fields`` up to ``run``, and their
    rows of ``fields`` (``loglik`` is ``log_likelihood``)."""
    key = fields[:fields.index("run") + 1]
    records = sorted((r for cell in cells for r in cell),
                     key=lambda r: tuple(r[f] for f in key))
    return records, [{f: r["log_likelihood" if f == "loglik" else f] for f in fields}
                     for r in records]


def _expect_kind(plan: ExperimentPlan, kind: str) -> None:
    if plan.kind != kind:
        raise ValueError(f"a {plan.kind!r} plan cannot run as a {kind!r} experiment")


def _run_synthetic(plan: ExperimentPlan, out_dir, instances, fields: list[str],
                   names: tuple[str, str]) -> list[dict]:
    """Fit every model on each (tags, graph, truth) of ``instances``; return
    the CSV rows of ``_table``.  Under ``out_dir``, write them as
    ``names[0]``, the records as ``runs.jsonl`` and, as ``names[1]``, one row
    per (instance, model) of its median, mean and best-``TOP_QUANTILE`` mean
    NMI."""
    key = fields[0]
    cells = _runs(plan, instances)
    summary = []
    for recs in cells:  # best first, so the top quantile is a prefix
        scores = [r["nmi"] for r in recs]
        top = scores[:max(1, math.ceil(TOP_QUANTILE * len(scores)))]
        summary.append({key: recs[0][key], "model": recs[0]["model"],
                        "median_nmi": statistics.median(scores),
                        "mean_nmi": float(np.mean(scores)),
                        "top_quantile_mean_nmi": float(np.mean(top))})
    summary.sort(key=lambda r: (r[key], r["model"]))
    records, rows = _table(cells, fields)
    _write(out_dir, plan, {
        names[0]: _csv(fields, rows),
        "runs.jsonl": "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        names[1]: _csv(list(summary[0]), summary)})
    return rows


def run_ppm_sweep(plan: ExperimentPlan, out_dir) -> list[dict]:
    """Fit every model on one PPM instance per ratio: rows (ratio, model,
    run, nmi, loglik), persisted as ``ppm_sweep.csv`` and ``ppm_summary.csv``."""
    _expect_kind(plan, "ppm-sweep")
    specs = [PpmSpec(n=plan.n, k=plan.k, avg_degree=plan.avg_degree,
                     ratio=ratio, seed=plan.instance_seed + idx)
             for idx, ratio in enumerate(sorted(plan.ratios))]
    instances = (({"ratio": s.ratio, "instance_seed": s.seed}, *generate_ppm(s))
                 for s in specs)
    return _run_synthetic(plan, out_dir, instances,
                          ["ratio", "model", "run", "nmi", "loglik"],
                          ("ppm_sweep.csv", "ppm_summary.csv"))


def run_sbm_ensemble(plan: ExperimentPlan, out_dir) -> list[dict]:
    """Fit every model on ``datasets`` general-SBM instances: rows (dataset,
    model, run, nmi, loglik, assortative_count), persisted as
    ``sbm_ensemble.csv`` and ``sbm_summary.csv``; each run record carries
    its instance's planted block rates."""
    _expect_kind(plan, "sbm-ensemble")
    specs = [SbmSpec(n=plan.n, k=plan.k, diag_range=plan.diag_range,
                     offdiag_range=plan.offdiag_range, seed=plan.instance_seed + d)
             for d in range(plan.datasets)]
    instances = (({"dataset": d, "instance_seed": s.seed, "planted_omega": p.tolist()},
                  g, t) for d, s in enumerate(specs) for g, t, p in [generate_sbm(s)])
    return _run_synthetic(plan, out_dir, instances,
                          ["dataset", "model", "run", "nmi", "loglik",
                           "assortative_count"],
                          ("sbm_ensemble.csv", "sbm_summary.csv"))


def run_real(plan: ExperimentPlan, graph_path, k: int | None = None, *,
             out_dir) -> dict:
    """Multi-start every model on the edge list at ``graph_path`` (0-based
    ids) and report the best fits.  ``k``, if given, replaces the plan's
    k, so the manifest records the k that was fitted.

    The graph is the one instance of ``_runs``, with no tags and no truth
    (``nmi`` is None).  ``real_runs.csv`` is the records' ``_table``; the
    report gives, per model, its best record with Ω's diagonal minimum and
    off-diagonal maximum, the assortativity level and the block sizes.  The
    records stay in memory: no ``runs.jsonl`` is written.
    """
    _expect_kind(plan, "real-network")
    plan = replace(plan, k=plan.k if k is None else k)
    graph = load_edge_list(graph_path)
    cells = _runs(plan, [({}, graph, None)])
    report = {"graph": Path(graph_path).name, "n": graph.n,
              "total_weight": graph.total_weight, "k": plan.k,
              "models": {recs[0]["model"]: _best_fit(recs[0]) for recs in cells}}
    fields = ["model", "run", "loglik", "modularity", "sweeps"]
    _write(out_dir, plan, {"real_runs.csv": _csv(fields, _table(cells, fields)[1]),
                           "real_report.json": _json(report)})
    return report


def _best_fit(rec: dict) -> dict:
    """A model's ``real_report.json`` entry, from its best run record."""
    diag, off = _row_ends(rec["omega"])
    sizes = Partition(rec["k"], rec["partition"]).block_sizes()
    return {**{key: rec[key] for key in ("log_likelihood", "modularity", "seed",
                                         "lambda", "omega", "partition")},
            "omega_diag_min": min(diag), "omega_offdiag_max": max(off),
            "assortativity_level": assortativity_level(rec["omega"], FEASIBILITY_TOL).value,
            "block_sizes": sizes, "nonempty_blocks": sum(1 for s in sizes if s > 0)}


def _csv(fields: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([repr(float(row[f])) if isinstance(row[f], float)
                         else row[f] for f in fields])
    return buf.getvalue()


def _write(out_dir, plan: ExperimentPlan, files: dict[str, str]) -> None:
    """Write each named text under ``out_dir``, then ``manifest.json``: the
    plan and the sorted names of exactly the files written, itself included."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files["manifest.json"] = _json({"version": __version__,
                                    "plan": plan.to_dict(),
                                    "artifacts": sorted([*files, "manifest.json"])})
    for name, text in files.items():
        _write_text(out / name, text)
