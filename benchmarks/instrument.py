"""Instrumentation the benchmark installs around the program's public functions.

Nothing here edits the program: both classes replace module attributes of
``acsbm`` with wrappers and put the originals back on ``restore``.

``Recorder`` is always on.  It captures what each pass fitted (graph, config,
results and planted partition) so outputs can be checked after the timed
region, times input set-up, and counts process-pool starts (with this
process's RSS at each start).  It adds a few
calls per (instance, model) job, not per restart.

``Tracer`` is on only in the traced run.  It records one span per call at
each layer boundary: name, start, end, parent span and restart id, plus a
few attributes of the result.  Spans stay in memory and are written once,
at exit.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field

import acsbm.benchmark
import acsbm.core
import acsbm.search
import acsbm.solver
from acsbm.search import OBJECTIVE_MODULARITY
from acsbm.solver import AssortativityMode

perf_counter = time.perf_counter

# Binding block statistics kept for the solver replays, as a uniform sample
# of all strong solves of the traced passes.
CORPUS_CAP = 100


class _Patches:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper(getattr(module, attr)))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def model_name(cfg) -> str:
    """The benchmark model name a FitConfig stands for."""
    if cfg.objective == OBJECTIVE_MODULARITY:
        return "modularity"
    return "dc-sbm" if cfg.mode is AssortativityMode.NONE else "ac-dc-sbm"


def current_rss_kib() -> float:
    """Resident set size of this process now (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


@dataclass
class Job:
    """One multi_start call: every restart of one model on one graph."""

    graph: object
    cfg: object
    results: list
    truth: object = None

    @property
    def model(self) -> str:
        return model_name(self.cfg)


@dataclass
class PassCapture:
    jobs: list[Job] = field(default_factory=list)
    truths: list[tuple[object, object]] = field(default_factory=list)
    setup_s: float = 0.0
    pool_starts: int = 0


class Recorder(_Patches):
    """Captures jobs, set-up time and pool starts of the current pass."""

    def __init__(self) -> None:
        super().__init__()
        self.current = PassCapture()
        self._fixed_truths: list[tuple[object, object]] = []
        # Smallest RSS of this process when a pool started, in KiB: forked
        # workers begin with these pages resident.
        self.pool_start_rss_kib: float | None = None

    def install(self) -> None:
        self.patch(acsbm.benchmark, "multi_start", self._capture_jobs)
        for attr in ("generate_ppm", "generate_sbm"):
            self.patch(acsbm.benchmark, attr, self._time_generator)
        self.patch(acsbm.benchmark, "load_edge_list", self._time_setup)
        self.patch(acsbm.search, "ProcessPoolExecutor", self._count_pools)

    def begin_pass(self) -> PassCapture:
        self.current = PassCapture()
        return self.current

    def add_truth(self, graph, truth) -> None:
        """Register the known partition of a graph the program will load."""
        self._fixed_truths.append((graph, truth))

    def truth_of(self, graph):
        for known, truth in self.current.truths + self._fixed_truths:
            if known is graph or known == graph:
                return truth
        return None

    def _time_setup(self, fn):
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.current.setup_s += perf_counter() - start
        return timed

    def _time_generator(self, fn):
        timed = self._time_setup(fn)

        def generate(*args, **kwargs):
            out = timed(*args, **kwargs)
            self.current.truths.append((out[0], out[1]))
            return out
        return generate

    def _capture_jobs(self, fn):
        def multi_start(graph, cfg, runs, workers=None):
            job = Job(graph, cfg, [])
            self.current.jobs.append(job)
            job.results = fn(graph, cfg, runs, workers=workers)
            job.truth = self.truth_of(graph)
            return job.results
        return multi_start

    def _count_pools(self, cls):
        recorder = self

        class CountingPool(cls):
            def __init__(self, *args, **kwargs):
                recorder.current.pool_starts += 1
                rss = current_rss_kib()
                if (recorder.pool_start_rss_kib is None
                        or rss < recorder.pool_start_rss_kib):
                    recorder.pool_start_rss_kib = rss
                super().__init__(*args, **kwargs)
        return CountingPool


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    restart: int
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer(_Patches):
    """Spans at the layer boundaries of one workers=1 fit pipeline."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self.corpus: list = []
        self._strong_solves = 0
        self._sampler = random.Random(0)
        self._stack: list[int] = []
        self._restart = -1
        self._restarts = 0

    def install(self) -> None:
        span = self._span
        self.patch(acsbm.benchmark, "multi_start", span("search.multi_start"))
        self.patch(acsbm.search, "fit", span("search.fit", self._fit_attrs,
                                             restart=True))
        self.patch(acsbm.search, "solve_constrained",
                   span("solver.solve_constrained", self._solve_attrs))
        self.patch(acsbm.search, "is_feasible", span("solver.is_feasible"))
        self.patch(acsbm.search, "omega_mle", span("likelihood.omega_mle"))
        for module in (acsbm.search, acsbm.solver):
            self.patch(module, "log_likelihood",
                       span("likelihood.log_likelihood"))
        self.patch(acsbm.search, "block_stats", span("core.block_stats"))
        self.patch(acsbm.core, "parse_edge_list", span("core.parse_edge_list"))
        self.patch(acsbm.benchmark, "nmi", span("metrics.nmi"))
        self.patch(acsbm.benchmark, "generate_ppm",
                   span("generators.generate_ppm"))
        self.patch(acsbm.benchmark, "generate_sbm",
                   span("generators.generate_sbm"))

    def region(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own (used for the pass entry point)."""
        return self._span(name)(fn)(*args, **kwargs)

    def _span(self, name: str, attrs=None, restart: bool = False):
        spans, stack = self.spans, self._stack

        def wrap(fn):
            def traced(*args, **kwargs):
                if restart:
                    self._restart = self._restarts
                    self._restarts += 1
                rec = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                           self._restart)
                stack.append(len(spans))
                spans.append(rec)
                rec.start = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.end = perf_counter()
                    stack.pop()
                    if restart:
                        self._restart = -1
                if attrs is not None:
                    rec.attrs = attrs(args, out)
                return out
            return traced
        return wrap

    @staticmethod
    def _fit_attrs(args, result) -> dict:
        return {"sweeps": result.sweeps, "moves": len(result.trace) - 1,
                "filtered": result.filtered_moves,
                "model": model_name(args[1])}

    def _solve_attrs(self, args, sol) -> dict:
        mode = AssortativityMode(args[1]).value
        if mode == "strong":
            self._strong_solves += 1
            if len(self.corpus) < CORPUS_CAP:
                self.corpus.append(args[0].copy())
            else:
                slot = self._sampler.randrange(self._strong_solves)
                if slot < CORPUS_CAP:
                    self.corpus[slot] = args[0].copy()
        return {"mode": mode, "iterations": sol.iterations,
                "converged": sol.converged, "kkt_residual": sol.kkt_residual}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "restart": s.restart, **(s.attrs or {})}))
                fh.write("\n")
