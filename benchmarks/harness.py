"""Orchestration of a benchmark run; ``perf.py`` is the command that runs it.

A run repeats passes of one workload (see ``workloads.py``) for about
``--seconds`` seconds.  After each pass, outside the timed region, it checks
every restart's output (``verify.py``).  It prints one line per metric and,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

``--trace 0`` reports the end-to-end metrics; its passes fit successive
blocks of restart seeds.  ``--trace 1`` is a separate run that repeats one
block: a warm-up pass, untraced reference passes (alternating workers=1 and
the workload's worker count when that is above 1), then traced passes at
workers=1, then replays.  All its passes must write byte-identical
artifacts; it reports the per-layer metrics.  BENCHMARK.json names the
workloads and the metrics of both kinds with their units.  Each run writes
its full results, the run environment and, when traced, every span to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import acsbm
import layers
from acsbm.metrics import nmi
from instrument import Recorder, Tracer
from verify import check_restart
from workloads import (BLOCKS_PER_SEED, KARATE_EDGES, WORKLOADS, DataError,
                       load_karate)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# setup_s times the pass's set-up alone (the set-up inside a pass runs cold,
# between fits; it is recorded per pass but not used).  One sample is the
# time per set-up of a batch of set-ups that takes at least SETUP_BATCH_S.
# After every pass, samples are taken for SETUP_SHARE of that pass's wall
# time (at least one), so they spread over the whole run, and the run ends
# with samples until there are SETUP_SAMPLES.  The host's speed drifts over
# tens of seconds and noise only ever adds time, so setup_s is the fastest
# sample.
SETUP_BATCH_S = 0.02
SETUP_SHARE = 0.1
SETUP_SAMPLES = 10

# The traced run's untraced reference passes: at most REF_PASSES per worker
# count, while they take less than REF_SHARE of the run (at least one).
REF_PASSES = 3
REF_SHARE = 0.4

# The traced run stops after this many traced passes even if time remains:
# the per-layer averages are settled by then, and spans.jsonl stays small.
MAX_TRACED_PASSES = 8


@dataclass
class PassRecord:
    workers: int
    traced: bool
    wall_s: float
    setup_s: float
    expected: int
    restarts: int
    failed: int
    pool_starts: int
    digest: str
    bytes_written: int
    jobs: list
    raised: bool
    problems: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {"workers": self.workers, "traced": self.traced,
                "wall_s": self.wall_s, "setup_s": self.setup_s,
                "restarts": self.restarts, "failed": self.failed,
                "pool_starts": self.pool_starts, "digest": self.digest,
                "bytes_written": self.bytes_written}


def digest_outputs(out: Path) -> tuple[str, int]:
    """SHA-256 of the pass's artifacts and the bytes written.

    manifest.json records the plan, worker count included, so it is written
    but left out of the digest."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        if path.name != "manifest.json":
            h.update(str(path.relative_to(out)).encode())
            h.update(data)
    return h.hexdigest(), total


def one_pass(ctx, block: int, workers: int, tracer=None) -> PassRecord:
    """Run one pass, then check every restart it produced."""
    w, rec, out = ctx.workload, ctx.recorder, ctx.out / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    capture = rec.begin_pass()
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            w.run_pass(block, out, workers)
        else:
            tracer.region("benchmark.run", w.run_pass, block, out, workers)
    except Exception:  # the program failed: report it, keep the benchmark alive
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - start
    digest, nbytes = digest_outputs(out)

    problems = [error] if error else []
    restarts = bad = 0
    for job in capture.jobs:
        for result in job.results:
            restarts += 1
            found = check_restart(job.graph, result)
            bad += bool(found)
            problems += [f"{job.model} seed {result.seed}: {p}" for p in found]
    expected = w.restarts_per_pass
    failed = expected if error else expected - restarts + bad
    return PassRecord(workers, tracer is not None, wall, capture.setup_s,
                      expected, restarts, failed, capture.pool_starts, digest,
                      nbytes, capture.jobs, raised=error is not None,
                      problems=problems)


def run_passes(ctx, seconds: float, workers: int, repeat: bool, tracer=None,
               after_pass=None, max_passes=None) -> list[PassRecord]:
    """Passes until the next one would end after ``seconds``, or until
    ``max_passes`` passes have run.

    Pass p fits block ``first + p``, or ``first`` every time when ``repeat``.
    Fit results are dropped after ``after_pass`` has seen them, so memory,
    and with it peak_rss_mb, does not grow with the number of passes.
    """
    first = ctx.seed * BLOCKS_PER_SEED
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        block = first if repeat else first + len(passes)
        passes.append(one_pass(ctx, block, workers, tracer))
        if after_pass is not None:
            after_pass(passes[-1])
        passes[-1].jobs = []
        took = time.perf_counter() - began
        if (passes[-1].raised or len(passes) == max_passes
                or time.perf_counter() - start + took > seconds):
            return passes


def check_digests(passes: list[PassRecord]) -> int:
    """Restarts of passes whose artifacts differ from the first pass's."""
    failed = 0
    for p in passes[1:]:
        if p.digest != passes[0].digest:
            failed += p.expected - p.failed
            p.problems.append(f"artifact digest {p.digest[:12]} differs from "
                              f"the first pass's {passes[0].digest[:12]}")
    return failed


def peak_rss_mb(pool_workers: int, pool_start_rss_kib: float | None) -> float:
    """Peak RSS of this process plus, for each of ``pool_workers`` workers,
    the largest peak of any finished child above this process's RSS when a
    pool started.  A forked worker starts with the parent's pages resident,
    and those are already in the parent's own peak.  (Linux reports
    ru_maxrss in KiB.)"""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not pool_workers or pool_start_rss_kib is None:
        return own / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * max(0.0, child - pool_start_rss_kib)) / 1024.0


@dataclass
class Quality:
    """NMI and log-likelihood of every restart of the untraced passes.

    The metrics average over restarts, which is steadier between restart
    seeds than each job's best-of-R fit (the n=1000 dc-sbm best-of-8 NMI is
    bimodal, and its mean over jobs varied by 19% between seeds).  The
    best-of-R fit of each job, what `acsbm fit` returns, is recorded for the
    first pass.
    """

    nmis: list[float] = field(default_factory=list)
    nlls: list[float] = field(default_factory=list)
    best_of_r: list[dict] = field(default_factory=list)

    def add(self, record: PassRecord) -> None:
        first = not self.nmis
        for job in record.jobs:
            if not job.results:
                continue
            scores = [nmi(job.truth, r.partition) for r in job.results]
            self.nmis += scores
            if job.model != "modularity":
                self.nlls += [-r.log_likelihood for r in job.results]
            if first:
                best = job.results[0]
                self.best_of_r.append({
                    "model": job.model, "n": job.graph.n, "seed": best.seed,
                    "nmi": scores[0], "log_likelihood": best.log_likelihood})

    def metrics(self) -> dict:
        return {"nmi_mean": statistics.fmean(self.nmis) if self.nmis else 0.0,
                "nll_mean": statistics.fmean(self.nlls) if self.nlls else 0.0}


def time_setup(ctx, samples: list[float], min_s: float, min_count: int) -> None:
    """Append set-up samples for ``min_s`` seconds, at least ``min_count``."""
    start = time.perf_counter()
    count = 0
    while count < min_count or time.perf_counter() - start < min_s:
        capture = ctx.recorder.begin_pass()
        setups = 0
        while not setups or capture.setup_s < SETUP_BATCH_S:
            ctx.workload.setup()
            setups += 1
        samples.append(capture.setup_s / setups)
        count += 1


def run_untraced(ctx) -> tuple[dict, list[PassRecord], dict]:
    w = ctx.workload
    setups: list[float] = []
    quality = Quality()

    def after_pass(record: PassRecord) -> None:
        quality.add(record)
        time_setup(ctx, setups, SETUP_SHARE * record.wall_s, 1)

    passes = run_passes(ctx, ctx.seconds, w.workers, repeat=False,
                        after_pass=after_pass)
    time_setup(ctx, setups, 0.0, SETUP_SAMPLES - len(setups))
    metrics = {
        "restarts_per_s": (sum(p.restarts for p in passes)
                           / sum(p.wall_s for p in passes)),
        "setup_s": min(setups),
        "peak_rss_mb": peak_rss_mb(w.workers if w.workers > 1 else 0,
                                   ctx.recorder.pool_start_rss_kib),
        **quality.metrics(),
    }
    attempted = sum(p.expected for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["verified_frac"] = (attempted - failed) / attempted
    return metrics, passes, {"attempted": attempted, "failed": failed,
                             "setup_samples_s": setups,
                             "best_of_r": quality.best_of_r}


def reference_passes(ctx, block: int) -> tuple[list, list]:
    """Untraced passes of ``block`` after the warm-up, alternating workers=1
    and the workload's worker count (when above 1): REF_PASSES of each, or
    as many as fit in REF_SHARE of the run, at least one."""
    w = ctx.workload
    narrow, wide = [], []
    start = time.perf_counter()
    while not narrow or (len(narrow) < REF_PASSES and
                         time.perf_counter() - start < REF_SHARE * ctx.seconds):
        narrow.append(one_pass(ctx, block, workers=1))
        if w.workers > 1:
            wide.append(one_pass(ctx, block, workers=w.workers))
    return narrow, wide


def run_traced(ctx) -> tuple[dict, list[PassRecord], dict]:
    w = ctx.workload
    start = time.perf_counter()
    block = ctx.seed * BLOCKS_PER_SEED
    ref = one_pass(ctx, block, workers=1)  # warm-up; every pass must match it
    narrow, wide = reference_passes(ctx, block)
    tracer = Tracer()
    tracer.install()
    try:
        remaining = ctx.seconds - (time.perf_counter() - start)
        traced = run_passes(ctx, remaining, workers=1, repeat=True,
                            tracer=tracer, max_passes=MAX_TRACED_PASSES)
    finally:
        tracer.restore()
    passes = [ref] + narrow + wide + traced
    extra_failed = check_digests(passes)
    attempted = sum(p.expected for p in passes)
    failed = sum(p.failed for p in passes) + extra_failed

    metrics = layers.span_metrics(tracer.spans)
    metrics.update(layers.replay_solver(tracer.corpus))
    if ref.jobs:
        biggest = max(ref.jobs, key=lambda job: job.graph.n)
        metrics.update(layers.replay_core(biggest.graph, biggest.cfg.k, ctx.seed))
        metrics["search.task_bytes"] = layers.task_bytes(ref.jobs[0].graph,
                                                         ref.jobs[0].cfg)
    else:  # the program failed before fitting anything; nothing to replay
        metrics.update(dict.fromkeys(
            ["search.delta_relocation_us", "core.apply_relocation_us",
             "core.graph_build_ms", "search.task_bytes"], 0.0))
    narrow_s = statistics.median(p.wall_s for p in narrow)
    metrics["search.parallel_efficiency"] = (
        narrow_s / (w.workers * statistics.median(p.wall_s for p in wide))
        if wide else 1.0)
    metrics["search.pool_starts_per_pass"] = (wide or narrow)[0].pool_starts
    metrics["benchmark.bytes_written"] = ref.bytes_written
    metrics["cli.fit_ms"] = 0.0
    if w.uses_karate:
        attempted += 1
        try:
            metrics["cli.fit_ms"] = layers.cli_fit_ms(
                ROOT, KARATE_EDGES, 2, ctx.seed, ctx.out / "cli_fit.json")
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            failed += 1
            ref.problems.append(f"acsbm fit process: {exc}")
    overhead = statistics.median(p.wall_s for p in traced) - narrow_s
    metrics["trace.overhead_s"] = overhead
    tracer.write(ctx.out / "spans.jsonl")
    return metrics, passes, {"attempted": attempted, "failed": failed,
                             "trace_overhead_s": overhead,
                             "spans": len(tracer.spans)}


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git directly."""
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
    return None


def environment() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "acsbm": acsbm.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "platform": platform.platform()}


@dataclass
class Context:
    workload: object
    seed: int
    seconds: float
    out: Path
    recorder: object


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    why = {item["name"]: item["why"] for item in spec["workloads"]}
    args = parse_args(argv, [name for name in why if name in WORKLOADS])

    w = WORKLOADS[args.workload]
    out = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    recorder = Recorder()
    recorder.install()
    try:
        if w.uses_karate:
            try:
                recorder.add_truth(*load_karate())
            except DataError as exc:
                raise SystemExit(f"error: {exc}")
        ctx = Context(w, args.seed, args.seconds, out, recorder)
        metrics, passes, extra = (run_traced if args.trace else run_untraced)(ctx)
    finally:
        recorder.restore()

    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": extra["failed"] == 0,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {m["name"]: {"value": _finite(metrics[m["name"]]),
                                "unit": m["unit"]} for m in table},
    }
    problems = [q for p in passes for q in p.problems]
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": {**w.describe(args.seed), "why": why[w.name]},
                   "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": environment(), "result": result,
                   "passes": [p.summary() for p in passes],
                   "problems": problems[:50],
                   **{k: v for k, v in extra.items()
                      if k not in ("attempted", "failed")}},
                  fh, indent=2)
        fh.write("\n")
    for text in problems[:10]:
        print(f"FAILED: {text}", file=sys.stderr)
    print(f"# {w.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"results in {out.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def _finite(value) -> float:
    """JSON has no inf/nan; a broken program's -inf likelihood reads 0 (and
    the restart is already counted as failed)."""
    value = float(value)
    return value if math.isfinite(value) else 0.0
