"""Relocation local search for (constrained) likelihood or modularity.

One sweep loop serves both objectives.  It repeatedly scans single-node
relocations; a tried move updates the block statistics in place through
``core._relocate_stats``, and a rejected one is undone the same way.

The random start and each sweep's node order are the package's own draws
(``_below``, ``_shuffle``) on the fit's ``random.Random(seed).getrandbits``:
those of ``randrange`` and ``shuffle`` on CPython 3.10-3.13 at about half
the cost, tied to the Mersenne Twister's output, not to stdlib algorithms
that Python does not promise to keep.

A node's edge weights into the K blocks are read from a per-fit table
that each accepted move updates in O(deg(i)), so a candidate costs O(K).
``delta_relocation``, the public one-off score, shares no formula with the
screen: it recounts the move and both profiles, in O(K^2 + deg(i)).

Likelihood objective: each candidate is first scored with the
*unconstrained* profile objective, its change computed inline in O(K) from
x*log(x) of the integer block counts, looked up in a list over 0..2m that
consecutive fits with the same 2m share (a memo per fit when edge weights
are heavy).  Source block a's terms are read once per node and after each
of its moves; a candidate b then walks only the blocks other than a and b.
Since the constrained optimum never exceeds the unconstrained one, a
candidate that does not improve the current value is dropped unsolved.  So
is one whose closed-form block parameters violate the requested
assortativity constraints by a pair whose two-cell bound
(``solver._mle_gap``, a lower bound on the likelihood the constraints cost)
already takes it below the current value by more than a margin of 1e-9
times the likelihood's scale, far above the rounding of either side.  Only
the remaining candidates pay for a constrained solve, so neither filter
discards an improving constrained move.  Screen and solve (``_OPTIMA``)
read the same closed-form cells (``likelihood._mle_cells``), computed once
per candidate.  All comparisons happen on the full-likelihood scale: profile
values differ from it by the partition-independent constant
``profile_offset``, which makes unconstrained candidate scores directly
comparable with constrained incumbents.

Modularity objective: a candidate is taken iff it raises Q, decided
exactly on integers by 2m(d_b - d_a) - k_i(kappa_b - kappa_a + k_i) > 0
(the change of Q times (2m)^2 / 2).

The sweep keeps only objective values: the returned Omega and lambda are
one ``solve_constrained`` of the final partition, the fit's only one.

Many disassortative partitions have the null constrained optimum Omega = 1,
likelihood -m (``solver._on_null_plateau``).  While on that plateau, the
search takes a candidate with an infeasible closed form that stays on it,
unsolved, iff it raises modularity (<= 0 there), by the same integer test;
the others are screened and solved as above, and the first to score
higher leaves the plateau.
"""

from __future__ import annotations

import atexit
import functools
import math
import multiprocessing
import os
import random
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .core import (BlockStats, Graph, Partition, _count, _relocate_stats,
                   apply_relocation, block_stats, edges_into_blocks)
# log_likelihood, omega_mle and is_feasible are unused here; they stay module
# attributes because the benchmark's tracer patches them.
from .likelihood import _mle_cells, log_likelihood, modularity, omega_mle, \
    profile_offset  # noqa: F401
from .solver import _OPTIMA, AssortativityMode, _mle_gap, _on_null_plateau, \
    is_feasible, solve_constrained  # noqa: F401

__all__ = [
    "FitConfig",
    "FitResult",
    "fit",
    "delta_relocation",
    "multi_start",
]

OBJECTIVE_LIKELIHOOD = "likelihood"
OBJECTIVE_MODULARITY = "modularity"


@dataclass(frozen=True)
class FitConfig:
    """Inputs of a single search run.

    Each sweep visits the nodes in an order reshuffled from ``seed`` (>= 0).
    objective "modularity" switches the search to the modularity score with
    the same relocation mechanics; it takes no assortativity mode, and the
    fixed block count is kept but blocks may become empty.
    """

    k: int
    mode: AssortativityMode = AssortativityMode.NONE
    seed: int = 0
    objective: str = OBJECTIVE_LIKELIHOOD

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _count("k", self.k))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        if self.objective not in (OBJECTIVE_LIKELIHOOD, OBJECTIVE_MODULARITY):
            raise ValueError(f"unknown objective {self.objective!r}")
        object.__setattr__(self, "mode", AssortativityMode(self.mode))
        if self.objective == OBJECTIVE_MODULARITY \
                and self.mode is not AssortativityMode.NONE:
            raise ValueError("the modularity objective takes no "
                             f"assortativity mode, got {self.mode.value!r}")


@dataclass
class FitResult:
    """Local optimum returned by :func:`fit`.

    omega and lam are ``solve_constrained`` of the final partition in the
    run's mode (NONE for modularity runs, which take log_likelihood from
    it); a zero-degree block's diagonal is 0, or lam in strong mode.

    trace holds the strictly increasing objective values of the improving
    moves (full log-likelihood for likelihood runs, Q for modularity runs),
    starting from the initial solution.

    constrained_solves counts the search's solves, not the final one: the
    initial partition's when its closed form is infeasible, then each
    candidate that improves the unconstrained value, has an infeasible
    closed form, does not stay on the null plateau and is not ruled out by
    the two-cell bound.  filtered_moves counts the candidates rejected
    unsolved; a move taken along the plateau counts in neither.  Their sum
    depends on the search path alone, not on how tight the bound is.
    """

    partition: Partition
    omega: np.ndarray
    lam: float
    log_likelihood: float
    modularity: float
    trace: list[float]
    sweeps: int
    constrained_solves: int
    filtered_moves: int
    seed: int
    mode: AssortativityMode
    objective: str

    @property
    def objective_value(self) -> float:
        return self.modularity if self.objective == OBJECTIVE_MODULARITY \
            else self.log_likelihood

    def to_dict(self) -> dict:
        return {
            "partition": list(self.partition.assign),
            "k": self.partition.k,
            "omega": self.omega.tolist(),
            "lambda": self.lam,
            "log_likelihood": self.log_likelihood,
            "modularity": self.modularity,
            "trace": list(self.trace),
            "sweeps": self.sweeps,
            "constrained_solves": self.constrained_solves,
            "filtered_moves": self.filtered_moves,
            "seed": self.seed,
            "mode": self.mode.value,
            "objective": self.objective,
        }


class _XLogX(dict):
    """v*log(v) (0 at v = 0) of integer block counts, each computed once.

    Its size is the number of distinct counts read, however heavy the edges.
    """

    def __missing__(self, v: int) -> float:
        return self.setdefault(v, v * math.log(v) if v else 0.0)


def _xlogx(graph: Graph):
    """x*log(x) lookups for a fit: every block count lies in 0..2m.

    A list over 0..2m is the fastest lookup.  While the mean edge weight is
    at most 4 it holds at most 8 entries per edge, about the graph's own
    size; heavier graphs get a fresh memo per fit, which does not grow with
    the weights and is freed with the fit.
    """
    two_m = 2 * graph.total_weight
    if two_m > 8 * len(graph.edges):
        return _XLogX()
    return _xlogx_list(two_m)


@functools.lru_cache(maxsize=1)
def _xlogx_list(two_m: int) -> list[float]:
    """The list of ``_xlogx``, shared read-only by consecutive fits with this
    2m: the runners fit every restart and model of one graph before the
    next graph, so the last list alone serves them."""
    return [v * math.log(v) if v else 0.0 for v in range(two_m + 1)]


def _profile(m, kappa, h) -> float:
    at = h.__getitem__
    return 0.5 * sum(sum(map(at, row)) for row in m) - sum(map(at, kappa))


def delta_relocation(stats: BlockStats, graph: Graph, partition: Partition,
                     i: int, b: int) -> float:
    """Unconstrained profile objective change of relocating node i to b.

    A recount sharing no formula with ``fit``'s screen: ``apply_relocation``,
    then the difference of the two profiles on one memo, in O(K^2 + deg(i)).

    Raises
    ------
    EmptyBlockMoveError
        If the move would empty the source block.
    ValueError
        If i or b is out of range, b is i's block, or the partition's length
        is not the graph's node count.
    """
    moved = apply_relocation(stats, graph, partition, i, b)
    h = _XLogX()
    return (_profile(moved.m_block, moved.kappa, h)
            - _profile(stats.m_block, stats.kappa, h))


def _below(getrandbits, n: int) -> int:
    """A uniform draw from range(n), n >= 1: getrandbits of n's bit length,
    rejected until below n, as ``random.Random.randrange(n)`` draws it."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def _shuffle(x: list, getrandbits) -> None:
    """Shuffle x in place by Fisher-Yates from the end, with ``_below``'s
    draws made inline: ``random.Random.shuffle(x)``, draw for draw."""
    for i in range(len(x) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def _random_partition(n: int, k: int, rng: random.Random) -> list[int]:
    """Uniform assignment, then random nodes reassigned into empty blocks."""
    getrandbits = rng.getrandbits
    assign = [_below(getrandbits, k) for _ in range(n)]
    sizes = [0] * k
    for b in assign:
        sizes[b] += 1
    for r in range(k):
        while sizes[r] == 0:
            i = _below(getrandbits, n)
            if sizes[assign[i]] > 1:
                sizes[assign[i]] -= 1
                assign[i] = r
                sizes[r] += 1
    return assign


def fit(graph: Graph, cfg: FitConfig) -> FitResult:
    """Run the relocation local search to a local optimum.

    Starts from a seeded random partition with all blocks populated, solves
    the constrained subproblem for the initial block parameters, then sweeps
    over all (node, block) candidates, applying first improvements, until a
    full sweep yields none.  It always ends: each accepted move strictly
    raises the objective, or Q on the null plateau, left for good once the
    objective rises, so no partition recurs.

    Each node's edge weight into every block is read from a table built once
    per fit in O(m) and updated in O(deg(i)) by each accepted move of node i,
    so a visit does not recount the node's neighbours.  The table holds n*K
    integers (about 0.1 MB at n = 1000, K = 4).  A likelihood candidate is
    screened inline in O(K) from its source block's terms, read once per
    node and after each move, before its gain in Q is computed.
    """
    n, k, mode = graph.n, cfg.k, cfg.mode
    if k > n:
        raise ValueError(f"k={k} exceeds node count {n}")
    if graph.total_weight <= 0:
        raise ValueError("graph has no edges")

    rng = random.Random(cfg.seed)
    assign = _random_partition(n, k, rng)
    by_q = cfg.objective == OBJECTIVE_MODULARITY
    partition = Partition(k, assign)
    stats = block_stats(graph, partition)
    m, kappa, two_m = stats.m_block, stats.kappa, stats.two_m
    sizes = partition.block_sizes()

    n_solves = 0
    if by_q:  # Q is scored on integers: no x*log(x) table, no profile
        best = modularity(stats)
    else:
        h = _xlogx(graph)
        offset = profile_offset(two_m)
        prof = _profile(m, kappa, h)
        if _mle_gap(cells := _mle_cells(stats), mode) is None:
            best = prof + offset
        else:
            best = _OPTIMA[mode](stats, cells)[2]
            n_solves += 1
    trace = [best]
    # the screen rules out a candidate whose bound takes it below floor,
    # which moves only with best
    floor = None if by_q else best - 1e-9 * max(1.0, offset, abs(best))
    plateau = n_solves > 0 and _on_null_plateau(stats)

    degree, self_weight = graph.degree, graph.self_weight
    nbr = [edges_into_blocks(graph, partition, i) for i in range(n)]
    # the blocks other than a and b, walked by the screen of a move a -> b
    others = [[[r for r in range(k) if r != a and r != b] for b in range(k)]
              for a in range(k)]
    filtered = 0
    sweeps = 0
    order = list(range(n))
    improved = True
    while improved:
        improved = False
        sweeps += 1
        _shuffle(order, rng.getrandbits)
        for i in order:
            a = assign[i]
            if sizes[a] == 1 and not by_q:
                continue
            d = nbr[i]
            ki = degree[i]
            l2 = self_weight[i]
            src = -1  # the block whose source terms below are current
            for b in range(k):
                if b == a:
                    continue
                if not by_q:
                    if src != a:
                        src, ma, da, ka = a, m[a], d[a], kappa[a]
                        out_aa = h[ma[a] - 2 * da - l2] - h[ma[a]]
                        out_ka = h[ka - ki] - h[ka]
                        bar = best - offset
                    # the profile change, summed in the order the pinned
                    # fits were scored in; off-block cells count twice
                    mb, db, kb = m[b], d[b], kappa[b]
                    s = 0.0
                    for r in others[a][b]:
                        dr = d[r]
                        if dr:
                            s += ((h[ma[r] - dr] - h[ma[r]])
                                  + (h[mb[r] + dr] - h[mb[r]]))
                    s = (s + s + out_aa + (h[mb[b] + 2 * db + l2] - h[mb[b]])
                         + 2.0 * (h[ma[b] + da - db] - h[ma[b]]))
                    if prof + (0.5 * s - out_ka
                               - (h[kb + ki] - h[kb])) <= bar:
                        filtered += 1
                        continue
                # modularity change times (2m)^2 / 2
                gain = two_m * (d[b] - d[a]) - ki * (kappa[b] - kappa[a] + ki)
                if by_q and gain <= 0:
                    filtered += 1
                    continue
                _relocate_stats(stats, d, ki, l2, a, b)
                solved = False
                if by_q:
                    ok, cand = True, modularity(stats)
                else:
                    prof_new = _profile(m, kappa, h)
                    cand = prof_new + offset
                    ok = cand > best
                gap = None
                if ok and mode is not AssortativityMode.NONE:
                    gap = _mle_gap(cells := _mle_cells(stats), mode)
                if gap is not None and plateau and _on_null_plateau(stats):
                    ok, cand = gain > 0, best  # along the plateau, by Q
                elif gap is not None and cand - gap < floor:
                    ok = False  # the constraints cost more than the gain
                elif gap is not None:
                    cand = _OPTIMA[mode](stats, cells)[2]
                    solved = True
                    n_solves += 1
                    ok = cand > best
                if ok:
                    assign[i] = b
                    sizes[a] -= 1
                    sizes[b] += 1
                    # i's own row counts only j != i, so it stays as is
                    for j, w in graph.adjacency[i]:
                        row = nbr[j]
                        row[a] -= w
                        row[b] += w
                    if not by_q:
                        prof = prof_new
                    if cand > best:
                        best = cand
                        trace.append(best)
                        plateau = False
                        if not by_q:
                            floor = best - 1e-9 * max(1.0, offset, abs(best))
                    improved = True
                    a = b
                else:
                    _relocate_stats(stats, d, ki, l2, b, a)
                    if not solved:
                        filtered += 1

    final = solve_constrained(stats, mode)  # not one of n_solves
    return FitResult(
        partition=partition,
        omega=final.omega,
        lam=final.lam,
        log_likelihood=final.objective if by_q else best,
        modularity=modularity(stats),
        trace=trace,
        sweeps=sweeps,
        constrained_solves=n_solves,
        filtered_moves=filtered,
        seed=cfg.seed,
        mode=mode,
        objective=cfg.objective,
    )


# The process pool of this process, as (workers, executor): created by the
# first multi_start call with workers >= 2 and reused by the later ones.
_pool: tuple[int, ProcessPoolExecutor] | None = None
# The restart counter shared by _pool's workers, and the lock that serializes
# the pooled calls: each resets the counter, then its tasks take from it.
_pool_next_run = None
_pool_lock = threading.Lock()
# In a pool worker: that counter, set by the pool's initializer.
_next_run = None


def _set_counter(counter) -> None:
    global _next_run
    _next_run = counter


def _fit_share(graph: Graph, cfg: FitConfig, runs: int) -> list[FitResult]:
    """A pool worker's share of a call: it takes restart r from the counter,
    fits seed cfg.seed + r, and goes on until all runs are taken."""
    results = []
    while True:
        with _next_run.get_lock():
            r = _next_run.value
            _next_run.value = r + 1
        if r >= runs:
            return results
        results.append(fit(graph, replace(cfg, seed=cfg.seed + r)))


def _shutdown_pool() -> None:
    global _pool, _pool_next_run
    if _pool is not None:
        _, executor = _pool
        _pool = _pool_next_run = None
        executor.shutdown()


def _forget_pool() -> None:
    """In a forked child the inherited pool, and the lock of a thread that
    may have held it, belong to the parent."""
    global _pool, _pool_next_run, _pool_lock
    _pool = _pool_next_run = None
    _pool_lock = threading.Lock()


atexit.register(_shutdown_pool)
os.register_at_fork(after_in_child=_forget_pool)


def _executor(workers: int) -> ProcessPoolExecutor:
    """The pool of ``workers`` processes, replacing one of another size."""
    global _pool, _pool_next_run
    if _pool is None or _pool[0] != workers:
        _shutdown_pool()
        _pool_next_run = multiprocessing.Value("q", 0)
        _pool = (workers, ProcessPoolExecutor(
            max_workers=workers, initializer=_set_counter,
            initargs=(_pool_next_run,)))
    return _pool[1]


def multi_start(graph: Graph, cfg: FitConfig, runs: int,
                workers: int = 1) -> list[FitResult]:
    """Independent fits with seeds cfg.seed .. cfg.seed + runs - 1, on
    min(workers, runs) processes (1: sequentially, in this process).

    Results are sorted by the run objective (descending), ties broken by
    seed, so the ordering is deterministic regardless of worker scheduling.

    With two or more processes the fits run on one process pool per
    process, created on first use and reused by every later call with the
    same process count (a call with another count replaces it).  The pool
    forks all its workers when it starts, hence no more than runs.  They
    live until the interpreter exits and see this module's state as it was
    then.  A call sends each worker one task holding the graph; the workers
    take the restarts one at a time from a counter they share, so unequal
    restarts even out, and each returns its fits as one list.  Pooled calls
    from several threads run one after another.  A pool whose worker died
    raises ``BrokenProcessPool`` once and is replaced on the next call.
    """
    runs = _count("runs", runs)
    workers = min(_count("workers", workers), runs)
    if workers == 1:
        results = [fit(graph, replace(cfg, seed=cfg.seed + r))
                   for r in range(runs)]
    else:
        with _pool_lock:
            pool = _executor(workers)
            _pool_next_run.value = 0
            try:
                tasks = [pool.submit(_fit_share, graph, cfg, runs)
                         for _ in range(workers)]
                wait(tasks)
            except BaseException:  # a task may still be taking restarts
                _shutdown_pool()
                raise
            try:
                results = [res for task in tasks for res in task.result()]
            except BrokenProcessPool:
                _shutdown_pool()
                raise
    results.sort(key=lambda r: (-r.objective_value, r.seed))
    return results
