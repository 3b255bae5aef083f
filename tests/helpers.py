"""Shared builders for randomized tests."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from acsbm import (AssortativityMode, BlockStats, FitResult, Graph, Partition,
                   is_feasible, log_likelihood, omega_mle, solve_constrained)


def random_graph(rng: random.Random, n: int, p: float = 0.4,
                 max_w: int = 3, loops: bool = False) -> Graph:
    """Erdos-Renyi-style multigraph with at least one edge."""
    edges = []
    for u in range(n):
        for v in range(u if loops else u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.randint(1, max_w)))
    if not edges:
        edges = [(0, min(1, n - 1), 1)]
    return Graph(n, edges)


def dense_adjacency(graph: Graph) -> np.ndarray:
    """Dense symmetric adjacency matrix (A_ii = 2 * loop weight)."""
    a = np.zeros((graph.n, graph.n), dtype=np.int64)
    for u, v, w in graph.edges:
        a[u, v] += w
        a[v, u] += w
    return a


def dense_nmi(p, q) -> float:
    """NMI from a joint table with one row (column) per label value up to
    the largest, empty rows included: the formula ``acsbm.metrics.nmi``
    evaluates on the labels that occur.  Memory grows with the largest
    label, so keep labels small."""
    a, b = np.asarray(p, dtype=np.int64), np.asarray(q, dtype=np.int64)
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    n = table.sum()
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    hp, hq = (float(-np.sum(f * np.log(f)))
              for f in (row[row > 0] / n, col[col > 0] / n))
    if hp + hq == 0.0:
        return 1.0
    mask = table > 0
    pj = table[mask] / n
    outer = np.outer(row, col)[mask] / (n * n)
    return 2.0 * float(np.sum(pj * np.log(pj / outer))) / (hp + hq)


def one_shot_pair_graph(labels: np.ndarray, omega: np.ndarray,
                        rng: np.random.Generator) -> Graph:
    """The Poisson pair graph drawn by one ``rng.poisson`` call over
    ``np.triu_indices``: a count for each pair u < v, row by row, at rate
    omega[labels[u], labels[v]]."""
    iu, ju = np.triu_indices(len(labels), k=1)
    counts = rng.poisson(omega[labels[iu], labels[ju]])
    nz = counts > 0
    return Graph(len(labels), zip(iu[nz].tolist(), ju[nz].tolist(),
                                  counts[nz].tolist()))


def random_partition(rng: random.Random, n: int, k: int,
                     surjective: bool = False) -> Partition:
    assign = [rng.randrange(k) for _ in range(n)]
    if surjective:
        nodes = rng.sample(range(n), k)
        for b, i in enumerate(nodes):
            assign[i] = b
    return Partition(k, assign)


def random_block_stats(rng: random.Random, k: int, hi: int = 20) -> BlockStats:
    """Symmetric integer stats with consistent marginals and 2m.

    Raises ValueError when no entry can be positive: the diagonal draws
    even values up to hi and the off-diagonal values up to hi.
    """
    if k < 1 or hi < (2 if k == 1 else 1):
        raise ValueError(f"no stats with 2m > 0 for k={k}, hi={hi}")
    while True:
        m = [[0] * k for _ in range(k)]
        for r in range(k):
            m[r][r] = 2 * rng.randint(0, hi // 2)
            for s in range(r + 1, k):
                m[r][s] = m[s][r] = rng.randint(0, hi)
        if sum(sum(row) for row in m) > 0:
            break
    kappa = [sum(row) for row in m]
    return BlockStats(k, m, kappa, sum(kappa))


def legal_moves(partition: Partition) -> list[tuple[int, int]]:
    """All (node, block) relocations that keep the source block populated."""
    sizes = partition.block_sizes()
    return [(i, b)
            for i, a in enumerate(partition.assign) if sizes[a] > 1
            for b in range(partition.k) if b != a]


def numpy_m_t(stats: BlockStats) -> tuple[np.ndarray, np.ndarray]:
    """The block edge counts m_rs (as floats) and the null-model
    expectations T_rs = kappa_r kappa_s / 2m, in numpy."""
    kappa = np.asarray(stats.kappa, dtype=float)
    return (np.asarray(stats.m_block, dtype=float),
            np.outer(kappa, kappa) / float(stats.two_m))


def threshold_profile(stats: BlockStats, lam: float) -> float:
    """g(lam): the log-likelihood of omega_mle with its off-diagonal entries
    capped and its diagonal floored at lam, the strong optimum for that
    threshold."""
    ratio = omega_mle(stats)
    w = np.minimum(ratio, lam)
    np.fill_diagonal(w, np.maximum(np.diag(ratio), lam))
    return log_likelihood(stats, w)


def numpy_log_likelihood(stats: BlockStats, omega) -> float:
    """Reference log-likelihood in numpy, sharing no code with
    ``acsbm.likelihood``: -inf if some omega_rs = 0 while m_rs > 0."""
    w = np.asarray(omega, dtype=float)
    m, t = numpy_m_t(stats)
    pos = m > 0
    if np.any(pos & (w == 0)):
        return float("-inf")
    log_part = np.zeros_like(w)
    log_part[pos] = m[pos] * np.log(w[pos])
    return 0.5 * float(np.sum(log_part) - np.sum(t * w))


def assert_weak_optimum(stats: BlockStats, omega) -> None:
    """Certify omega as the weak optimum for ``stats``.

    The weak optimum is the isotonic regression of the ratios m/T with
    weights T (half on the diagonal).  With res = w (ratio - omega) it is
    certified by feasibility, sum(res) = 0, sum(res * omega) = 0 and no
    upper set (diagonals S, with any off-diagonals inside S) of positive sum.
    """
    omega = np.asarray(omega, dtype=float)
    assert is_feasible(omega, AssortativityMode.WEAK, 0.0)
    m, t = numpy_m_t(stats)
    half = np.where(np.eye(stats.k, dtype=bool), 0.5, 1.0)
    res = np.triu(half * (m - t * omega))
    tol = 1e-12 * m.sum()
    assert abs(res.sum()) <= tol
    assert abs((res * omega).sum()) <= tol
    active = [q for q in range(stats.k) if stats.kappa[q]]
    for size in range(1, len(active) + 1):
        for blocks in itertools.combinations(active, size):
            gain = sum(res[q, q] for q in blocks) + sum(
                max(0.0, res[r, s]) for r, s in itertools.combinations(blocks, 2))
            assert gain <= tol, (stats, blocks)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def numpy_strong_optimum(stats: BlockStats) -> float:
    """The strong optimum's log-likelihood: the largest
    ``numpy_log_likelihood`` of the closed form m/T (0 where T = 0) with
    its off-diagonals capped and its diagonal floored at lam, found by a
    golden-section search over lam in [0, max ratio + 1] to a bracket of
    1e-10 (the value is concave in lam)."""
    m, t = numpy_m_t(stats)
    ratio = np.divide(m, t, out=np.zeros_like(m), where=t > 0)

    def value(lam: float) -> float:
        w = np.minimum(ratio, lam)
        np.fill_diagonal(w, np.maximum(np.diag(ratio), lam))
        return numpy_log_likelihood(stats, w)

    lo, hi = 0.0, float(ratio.max()) + 1.0
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = value(c), value(d)
    while hi - lo > 1e-10:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = value(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = value(d)
    return max(fc, fd)


def move_gains(graph: Graph, result: FitResult) -> tuple[float, np.ndarray]:
    """The log-likelihood of ``result``'s final partition in its mode, and
    the gain over it of each of its ``legal_moves``, scored without the
    search's code: block counts from the dense adjacency, then mode NONE
    (dc) by ``numpy_log_likelihood`` of the closed form m/T (0 where
    T = 0), strong mode by ``numpy_strong_optimum``, weak mode by
    ``solve_constrained`` once ``assert_weak_optimum`` certifies it."""
    a, k = dense_adjacency(graph), result.partition.k

    def score(assign) -> float:
        onehot = np.eye(k, dtype=np.int64)[assign]
        m = onehot.T @ a @ onehot
        kappa = m.sum(axis=1)
        stats = BlockStats(k, m.tolist(), kappa.tolist(), int(kappa.sum()))
        if result.mode is AssortativityMode.NONE:
            m, t = numpy_m_t(stats)
            return numpy_log_likelihood(
                stats, np.divide(m, t, out=np.zeros_like(m), where=t > 0))
        if result.mode is AssortativityMode.STRONG:
            return numpy_strong_optimum(stats)
        omega = solve_constrained(stats, AssortativityMode.WEAK).omega
        assert_weak_optimum(stats, omega)
        return numpy_log_likelihood(stats, omega)

    assign = list(result.partition.assign)
    base = score(assign)
    gains = []
    for i, b in legal_moves(result.partition):
        moved = assign[:]
        moved[i] = b
        gains.append(score(moved) - base)
    return base, np.array(gains)
