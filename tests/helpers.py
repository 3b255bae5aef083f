"""Shared builders for randomized tests."""

from __future__ import annotations

import random

import numpy as np

from acsbm import BlockStats, Graph, Partition, log_likelihood, omega_mle


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


def random_partition(rng: random.Random, n: int, k: int,
                     surjective: bool = False) -> Partition:
    assign = [rng.randrange(k) for _ in range(n)]
    if surjective:
        nodes = rng.sample(range(n), k)
        for b, i in enumerate(nodes):
            assign[i] = b
    return Partition(k, assign)


def random_block_stats(rng: random.Random, k: int, hi: int = 20) -> BlockStats:
    """Symmetric integer stats with consistent marginals and 2m."""
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
