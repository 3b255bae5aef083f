"""Synthetic multigraph generators with planted community structure.

Both generators draw an independent Poisson edge count for every unordered
node pair (no self-loops) at the rate of its blocks, through one sampler:
the PPM's rate matrix is p_in on the diagonal and p_out off it.  This
matches the Poisson likelihood the fitters maximize.  Rates above 1 are
legal: the output is a multigraph.  Sampling takes O(n^2) time and, besides
the graph, O(Kn + 2^16) working memory: the pairs are drawn in blocks of at
most 2^16, with rates sliced from the K x n table omega[:, labels].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (Graph, Partition, _count, _json, _write_text,
                   write_edge_list, write_labels)

__all__ = [
    "PpmSpec",
    "SbmSpec",
    "ppm_rates",
    "generate_ppm",
    "generate_sbm",
    "write_instance",
]


@dataclass(frozen=True)
class PpmSpec:
    """Planted partition model: K equal blocks, two Poisson rates.

    ratio = omega_out / omega_in in [0, 1]; avg_degree calibrates the
    within-rate so the expected degree equals it.
    """

    n: int
    k: int
    avg_degree: float
    ratio: float
    seed: int = 0

    def __post_init__(self) -> None:
        _count("seed", self.seed, 0)
        if _count("n", self.n) < _count("k", self.k):
            raise ValueError(f"need k <= n, got n={self.n}, k={self.k}")
        if not 0 <= self.ratio <= 1:
            raise ValueError(f"ratio must lie in [0, 1], got {self.ratio}")
        if not 0 < self.avg_degree < self.n:
            raise ValueError(f"avg_degree must lie in (0, n), got {self.avg_degree}")
        if self.k == self.n and (self.ratio == 0 or self.n == 1):
            raise ValueError("no node pair can carry an edge: k = n puts each node in "
                             "a block of its own, and ratio 0 or n = 1 leaves none across")


@dataclass(frozen=True)
class SbmSpec:
    """General Poisson SBM with uniformly sampled block rates."""

    n: int
    k: int
    diag_range: tuple[float, float] = (0.45, 0.55)
    offdiag_range: tuple[float, float] = (0.0, 0.4)
    seed: int = 0

    def __post_init__(self) -> None:
        _count("seed", self.seed, 0)
        if _count("n", self.n) < _count("k", self.k):
            raise ValueError(f"need k <= n, got n={self.n}, k={self.k}")
        for lo, hi in (self.diag_range, self.offdiag_range):
            if not 0 <= lo <= hi < math.inf:
                raise ValueError(f"invalid rate range [{lo}, {hi}]: need finite 0 <= lo <= hi")
        if self.n == 1 or self.diag_range[1] == 0 and (
                self.k == 1 or self.offdiag_range[1] == 0):
            raise ValueError("no node pair can carry an edge: n = 1 or all rates 0")


def ppm_rates(n: int, k: int, avg_degree: float, ratio: float) -> tuple[float, float]:
    """Within/between Poisson rates giving the requested expected degree.

    A node sees n/k - 1 within-block partners and n(k-1)/k cross partners,
    so p_in = c / ((n/k - 1) + ratio * n (k-1)/k) and p_out = ratio * p_in.
    """
    p_in = avg_degree / ((n / k - 1.0) + ratio * n * (k - 1.0) / k)
    return p_in, ratio * p_in


def _equal_blocks(n: int, k: int) -> np.ndarray:
    sizes = [n // k + (1 if r < n % k else 0) for r in range(k)]
    return np.repeat(np.arange(k), sizes)


_BLOCK_PAIRS = 1 << 16  # node pairs drawn per Poisson call


def _poisson_pair_counts(labels: np.ndarray, omega: np.ndarray,
                         rng: np.random.Generator) -> tuple:
    """The sorted canonical edges (u, v, count) of the node pairs u < v whose
    independent Poisson count at rate omega[labels[u], labels[v]] is positive.

    The pairs are drawn in row-major order, a block of rows at a time (at
    most _BLOCK_PAIRS pairs, or one row): successive ``rng.poisson`` calls
    consume the generator's stream as one call over all pairs would, so the
    counts do not depend on the block size.  Row u's rates are the slice
    ``table[labels[u], u+1:]`` of the K x n table ``omega[:, labels]``.
    """
    n = len(labels)
    table = omega[:, labels]
    # before[u]: the pairs (u', v > u') in the rows u' < u
    before = np.arange(n + 1) * (2 * n - 1 - np.arange(n + 1)) // 2
    edges = []
    u0 = 0
    while u0 < n - 1:
        # the most rows whose pairs fit in one block, and at least one
        u1 = int(np.searchsorted(before, before[u0] + _BLOCK_PAIRS, "right")) - 1
        u1 = max(u1, u0 + 1)
        counts = rng.poisson(np.concatenate(
            [table[labels[u], u + 1:] for u in range(u0, u1)]))
        pos = np.flatnonzero(counts)
        # row u's pairs start at block position before[u] - before[u0], v = u + 1
        starts = before[u0:u1] - before[u0]
        row = np.searchsorted(starts, pos, "right") - 1
        u = row + u0
        edges += zip(u.tolist(), (pos - starts[row] + u + 1).tolist(), counts[pos].tolist())
        u0 = u1
    return tuple(edges)


def _poisson_pair_graph(labels: np.ndarray, omega: np.ndarray,
                        rng: np.random.Generator) -> tuple[Graph, Partition]:
    """The graph of ``_poisson_pair_counts``, built from its canonical edges
    without Graph's checks, and the partition of the labels."""
    return (Graph._from_canonical(len(labels), _poisson_pair_counts(labels, omega, rng)),
            Partition(len(omega), labels.tolist()))


def generate_ppm(spec: PpmSpec) -> tuple[Graph, Partition]:
    """Sample a PPM instance; returns the graph and its planted partition."""
    rng = np.random.default_rng(spec.seed)
    p_in, p_out = ppm_rates(spec.n, spec.k, spec.avg_degree, spec.ratio)
    omega = np.full((spec.k, spec.k), p_out)
    np.fill_diagonal(omega, p_in)
    return _poisson_pair_graph(_equal_blocks(spec.n, spec.k), omega, rng)


def generate_sbm(spec: SbmSpec) -> tuple[Graph, Partition, np.ndarray]:
    """Sample a general SBM instance.

    The symmetric rate matrix is drawn first (diagonal then upper triangle),
    then node labels uniformly, then pairwise Poisson counts.  Returns the
    graph, the planted partition, and the planted rate matrix.
    """
    rng = np.random.default_rng(spec.seed)
    k = spec.k
    planted = np.zeros((k, k))
    lo, hi = spec.diag_range
    np.fill_diagonal(planted, rng.uniform(lo, hi, size=k))
    lo, hi = spec.offdiag_range
    for r in range(k):
        for s in range(r + 1, k):
            planted[r, s] = planted[s, r] = rng.uniform(lo, hi)
    labels = rng.integers(0, k, size=spec.n)
    return (*_poisson_pair_graph(labels, planted, rng), planted)


def write_instance(prefix, graph: Graph, truth: Partition, meta: dict) -> dict:
    """Write <prefix>.edges, <prefix>.labels and a <prefix>.json sidecar.

    Returns the paths written, keyed by kind.  A graph with no edges, which
    no model can be fitted to, raises ValueError before anything is written.
    """
    if graph.total_weight == 0:
        raise ValueError("the sampled graph has no edges")
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    # appended to the whole name, so a dotted prefix (r0.25) keeps its dot
    paths = {"edges": Path(f"{prefix}.edges"), "labels": Path(f"{prefix}.labels"),
             "meta": Path(f"{prefix}.json")}
    write_edge_list(graph, paths["edges"])
    write_labels(truth.assign, paths["labels"])
    sidecar = dict(meta)
    sidecar.update(n=graph.n, k=truth.k, edges=len(graph.edges),
                   total_weight=graph.total_weight)
    _write_text(paths["meta"], _json(sidecar))
    return {kind: str(p) for kind, p in paths.items()}
