"""Synthetic multigraph generators with planted community structure.

Both generators draw an independent Poisson edge count for every unordered
node pair (no self-loops), which matches the Poisson likelihood the fitters
maximize.  Rates above 1 are legal: the output is a multigraph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Graph, Partition, write_edge_list, write_labels

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
        if self.n < 1 or self.k < 1 or self.k > self.n:
            raise ValueError(f"need 1 <= k <= n, got n={self.n}, k={self.k}")
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
        if self.n < 1 or self.k < 1 or self.k > self.n:
            raise ValueError(f"need 1 <= k <= n, got n={self.n}, k={self.k}")
        for lo, hi in (self.diag_range, self.offdiag_range):
            if not 0 <= lo <= hi < math.inf:
                raise ValueError(f"invalid rate range [{lo}, {hi}]: need finite 0 <= lo <= hi")


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


def _poisson_pair_graph(n: int, rates: np.ndarray, rng: np.random.Generator,
                        iu: np.ndarray, ju: np.ndarray) -> Graph:
    counts = rng.poisson(rates)
    nz = counts > 0
    edges = [(int(u), int(v), int(w))
             for u, v, w in zip(iu[nz], ju[nz], counts[nz])]
    return Graph(n, edges)


def generate_ppm(spec: PpmSpec) -> tuple[Graph, Partition]:
    """Sample a PPM instance; returns the graph and its planted partition."""
    rng = np.random.default_rng(spec.seed)
    labels = _equal_blocks(spec.n, spec.k)
    p_in, p_out = ppm_rates(spec.n, spec.k, spec.avg_degree, spec.ratio)
    iu, ju = np.triu_indices(spec.n, k=1)
    rates = np.where(labels[iu] == labels[ju], p_in, p_out)
    graph = _poisson_pair_graph(spec.n, rates, rng, iu, ju)
    return graph, Partition(spec.k, [int(b) for b in labels])


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
    iu, ju = np.triu_indices(spec.n, k=1)
    rates = planted[labels[iu], labels[ju]]
    graph = _poisson_pair_graph(spec.n, rates, rng, iu, ju)
    return graph, Partition(k, [int(b) for b in labels]), planted


def write_instance(prefix, graph: Graph, truth: Partition, meta: dict) -> dict:
    """Write <prefix>.edges, <prefix>.labels and a <prefix>.json sidecar.

    Returns the paths written, keyed by kind.
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": prefix.with_suffix(".edges"),
        "labels": prefix.with_suffix(".labels"),
        "meta": prefix.with_suffix(".json"),
    }
    write_edge_list(graph, paths["edges"])
    write_labels(truth.assign, paths["labels"])
    sidecar = dict(meta)
    sidecar.update(n=graph.n, k=truth.k, edges=len(graph.edges),
                   total_weight=graph.total_weight)
    with open(paths["meta"], "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {kind: str(p) for kind, p in paths.items()}
