"""Partition and block-parameter evaluation metrics."""

from __future__ import annotations

import numpy as np

from .likelihood import _as_omega
from .solver import AssortativityMode, _assortative_rows, _row_ends, _satisfied

__all__ = [
    "nmi",
    "count_assortative_communities",
    "assortativity_level",
]


def _labels(p) -> np.ndarray:
    a = np.asarray(getattr(p, "assign", p))
    if a.dtype.kind in "uO" and any(isinstance(x, int) and not -2**63 <= x < 2**63
                                    for x in a.ravel().tolist()):  # beyond int64
        raise ValueError("labels must lie in int64's range [-2**63, 2**63)")
    if a.size and a.dtype.kind not in "biu":
        raise ValueError(f"labels must be integers, got dtype {a.dtype}")
    return a.astype(np.int64)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def nmi(p, q) -> float:
    """Normalized mutual information, 2 I(P;Q) / (H(P) + H(Q)).

    Natural-log entropies from empirical label frequencies.  Two constant
    labelings have zero joint entropy and count as perfect agreement (1.0).
    Labels may be any nonnegative integers; memory scales with node count.
    """
    a, b = _labels(p), _labels(q)
    if a.shape != b.shape:
        raise ValueError(f"label arrays differ in length: {a.shape} vs {b.shape}")
    if a.size and min(a.min(), b.min()) < 0:
        raise ValueError("labels must be nonnegative")
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ua.size, ub.size), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    n = table.sum()
    if n == 0:
        raise ValueError("empty labelings")
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    hp = _entropy(row)
    hq = _entropy(col)
    if hp + hq == 0.0:
        return 1.0
    mask = table > 0
    pj = table[mask] / n
    outer = np.outer(row, col)[mask] / (n * n)
    info = float(np.sum(pj * np.log(pj / outer)))
    return 2.0 * info / (hp + hq)


def count_assortative_communities(omega, tol: float = 1e-8) -> int:
    """Number of blocks whose diagonal dominates its row (within tol); omega
    must be square, finite, symmetric and nonnegative (else ValueError)."""
    return sum(_assortative_rows(*_row_ends(_as_omega(omega).tolist()), tol))


def assortativity_level(omega, tol: float = 1e-8) -> AssortativityMode:
    """Strongest assortativity classification satisfied by omega; omega
    must be square, finite, symmetric and nonnegative (else ValueError)."""
    ends = _row_ends(_as_omega(omega).tolist())
    for mode in (AssortativityMode.STRONG, AssortativityMode.WEAK):
        if _satisfied(*ends, mode, tol):
            return mode
    return AssortativityMode.NONE
