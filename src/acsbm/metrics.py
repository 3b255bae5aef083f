"""Partition and block-parameter evaluation metrics."""

from __future__ import annotations

import numpy as np

from .likelihood import _as_omega
from .solver import (AssortativityMode, _assortative_rows, _row_ends,
                     is_feasible)

__all__ = [
    "contingency_table",
    "nmi",
    "count_assortative_communities",
    "assortativity_level",
]


def _labels(p) -> np.ndarray:
    a = np.asarray(getattr(p, "assign", p))
    if a.size and a.dtype.kind not in "biu":
        raise ValueError(f"labels must be integers, got dtype {a.dtype}")
    return a.astype(np.int64)


def contingency_table(p, q) -> np.ndarray:
    """Joint label counts; entry [a, b] counts nodes labelled a in p, b in q."""
    a = _labels(p)
    b = _labels(q)
    if a.shape != b.shape:
        raise ValueError(f"label arrays differ in length: {a.shape} vs {b.shape}")
    if (a.size and a.min() < 0) or (b.size and b.min() < 0):
        raise ValueError("labels must be nonnegative")
    na = int(a.max()) + 1 if a.size else 0
    nb = int(b.max()) + 1 if b.size else 0
    table = np.zeros((na, nb), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    return table


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def nmi(p, q) -> float:
    """Normalized mutual information, 2 I(P;Q) / (H(P) + H(Q)).

    Natural-log entropies from empirical label frequencies.  Two constant
    labelings have zero joint entropy and count as perfect agreement (1.0).
    """
    table = contingency_table(p, q)
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
    """Strongest assortativity classification satisfied by omega."""
    if is_feasible(omega, AssortativityMode.STRONG, tol):
        return AssortativityMode.STRONG
    if is_feasible(omega, AssortativityMode.WEAK, tol):
        return AssortativityMode.WEAK
    return AssortativityMode.NONE
