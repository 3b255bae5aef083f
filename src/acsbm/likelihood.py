"""Objective kernels for degree-corrected block models.

All kernels consume :class:`~acsbm.core.BlockStats` (never a raw graph), so
every evaluation is O(K^2).  The 0*log(0) = 0 convention applies throughout.

The full log-likelihood of a partition with block parameters Omega is

    L(Omega) = (1/2) sum_rs ( m_rs log(omega_rs) - T_rs omega_rs ),

its unconstrained maximizer is omega_rs = m_rs / T_rs, and the profile form

    P = (1/2) sum_rs m_rs log( m_rs / (kappa_r kappa_s) )

differs from L at the maximizer by the partition-independent constant
``profile_offset`` = m log(2m) - m.

``_mle_cells`` is the one implementation of T and m / T: one pass over
the upper triangle, whose cells the search's screen, the exact solves in
``acsbm.solver`` and ``omega_mle`` all read.  ``_loglik`` is the one list
implementation of L, on such cells.  ``_as_omega`` is the one validation
of a given Omega, here, in ``is_feasible`` and in the metrics.  L and P are
summed by the correctly rounded ``math.fsum``, so relabelling the blocks
leaves them unchanged bit for bit.  L is -inf iff some omega_rs = 0 has
m_rs > 0.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BlockStats

__all__ = [
    "log_likelihood",
    "omega_mle",
    "profile_log_likelihood",
    "profile_offset",
    "modularity",
]


def _as_omega(omega, k: int | None = None) -> np.ndarray:
    """omega as a float array once it is checked square (K x K when ``k`` is
    given), finite, symmetric and nonnegative; ValueError otherwise."""
    w = np.asarray(omega, dtype=float)
    if k is None:
        k = w.shape[0] if w.ndim else 1
    if w.shape != (k, k):
        raise ValueError(f"omega has shape {w.shape}, expected ({k}, {k})")
    if not np.all(np.isfinite(w)):
        raise ValueError("omega entries must be finite")
    if not np.allclose(w, w.T, rtol=0.0, atol=1e-12):
        raise ValueError("omega must be symmetric")
    if np.any(w < 0):
        raise ValueError("omega entries must be nonnegative")
    return w


def _mle_cells(stats: BlockStats):
    """The closed form on and above the diagonal, in one pass: the diagonal
    cells, the off-diagonal ones (r < s, row by row) and each row's largest
    off-diagonal one ((0, 0.0, 0.0) if none is positive), each cell
    (m_rs, T_rs = kappa_r kappa_s / 2m, m_rs / T_rs or 0 where T_rs = 0).
    """
    k = stats.k
    two_m = float(stats.two_m)
    kappa = [float(v) for v in stats.kappa]
    diag, off, row_max = [], [], [(0, 0.0, 0.0)] * k
    for r, (m_row, kr) in enumerate(zip(stats.m_block, kappa)):
        t = kr * kr / two_m
        diag.append((m_row[r], t, m_row[r] / t if t > 0 else 0.0))
        top = row_max[r]  # row r's largest so far, from the rows above
        hi = top[2]
        for s in range(r + 1, k):
            t = kr * kappa[s] / two_m
            m = m_row[s]
            x = m / t if t > 0 else 0.0
            cell = (m, t, x)
            off.append(cell)
            if x > hi:
                top, hi = cell, x
            if x > row_max[s][2]:
                row_max[s] = cell
        row_max[r] = top
    return diag, off, row_max


def _at(cells, omega):
    """``_mle_cells``' diagonal and off-diagonal cells at omega's values."""
    k = len(omega)
    upper = (row[s] for r, row in enumerate(omega) for s in range(r + 1, k))
    return ([(m, t, omega[q][q]) for q, (m, t, _) in enumerate(cells[0])],
            [(m, t, w) for (m, t, _), w in zip(cells[1], upper)])


def _matrix(diag, off) -> np.ndarray:
    """The symmetric K x K array of the cells' values."""
    k, upper = len(diag), iter(off)
    w = [[x] * k for _, _, x in diag]
    for r in range(k):
        for s in range(r + 1, k):
            w[r][s] = w[s][r] = next(upper)[2]
    return np.array(w)


def _loglik(diag, off) -> float:
    """L(Omega) on its cells (m_rs, T_rs, omega_rs), omega_rs finite and
    >= 0: the diagonal ones and those above it.

    An off-diagonal term enters the sum twice; it is computed once and
    doubled, which is exact, so the correctly rounded sum is that of the
    full matrix bit for bit, in any order of the cells.
    """
    terms = []
    log = math.log
    for mrs, trs, w in diag:
        if mrs:
            if w == 0.0:
                return -math.inf
            terms.append(mrs * log(w))
        terms.append(-trs * w)
    for mrs, trs, w in off:
        if mrs:
            if w == 0.0:
                return -math.inf
            terms.append(2.0 * (mrs * log(w)))
        terms.append(2.0 * (-trs * w))
    return 0.5 * math.fsum(terms)


def log_likelihood(stats: BlockStats, omega) -> float:
    """Log-likelihood (up to the Z-independent factorial terms) at Omega.

    Returns ``-inf`` when some omega_rs is zero while m_rs > 0; pairs with
    m_rs = 0 contribute only their -T_rs omega_rs penalty.  Raises
    ValueError unless Omega is symmetric K x K (to 1e-12; its upper
    triangle is read), finite and nonnegative.
    """
    w = _as_omega(omega, stats.k)
    return _loglik(*_at(_mle_cells(stats), w.tolist()))


def omega_mle(stats: BlockStats) -> np.ndarray:
    """Unconstrained maximum-likelihood block parameters m_rs / T_rs.

    Entries whose T_rs vanishes (a block with zero degree sum) are set to 0;
    they carry no likelihood terms.
    """
    return _matrix(*_mle_cells(stats)[:2])


def profile_log_likelihood(stats: BlockStats) -> float:
    """Profile objective with Omega maximized out analytically.

    Differences of this value between partitions of the same graph equal the
    corresponding differences of ``log_likelihood(stats, omega_mle(stats))``.
    """
    kappa = stats.kappa
    return 0.5 * math.fsum(
        mrs * math.log(mrs / (kappa[r] * kappa[s]))
        for r, row in enumerate(stats.m_block)
        for s, mrs in enumerate(row) if mrs > 0)


def profile_offset(two_m: int) -> float:
    """Constant c with  log_likelihood(stats, omega_mle) = profile + c.

    Equals m log(2m) - m; it depends only on the graph, not the partition.
    """
    m = two_m / 2.0
    return m * math.log(two_m) - m


def modularity(stats: BlockStats) -> float:
    """Newman modularity Q = sum_r ( m_rr/2m - (kappa_r/2m)^2 )."""
    two_m = float(stats.two_m)
    q = 0.0
    for r in range(stats.k):
        q += stats.m_block[r][r] / two_m - (stats.kappa[r] / two_m) ** 2
    return q
