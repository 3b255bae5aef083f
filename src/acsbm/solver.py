"""Fixed-partition constrained block-parameter estimation.

For a fixed partition the constrained fit maximizes

    f(Omega) = (1/2) sum_rs ( m_rs log(omega_rs) - T_rs omega_rs )

subject to, in *strong* mode, a threshold variable lambda with
omega_qq >= lambda, omega_rs <= lambda (r != s) and omega_rs >= 0, or in
*weak* mode the row conditions omega_qq >= omega_qs.  The objective is
strictly concave in every entry that carries edges and the constraints are
linear, so the optimum is global.

``solve_constrained`` solves strong mode exactly: for fixed lambda every
entry has a closed form, and the optimal lambda follows from a walk over the
sorted entry ratios m_rs / T_rs, between which the profile's derivative is
A/lambda - B.  The strong path (closed-form test, walk, clamp, objective)
runs on Python lists, whose ratios equal ``omega_mle``'s bit for bit, and
uses numpy only to sum the objective and wrap the returned omega: at a fit's
block counts numpy's per-call overhead dominates.  The search tests each candidate's closed form
on the same lists.  Weak mode uses a primal log-barrier method with damped
Newton steps.  ``lambda_profile_oracle`` solves strong mode by a
golden-section search over lambda, to cross-check the exact solve in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import BlockStats
from .likelihood import log_likelihood, omega_mle

__all__ = [
    "AssortativityMode",
    "SolverConfig",
    "OmegaSolution",
    "is_feasible",
    "solve_constrained",
    "lambda_profile_oracle",
]


class AssortativityMode(str, Enum):
    """Constraint family imposed on the block parameter matrix."""

    NONE = "none"
    WEAK = "weak"
    STRONG = "strong"


@dataclass(frozen=True)
class SolverConfig:
    """Weak-mode interior-point parameters.

    Strong mode is solved exactly and reads neither field.  tol bounds the
    duality gap of a weak solution relative to its objective magnitude
    (gap <= tol * (1 + |objective|), which is also the scale of its
    feasibility certificate); max_newton_iters caps the weak Newton steps.
    """

    tol: float = 1e-8
    max_newton_iters: int = 200

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class OmegaSolution:
    """Result of a constrained solve.

    lam is the diagonal/off-diagonal threshold (meaningful in strong mode)
    and objective the log-likelihood at omega.  A strong solve is exact: its
    kkt_residual is 0, it always converges, and iterations counts the entry
    ratios its threshold walk crossed.  A weak solve reports as kkt_residual
    the final barrier weight x constraint count (a duality-gap bound), as
    iterations its Newton steps, and converged=False when it hit the
    iteration cap.
    """

    omega: np.ndarray
    lam: float
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool = True


def is_feasible(omega, mode: AssortativityMode, tol: float = 0.0) -> bool:
    """Check the assortativity constraints of ``mode`` up to ``tol``."""
    mode = AssortativityMode(mode)
    if mode is AssortativityMode.NONE:
        return True
    w = np.asarray(omega, dtype=float)
    k = w.shape[0]
    if k <= 1:
        return True
    off = ~np.eye(k, dtype=bool)
    if mode is AssortativityMode.STRONG:
        return bool(np.min(np.diag(w)) >= np.max(w[off]) - tol)
    return not any(w[q, q] < np.max(np.delete(w[q], q)) - tol for q in range(k))


def _mle_lists(stats: BlockStats) -> tuple[list[list[float]], list[list[float]]]:
    """T_rs and m_rs / T_rs as nested lists, by the float operations of
    ``omega_mle`` in its order, so each ratio equals its entry bit for bit."""
    two_m = float(stats.two_m)
    kappa = [float(v) for v in stats.kappa]
    t = [[kr * ks / two_m for ks in kappa] for kr in kappa]
    ratio = [[mrs / trs if trs > 0 else 0.0 for mrs, trs in zip(row, t_row)]
             for row, t_row in zip(stats.m_block, t)]
    return t, ratio


def _mle_feasible(stats: BlockStats, mode: AssortativityMode) -> bool:
    """``is_feasible(omega_mle(stats), mode, 0.0)``, computed on lists."""
    if mode is AssortativityMode.NONE or stats.k <= 1:
        return True
    ratio = _mle_lists(stats)[1]
    if mode is AssortativityMode.STRONG:
        return min(row[q] for q, row in enumerate(ratio)) >= max(
            x for r, row in enumerate(ratio) for s, x in enumerate(row) if r != s)
    return all(row[q] >= max(row[:q] + row[q + 1:])
               for q, row in enumerate(ratio))


def solve_constrained(stats: BlockStats, mode: AssortativityMode,
                      cfg: SolverConfig | None = None) -> OmegaSolution:
    """Maximize the fixed-partition objective under ``mode``'s constraints.

    mode NONE returns the closed-form maximizer directly.  When the
    closed-form maximizer already satisfies the constraints, it is returned
    with a valid threshold and no iterations.  Otherwise strong mode is
    solved exactly by a walk over the sorted entry ratios, and weak mode by
    a primal log-barrier Newton method on the free entries; ``cfg`` applies
    to weak mode only.  The strong solve runs on Python lists; numpy only
    sums its objective and wraps the returned omega.

    Raises
    ------
    ValueError
        If every m_rs is zero.
    """
    mode = AssortativityMode(mode)
    if stats.two_m <= 0 or all(v == 0 for row in stats.m_block for v in row):
        raise ValueError("all block edge counts are zero")

    if mode is AssortativityMode.STRONG and stats.k > 1:
        return _solve_strong_exact(stats)
    if not _mle_feasible(stats, mode):
        return _solve_weak_barrier(stats, omega_mle(stats), cfg or SolverConfig())
    # mode NONE, a single block, or a weakly assortative closed form
    w = omega_mle(stats)
    lam = float(w[0, 0]) if stats.k == 1 and mode is not AssortativityMode.NONE else 0.0
    return OmegaSolution(omega=w, lam=lam, objective=log_likelihood(stats, w),
                         kkt_residual=0.0, iterations=0)


def _solve_strong_exact(stats: BlockStats) -> OmegaSolution:
    # For fixed lam, omega_qq = max(ratio_qq, lam), omega_rs = min(ratio_rs,
    # lam).  A block with zero degree sum carries no likelihood terms, so its
    # diagonal is free: the closed-form test leaves it out; it rides at lam.
    k, kappa, m = stats.k, stats.kappa, stats.m_block
    t, ratio = _mle_lists(stats)
    dmin = min(ratio[q][q] for q in range(k) if kappa[q])
    omax = max(x for r, row in enumerate(ratio) for s, x in enumerate(row) if r != s)
    crossed = 0
    if dmin >= omax:
        lam = 0.5 * (dmin + omax)
    else:
        # The profile g(lam) is concave with g'(lam) = A/lam - B, A and B
        # summing the (m, T) of the entries clamped at lam: diagonals with
        # ratio below lam (half weight) and edge-carrying off-diagonals with
        # ratio above it (full weight: the symmetric sum counts them twice).
        # Walking the ratios upward, lam* = A/B on the first interval whose
        # right end has g' <= 0.  Infeasibility among blocks with degree
        # keeps some entry clamped: B > 0.
        a = b = 0.0
        events = []  # (ratio, change of A, change of B) once lam passes ratio
        for r, row in enumerate(m):
            for s, trs in enumerate(t[r][r:], r):
                if trs == 0:
                    continue
                if r == s:
                    events.append((ratio[r][r], 0.5 * row[r], 0.5 * trs))
                elif row[s] > 0:
                    a += row[s]
                    b += trs
                    events.append((ratio[r][s], -row[s], -trs))
        events.sort()
        for rho, da, db in events:
            if a <= b * rho:
                break
            a += da
            b += db
            crossed += 1
        lam = a / b

    omega = [[min(x, lam) for x in row] for row in ratio]
    log_part, t_part = [], []
    for r, row in enumerate(m):
        omega[r][r] = max(ratio[r][r], lam)
        for mrs, trs, w in zip(row, t[r], omega[r]):
            log_part.append(mrs * math.log(w) if mrs else 0.0)
            t_part.append(trs * w)
    # numpy sums the terms, in log_likelihood's order
    objective = 0.5 * float(np.add.reduce(log_part) - np.add.reduce(t_part))
    return OmegaSolution(omega=np.array(omega), lam=lam, objective=objective,
                         kkt_residual=0.0, iterations=crossed)


# Path-following schedule of the weak barrier weight.
_BARRIER_INIT = 1.0
_BARRIER_SHRINK = 0.05


def _solve_weak_barrier(stats: BlockStats, what: np.ndarray,
                        cfg: SolverConfig) -> OmegaSolution:
    k = stats.k
    m = stats.m_matrix().astype(float)
    t = stats.t_block

    # Rows with zero degree sum carry no terms and no binding constraints;
    # pin their whole row/column to zero.
    active = [q for q in range(k) if stats.kappa[q] > 0]
    diag_ix = {q: i for i, q in enumerate(active)}
    off_free = [(r, s) for r in range(k) for s in range(r + 1, k) if m[r, s] > 0]
    off_ix = {rs: len(active) + i for i, rs in enumerate(off_free)}
    nvar = len(active) + len(off_free)

    # One barrier term per row constraint omega_qq >= omega_qs (active q,
    # s != q); against a pinned-zero entry the slack is the diagonal variable
    # itself, which doubles as its lower bound.
    constraints: list[tuple[int, int]] = []  # (diag var index, other var index or -1)
    for q in active:
        for s in range(k):
            if s == q:
                continue
            rs = (q, s) if q < s else (s, q)
            constraints.append((diag_ix[q], off_ix.get(rs, -1)))
    n_con = len(constraints) + len(off_free)

    md = np.array([m[q, q] for q in active])
    td = np.array([t[q, q] for q in active])
    mo = np.array([m[r, s] for r, s in off_free])
    to = np.array([t[r, s] for r, s in off_free])

    a = float(np.mean(what)) + 1.0
    z = np.empty(nvar)
    z[:len(active)] = 1.5 * a
    z[len(active):] = 0.5 * a

    def barrier_value(z, mu):
        xd = z[:len(active)]
        yo = z[len(active):]
        pos = md > 0
        if np.any(xd[pos] <= 0) or (len(yo) and np.min(yo) <= 0):
            return -math.inf
        slacks = np.array([z[di] - (z[oi] if oi >= 0 else 0.0)
                           for di, oi in constraints])
        if slacks.size and np.min(slacks) <= 0:
            return -math.inf
        val = -0.5 * float(np.sum(td * xd))
        if np.any(pos):
            val += 0.5 * float(np.sum(md[pos] * np.log(xd[pos])))
        if len(yo):
            val += float(np.sum(mo * np.log(yo) - to * yo))
            val += mu * float(np.sum(np.log(yo)))
        if slacks.size:
            val += mu * float(np.sum(np.log(slacks)))
        return val

    def objective_part(z):
        xd = z[:len(active)]
        yo = z[len(active):]
        pos = md > 0
        val = -0.5 * float(np.sum(td * xd))
        if np.any(pos):
            val += 0.5 * float(np.sum(md[pos] * np.log(xd[pos])))
        if len(yo):
            val += float(np.sum(mo * np.log(yo) - to * yo))
        return val

    mu = _BARRIER_INIT
    iters = 0
    converged = True
    grad_inf = math.inf
    while True:
        for _ in range(cfg.max_newton_iters):
            xd = z[:len(active)]
            yo = z[len(active):]
            g = np.zeros(nvar)
            h = np.zeros((nvar, nvar))
            g[:len(active)] = -0.5 * td
            pos = md > 0
            g[:len(active)][pos] += 0.5 * md[pos] / xd[pos]
            np.fill_diagonal(h[:len(active), :len(active)], -0.5 * md / xd ** 2)
            if len(yo):
                g[len(active):] = mo / yo - to + mu / yo
                h[len(active):, len(active):] += np.diag(-(mo + mu) / yo ** 2)
            for di, oi in constraints:
                slack = z[di] - (z[oi] if oi >= 0 else 0.0)
                g[di] += mu / slack
                h[di, di] -= mu / slack ** 2
                if oi >= 0:
                    g[oi] -= mu / slack
                    h[oi, oi] -= mu / slack ** 2
                    h[di, oi] += mu / slack ** 2
                    h[oi, di] += mu / slack ** 2

            grad_inf = float(np.max(np.abs(g), initial=0.0))
            sigma = 0.0
            for _ in range(12):
                try:
                    step = np.linalg.solve(h - sigma * np.eye(nvar), -g)
                except np.linalg.LinAlgError:
                    step = None
                if step is not None and float(np.dot(g, step)) > 0:
                    break
                sigma = 1e-8 if sigma == 0.0 else sigma * 100
            else:
                step = g / max(1.0, grad_inf)  # gradient fallback
            dec2 = float(np.dot(g, step))
            if dec2 <= 1e-2 * mu:
                break

            b0 = barrier_value(z, mu)
            alpha = 1.0
            for _ in range(60):
                zn = z + alpha * step
                if barrier_value(zn, mu) >= b0 + 0.25 * alpha * dec2:
                    break
                alpha *= 0.5
            else:
                break
            z = zn
            iters += 1
            if iters >= cfg.max_newton_iters:
                converged = False
                break
        gap_target = cfg.tol * (1.0 + abs(objective_part(z)))
        if not converged or n_con * mu <= gap_target:
            break
        mu *= _BARRIER_SHRINK

    omega = np.zeros((k, k))
    for q, i in diag_ix.items():
        omega[q, q] = z[i]
    for (r, s), i in off_ix.items():
        omega[r, s] = omega[s, r] = z[i]

    return OmegaSolution(omega=omega, lam=0.0,
                         objective=log_likelihood(stats, omega),
                         kkt_residual=max(n_con * mu, grad_inf * mu),
                         iterations=iters, converged=converged)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def lambda_profile_oracle(stats: BlockStats, lambdas=None,
                          tol: float = 1e-10) -> OmegaSolution:
    """Strong-mode reference solver via the scalar threshold profile.

    For fixed lambda the problem separates per entry: each diagonal optimum
    is max(m_qq/T_qq, lambda) and each off-diagonal optimum is
    min(m_rs/T_rs, lambda) clamped at 0 (entries with T = 0 use ratio 0).
    The induced objective g(lambda) is concave, so a golden-section search
    over lambda in [0, max(omega_mle) + 1] locates the optimum.  Passing an
    explicit ``lambdas`` grid evaluates g on the grid instead.
    """
    ratio = omega_mle(stats)

    def omega_at(lam: float) -> np.ndarray:
        w = np.minimum(ratio, lam)
        np.fill_diagonal(w, np.maximum(np.diag(ratio), lam))
        return w

    def value(lam: float) -> float:
        return log_likelihood(stats, omega_at(lam))

    evals = 0
    if lambdas is not None:
        best_lam = None
        best_val = -math.inf
        for lam in lambdas:
            v = value(float(lam))
            evals += 1
            if v > best_val:
                best_lam, best_val = float(lam), v
        if best_lam is None:
            raise ValueError("empty lambda grid")
        lo = hi = best_lam
    else:
        lo, hi = 0.0, float(np.max(ratio)) + 1.0
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        fc, fd = value(c), value(d)
        evals = 2
        while hi - lo > tol:
            if fc >= fd:
                hi, d, fd = d, c, fc
                c = hi - _INVPHI * (hi - lo)
                fc = value(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + _INVPHI * (hi - lo)
                fd = value(d)
            evals += 1

    lam = 0.5 * (lo + hi)
    omega = omega_at(lam)
    return OmegaSolution(omega=omega, lam=lam, objective=value(lam),
                         kkt_residual=0.0, iterations=evals)
