"""Fixed-partition constrained block-parameter estimation.

For a fixed partition the constrained fit maximizes

    f(Omega) = (1/2) sum_rs ( m_rs log(omega_rs) - T_rs omega_rs )

subject to, in *strong* mode, a threshold variable lambda with
omega_qq >= lambda, omega_rs <= lambda (r != s) and omega_rs >= 0, or in
*weak* mode the row conditions omega_qq >= omega_qs.  The objective is
strictly concave in every entry that carries edges and the constraints are
linear, so the optimum is global.

``solve_constrained`` solves both modes exactly.  Strong mode: for fixed
lambda every entry has a closed form, and the optimal lambda follows from a
walk over the sorted entry ratios m_rs / T_rs, between which the profile's
derivative is A/lambda - B.  Weak mode: the optimum is the isotonic
regression of the ratios weighted by T, whose level sets a series of minimum
cuts finds.  Both run on Python lists, with ratios and objective from
``acsbm.likelihood``'s list kernels; numpy only wraps the returned omega,
as at a fit's block counts its per-call overhead dominates.
``_satisfied`` is the one constraint test, on each row's diagonal entry and
largest other entry: ``is_feasible`` applies it to a given omega and
``solve_constrained`` to the closed form.  The search screens each
candidate's closed form with ``_mle_gap``, which applies it to the
closed-form ratios and, when it fails, bounds from below how much
likelihood the constraints cost, by the exact optimum of the two-cell
problem of one violated pair.  ``lambda_profile_oracle`` solves
strong mode by golden-section search over the threshold, to cross-check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import BlockStats
from .likelihood import (_as_omega, _loglik, _mle_lists, log_likelihood,
                         omega_mle)

__all__ = [
    "AssortativityMode",
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


@dataclass
class OmegaSolution:
    """Result of a constrained solve.

    lam is the diagonal/off-diagonal threshold of strong mode (0 in the
    other modes) and objective the log-likelihood at omega.  Both solves
    are exact: their kkt_residual is 0 and they always converge.  iterations
    counts the entry ratios a strong solve's threshold walk crossed, or the
    level-set splits of a weak solve.
    """

    omega: np.ndarray
    lam: float
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool = True


def _row_ends(rows) -> tuple[list[float], list[float]]:
    """Each row's diagonal entry, and the largest of its other entries."""
    return ([row[q] for q, row in enumerate(rows)],
            [max(row[:q] + row[q + 1:]) for q, row in enumerate(rows)])


def _assortative_rows(diag, off, tol: float) -> list[bool]:
    """Whether each row's diagonal entry dominates the rest of its row."""
    return [d >= o - tol for d, o in zip(diag, off)]


def _satisfied(diag, off, mode: AssortativityMode, tol: float = 0.0) -> bool:
    """The constraints of ``mode``, up to ``tol``, on the ``_row_ends`` of
    an omega with at least two blocks."""
    if mode is AssortativityMode.STRONG:
        return min(diag) >= max(off) - tol
    return all(_assortative_rows(diag, off, tol))


def is_feasible(omega, mode: AssortativityMode, tol: float = 0.0) -> bool:
    """Check the assortativity constraints of ``mode`` up to ``tol``; omega
    must be square, finite, symmetric and nonnegative (else ValueError)."""
    rows = _as_omega(omega).tolist()
    mode = AssortativityMode(mode)
    if mode is AssortativityMode.NONE or len(rows) <= 1:
        return True
    return _satisfied(*_row_ends(rows), mode, tol)


def _phi(rho: float, lam: float) -> float:
    """Loss per unit T of moving an entry from its ratio rho to lam."""
    return (rho * math.log(rho / lam) if rho else 0.0) - rho + lam


def _pair_gap(qq, rs) -> float:
    """L lost by pooling diagonal (q, q) with off-diagonal (r, s), each given
    as (m, T, ratio) with ratio_qq < ratio_rs: both move to the optimum
    lam of the two-cell problem under omega_qq >= omega_rs (half weight on
    the diagonal, as the symmetric sum counts an off-diagonal twice)."""
    lam = (0.5 * qq[0] + rs[0]) / (0.5 * qq[1] + rs[1])
    return 0.5 * qq[1] * _phi(qq[2], lam) + rs[1] * _phi(rs[2], lam)


def _mle_gap(stats: BlockStats, mode: AssortativityMode) -> float | None:
    """None iff ``is_feasible(omega_mle(stats), mode, 0.0)``; otherwise a
    lower bound on L(omega_mle) - L(Omega*), Omega* the constrained optimum.

    Keeping a single constraint omega_qq >= omega_rs that the closed form
    violates, and dropping the others, leaves a two-cell problem whose
    exact optimum (``_pair_gap``) bounds the loss.  Strong mode pairs the
    smallest diagonal ratio of a block with degree with the largest
    off-diagonal one (bound 0 if those two are in order: the violation is
    then a zero-degree block's diagonal, which is free).  Weak mode takes
    the largest bound over violated rows, each diagonal against its row's
    largest entry.

    The search calls this for every improving candidate, so it computes
    the ratios of ``_mle_lists`` with the same float expressions but in one
    pass over the upper triangle, keeping each row's largest off-diagonal
    cell: composed from ``_mle_lists`` and ``_row_ends`` it took about
    twice as long per call, which made strong fits on the n = 100 desk
    fixtures about 1.25x slower.  The constraint test itself is
    ``_satisfied``, as for ``is_feasible``.
    """
    k = stats.k
    if mode is AssortativityMode.NONE or k <= 1:
        return None
    two_m = float(stats.two_m)
    kappa = [float(v) for v in stats.kappa]
    diag, ends = [], ([], [0.0] * k)  # cells as (m, T, ratio); their ratios
    row_max = [(0, 0.0, 0.0)] * k  # the largest off-diagonal cell of each row
    dr, off = ends
    for r, (m_row, kr) in enumerate(zip(stats.m_block, kappa)):
        t = kr * kr / two_m
        x = m_row[r] / t if t > 0 else 0.0
        diag.append((m_row[r], t, x))
        dr.append(x)
        for s in range(r + 1, k):
            t = kr * kappa[s] / two_m
            x = m_row[s] / t if t > 0 else 0.0
            if x > off[r]:
                off[r], row_max[r] = x, (m_row[s], t, x)
            if x > off[s]:
                off[s], row_max[s] = x, (m_row[s], t, x)
    if _satisfied(*ends, mode):
        return None
    if mode is AssortativityMode.STRONG:
        top = max(row_max, key=lambda cell: cell[2])
        low = min((d for d, kq in zip(diag, kappa) if kq), key=lambda d: d[2])
        return _pair_gap(low, top) if low[2] < top[2] else 0.0
    return max(_pair_gap(d, top) for d, top, ok
               in zip(diag, row_max, _assortative_rows(*ends, 0.0)) if not ok)


def solve_constrained(stats: BlockStats, mode: AssortativityMode) -> OmegaSolution:
    """Maximize the fixed-partition objective under ``mode``'s constraints.

    mode NONE returns the closed-form maximizer directly.  When the
    closed-form maximizer already satisfies the constraints, it is returned
    with no iterations and, in strong mode, a valid threshold.  Otherwise
    strong mode is solved exactly by a walk over the sorted entry ratios,
    and weak mode exactly as an isotonic regression split by minimum cuts,
    which leaves the entries of blocks with zero degree sum at 0.  The lists
    of T and of the ratios are built once per call; every branch runs on
    them and scores its omega with ``likelihood._loglik``, and numpy only
    wraps the returned omega.

    Raises
    ------
    ValueError
        If every m_rs is zero.
    """
    mode = AssortativityMode(mode)
    if stats.two_m <= 0 or all(v == 0 for row in stats.m_block for v in row):
        raise ValueError("all block edge counts are zero")

    t, ratio = _mle_lists(stats)
    if mode is AssortativityMode.STRONG and stats.k > 1:
        return _solve_strong_exact(stats, t, ratio)
    if (mode is AssortativityMode.WEAK and stats.k > 1
            and not _satisfied(*_row_ends(ratio), mode)):
        return _solve_weak_exact(stats, t)
    # mode NONE, a single block, or a weakly assortative closed form
    lam = ratio[0][0] if mode is AssortativityMode.STRONG else 0.0
    return OmegaSolution(omega=np.array(ratio), lam=lam,
                         objective=_loglik(stats.m_block, t, ratio),
                         kkt_residual=0.0, iterations=0)


def _solve_strong_exact(stats: BlockStats, t, ratio) -> OmegaSolution:
    # For fixed lam, omega_qq = max(ratio_qq, lam), omega_rs = min(ratio_rs,
    # lam).  A block with zero degree sum carries no likelihood terms, so its
    # diagonal is free: the closed-form test leaves it out; it rides at lam.
    k, kappa, m = stats.k, stats.kappa, stats.m_block
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
    for r in range(k):
        omega[r][r] = max(ratio[r][r], lam)
    return OmegaSolution(omega=np.array(omega), lam=lam,
                         objective=_loglik(m, t, omega),
                         kkt_residual=0.0, iterations=crossed)


def _max_closure(gains, above) -> list[int]:
    """The smallest maximum-gain set closed upward (i in it puts above[i] in
    it): the source side of a minimum cut, by shortest augmenting paths."""
    n = len(gains)
    src, snk = n, n + 1
    cap = [[0] * (n + 2) for _ in range(n + 2)]
    for i, g in enumerate(gains):
        if g > 0:
            cap[src][i] = g
        else:
            cap[i][snk] = -g
        for j in above[i]:
            cap[i][j] = math.inf
    while True:
        prev = {src: src}
        queue = [src]
        for u in queue:
            for v, c in enumerate(cap[u]):
                if c > 0 and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if snk not in prev:
            return [v for v in prev if v < n]
        path = [snk]
        while path[-1] != src:
            path.append(prev[path[-1]])
        push = min(cap[u][v] for v, u in zip(path, path[1:]))
        for v, u in zip(path, path[1:]):
            cap[u][v] -= push
            cap[v][u] += push


def _solve_weak_exact(stats: BlockStats, t) -> OmegaSolution:
    # The weak optimum is the isotonic regression of the ratios m/T weighted
    # by T under omega_rs <= omega_rr, omega_ss (Robertson, Wright & Dykstra
    # 1988, sec. 1.5).  A part's cells above its pooled level c are its
    # maximum-gain upper set for the gains T (ratio - c) (Hochbaum & Queyranne
    # 2003), so the part splits there or is one level set at c.  Cells of
    # blocks with degree only, in integers: masses m_qq, 2 m_rs and weights
    # kappa_q^2, 2 kappa_r kappa_s are the terms' m and T (half on the
    # diagonal) times 2 and 4m, so a part pools at 2m sum(mass) / sum(weight)
    # and its gains are exact; the whole part's is 0, so a split is proper.
    kappa = stats.kappa
    active = [q for q in range(stats.k) if kappa[q]]
    cells = [(r, s) for i, r in enumerate(active) for s in active[i:]]
    index = {rs: i for i, rs in enumerate(cells)}
    mass = [stats.m_block[r][s] * (1 if r == s else 2) for r, s in cells]
    weight = [kappa[r] * kappa[s] * (1 if r == s else 2) for r, s in cells]
    above = [[] if r == s else [index[r, r], index[s, s]] for r, s in cells]
    omega = [[0.0] * stats.k for _ in range(stats.k)]
    parts = [list(range(len(cells)))]
    splits = 0
    while parts:
        part = parts.pop()
        a, w = sum(mass[i] for i in part), sum(weight[i] for i in part)
        local = {i: j for j, i in enumerate(part)}
        upper = _max_closure([mass[i] * w - weight[i] * a for i in part],
                             [[local[j] for j in above[i] if j in local]
                              for i in part])
        if upper:
            splits += 1
            up = {part[j] for j in upper}
            parts += [sorted(up), [i for i in part if i not in up]]
            continue
        c = stats.two_m * a / w
        for i in part:
            r, s = cells[i]
            omega[r][s] = omega[s][r] = c
    return OmegaSolution(omega=np.array(omega), lam=0.0,
                         objective=_loglik(stats.m_block, t, omega),
                         kkt_residual=0.0, iterations=splits)


def _on_null_plateau(stats: BlockStats) -> bool:
    """Whether Omega = 1 (on the blocks with degree) is the constrained
    optimum, log-likelihood -m whatever the partition: diagonal ratios <= 1
    <= off-diagonal ratios, in strong and in weak mode alike.

    Weak mode: all cells pool at exactly 1, so Omega = 1 is optimal iff no
    upper set of cells gains at 1 (see ``_solve_weak_exact``).  Given the test, the best
    one on diagonals S takes every off-diagonal inside S, and its gain
    2m M_S - kappa_S^2 (M_S the edge ends inside S) is minus the off-diagonal
    gains 2m m_rs - kappa_r kappa_s between S and the rest, as each row of
    gains sums to 0: <= 0.  Conversely a weak optimum Omega = 1 is strongly
    feasible, hence the strong optimum too.
    """
    m, kappa, two_m, k = stats.m_block, stats.kappa, stats.two_m, stats.k
    return all(m[r][r] * two_m <= kappa[r] ** 2 for r in range(k)) and all(
        m[r][s] * two_m >= kappa[r] * kappa[s]
        for r in range(k) for s in range(r + 1, k))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ORACLE_BRACKET = 1e-10  # width at which the golden-section search stops


def lambda_profile_oracle(stats: BlockStats) -> OmegaSolution:
    """Strong-mode reference solver via the scalar threshold profile.

    For fixed lambda the problem separates per entry: each diagonal optimum
    is max(m_qq/T_qq, lambda) and each off-diagonal optimum is
    min(m_rs/T_rs, lambda) clamped at 0 (entries with T = 0 use ratio 0).
    The induced objective g(lambda) is concave, so a golden-section search
    over lambda in [0, max(omega_mle) + 1] locates the optimum, to a bracket
    of width 1e-10; iterations counts the evaluations of g.
    """
    ratio = omega_mle(stats)

    def omega_at(lam: float) -> np.ndarray:
        w = np.minimum(ratio, lam)
        np.fill_diagonal(w, np.maximum(np.diag(ratio), lam))
        return w

    def value(lam: float) -> float:
        return log_likelihood(stats, omega_at(lam))

    lo, hi = 0.0, float(np.max(ratio)) + 1.0
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = value(c), value(d)
    evals = 2
    while hi - lo > _ORACLE_BRACKET:
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
    return OmegaSolution(omega=omega_at(lam), lam=lam, objective=value(lam),
                         kkt_residual=0.0, iterations=evals)
