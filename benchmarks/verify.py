"""Checks of one restart's output that share no code with the fit.

Block statistics, the log-likelihood, modularity and the constraint checks
are recomputed here with numpy from the graph's edge list and the returned
partition.  Only the strong-mode optimum is compared against the program's
``lambda_profile_oracle``, which solves the problem by a route independent
of the interior-point solver.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from acsbm import BlockStats, lambda_profile_oracle
from acsbm.search import OBJECTIVE_MODULARITY
from acsbm.solver import AssortativityMode

LOGLIK_RTOL = 1e-9
FEASIBILITY_TOL = 1e-6
# A strong optimum may fall short of the oracle by at most this share of
# |oracle|.  The interior-point solver's largest measured shortfall is
# 2.9e-9 of |oracle| (about 2e-6 nats at |loglik| ~ 700), so an absolute
# 1e-6 would fail correct fits; 1e-8 is the smallest round bound above it.
ORACLE_RTOL = 1e-8


def block_matrix(graph, assign, k: int) -> np.ndarray:
    """m_rs in the double-counting convention (m_rr twice the internal weight)."""
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 3)
    labels = np.asarray(assign, dtype=np.int64)
    r, s, w = labels[edges[:, 0]], labels[edges[:, 1]], edges[:, 2]
    m = np.zeros((k, k), dtype=np.int64)
    np.add.at(m, (r, s), w)
    np.add.at(m, (s, r), w)
    return m


def log_likelihood(m: np.ndarray, omega: np.ndarray) -> float:
    kappa = m.sum(axis=1).astype(float)
    t = np.outer(kappa, kappa) / kappa.sum()
    pos = m > 0
    if np.any(omega[pos] <= 0):
        return float("-inf")
    return 0.5 * float(np.sum(m[pos] * np.log(omega[pos])) - np.sum(t * omega))


def violation(omega: np.ndarray, mode: AssortativityMode) -> float:
    """How far omega is from satisfying the constraints of ``mode``."""
    k = omega.shape[0]
    if mode is AssortativityMode.NONE or k == 1:
        return 0.0
    off = omega[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    diag = np.diag(omega)
    if mode is AssortativityMode.STRONG:
        return float(off.max() - diag.min())
    return float((off.max(axis=1) - diag).max())


@lru_cache(maxsize=4096)
def oracle_objective(m_bytes: bytes, k: int) -> float:
    """lambda_profile_oracle's optimum for a block matrix (restarts that end
    in the same partition share it)."""
    m = np.frombuffer(m_bytes, dtype=np.int64).reshape(k, k)
    stats = BlockStats(k, m.tolist(), m.sum(axis=1).tolist(), int(m.sum()))
    return lambda_profile_oracle(stats).objective


def check_restart(graph, result) -> list[str]:
    """Every way the restart's reported output disagrees with its partition."""
    k = result.partition.k
    assign = result.partition.assign
    if len(assign) != graph.n or min(assign) < 0 or max(assign) >= k:
        return ["partition does not label every node with a block in [0, k)"]
    problems = []
    m = block_matrix(graph, assign, k)
    omega = np.asarray(result.omega, dtype=float)
    loglik = log_likelihood(m, omega)
    if not abs(loglik - result.log_likelihood) <= LOGLIK_RTOL * max(1.0, abs(loglik)):
        problems.append(f"log-likelihood {result.log_likelihood!r} != "
                        f"recomputed {loglik!r}")
    if violation(omega, result.mode) > FEASIBILITY_TOL:
        problems.append(f"omega violates {result.mode.value} constraints")
    trace = result.trace
    if any(b <= a for a, b in zip(trace, trace[1:])):
        problems.append("trace is not strictly increasing")
    if trace[-1] != result.objective_value:
        problems.append("trace does not end at the reported objective")
    if result.objective == OBJECTIVE_MODULARITY:
        two_m = float(m.sum())
        q = float(np.trace(m) / two_m - np.sum((m.sum(axis=1) / two_m) ** 2))
        if not abs(q - result.modularity) <= LOGLIK_RTOL:
            problems.append(f"modularity {result.modularity!r} != recomputed {q!r}")
    elif np.any(np.bincount(assign, minlength=k) == 0):
        problems.append("likelihood fit left a block empty")
    if result.mode is AssortativityMode.STRONG:
        oracle = oracle_objective(m.tobytes(), k)
        if oracle - result.log_likelihood > ORACLE_RTOL * abs(oracle):
            problems.append(f"strong optimum {result.log_likelihood!r} below "
                            f"lambda-profile oracle {oracle!r}")
    return problems
