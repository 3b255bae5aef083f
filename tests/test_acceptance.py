"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  The two ensemble reproductions are shared session fixtures; their
persisted run payloads also feed the monotonicity/feasibility criterion.

The cortical-network criterion needs the cats cortex edge list, which is not
redistributable here; point ACSBM_CATS_CORTEX at a local copy (0-based ids,
65 nodes) to enable it.  It is skipped otherwise.
"""

import itertools
import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from acsbm import (AssortativityMode, ExperimentPlan, FitConfig, Graph,
                   Partition, block_stats, delta_relocation, is_feasible,
                   lambda_profile_oracle, load_edge_list, log_likelihood,
                   multi_start, nmi, omega_mle, profile_log_likelihood,
                   profile_offset, read_labels, run_ppm_sweep,
                   run_sbm_ensemble, solve_constrained)
from acsbm.benchmark import MODEL_NAMES, model_fit_config
from helpers import legal_moves, random_block_stats, random_graph, \
    random_partition

WORKERS = 2


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def group(rows, key_field, value_field, **match):
    out = {}
    for row in rows:
        if all(row[k] == v for k, v in match.items()):
            out.setdefault(row[key_field], []).append(row[value_field])
    return out


@pytest.fixture(scope="session")
def ppm_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("ppm_sweep")
    plan = ExperimentPlan(kind="ppm-sweep", models=["dc-sbm", "ac-dc-sbm"],
                          runs=20, fit_seed=0, instance_seed=1200,
                          n=100, k=4, avg_degree=16.0,
                          ratios=[0.10, 0.25, 0.60], workers=WORKERS)
    rows = run_ppm_sweep(plan, out_dir=out)
    return rows, out


@pytest.fixture(scope="session")
def sbm_ensemble(tmp_path_factory):
    out = tmp_path_factory.mktemp("sbm_ensemble")
    plan = ExperimentPlan(kind="sbm-ensemble",
                          models=["dc-sbm", "ac-dc-sbm", "modularity"],
                          runs=20, fit_seed=0, instance_seed=2000,
                          n=100, k=4, datasets=10, workers=WORKERS)
    rows = run_sbm_ensemble(plan, out_dir=out)
    return rows, out


def test_criterion_1_solver_oracle_equivalence():
    rng = random.Random(101)
    worst_rel = 0.0
    for _ in range(200):
        st = random_block_stats(rng, rng.choice([2, 3, 4]), hi=20)
        ref = lambda_profile_oracle(st)
        sol = solve_constrained(st, AssortativityMode.STRONG)
        rel = abs(sol.objective - ref.objective) / (1 + abs(ref.objective))
        worst_rel = max(worst_rel, rel)
        if rel > 1e-6:
            report(1, False, f"objective mismatch {rel:.2e} on {st.m_block}")
        if not is_feasible(sol.omega, AssortativityMode.STRONG, 1e-6):
            report(1, False, f"exact strong solution infeasible on {st.m_block}")
        if not is_feasible(ref.omega, AssortativityMode.STRONG, 1e-6):
            report(1, False, f"oracle solution infeasible on {st.m_block}")
    report(1, True, f"200 instances, worst relative gap {worst_rel:.2e}")


def test_criterion_2_likelihood_identities():
    rng = random.Random(103)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(4, 24)
        g = random_graph(rng, n, loops=True)
        k = rng.randint(1, 4)
        sa = block_stats(g, random_partition(rng, n, k))
        sb = block_stats(g, random_partition(rng, n, k))
        d_prof = profile_log_likelihood(sa) - profile_log_likelihood(sb)
        d_full = log_likelihood(sa, omega_mle(sa)) \
            - log_likelihood(sb, omega_mle(sb))
        err = abs(d_prof - d_full) / max(1.0, abs(d_prof))
        worst = max(worst, err)
        if err > 1e-9:
            report(2, False, f"profile/full difference mismatch {err:.2e}")
    # stationarity of the closed-form maximizer
    for _ in range(50):
        st = random_block_stats(rng, rng.randint(2, 4))
        w = omega_mle(st)
        base = log_likelihood(st, w)
        for r in range(st.k):
            for s in range(st.k):
                if st.m_block[r][s] == 0:
                    continue
                for sign in (1.0, -1.0):
                    pert = w.copy()
                    pert[r, s] = pert[s, r] = w[r, s] * (1 + sign * 1e-4)
                    if log_likelihood(st, pert) >= base:
                        report(2, False,
                               f"perturbing omega[{r}][{s}] did not decrease")
    report(2, True, f"200 partition pairs, worst relative gap {worst:.2e}; "
                    "stationarity held on 50 instances")


def test_criterion_3_incremental_move_exactness():
    rng = random.Random(107)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = rng.randint(3, 24)
        g = random_graph(rng, n, loops=True)
        p = random_partition(rng, n, rng.randint(2, 4))
        moves = legal_moves(p)
        if not moves:
            continue
        i, b = rng.choice(moves)
        st = block_stats(g, p)
        delta = delta_relocation(st, g, p, i, b)
        q = p.copy()
        q.assign[i] = b
        full = profile_log_likelihood(block_stats(g, q)) \
            - profile_log_likelihood(st)
        err = abs(delta - full) / max(1.0, abs(delta))
        worst = max(worst, err)
        if err > 1e-9:
            report(3, False, f"move ({i}->{b}) delta off by {err:.2e}")
        checked += 1
    report(3, True, f"1000 moves, worst relative gap {worst:.2e}")


def brute_force_profile_optimum(graph: Graph, k: int) -> float:
    best = -math.inf
    for assign in itertools.product(range(k), repeat=graph.n):
        v = profile_log_likelihood(block_stats(graph, Partition(k, list(assign))))
        if v > best:
            best = v
    return best


def test_criterion_4_small_instance_global_optimality(triangle_pair):
    instances = [triangle_pair]
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(4, 8)
        edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        if not edges:
            edges = [(0, 1, 1)]
        instances.append(Graph(n, edges))
    for idx, g in enumerate(instances):
        target = brute_force_profile_optimum(g, 2)
        best = multi_start(g, FitConfig(k=2, seed=5), runs=20)[0]
        got = best.log_likelihood - profile_offset(2 * g.total_weight)
        if abs(got - target) > 1e-9 * max(1.0, abs(target)):
            report(4, False,
                   f"instance {idx} (n={g.n}): search {got:.9f} "
                   f"!= enumerated {target:.9f}")
    report(4, True, "enumerated optimum attained on the two-triangle graph "
                    "and 10 random graphs (K=2, runs=20)")


def test_criterion_5_ppm_phase_transition(ppm_sweep):
    rows, _ = ppm_sweep
    ac = group(rows, "ratio", "nmi", model="ac-dc-sbm")
    dc = group(rows, "ratio", "nmi", model="dc-sbm")
    med_ac_01 = float(np.median(ac[0.10]))
    gap_025 = float(np.mean(ac[0.25])) - float(np.mean(dc[0.25]))
    med_ac_06 = float(np.median(ac[0.60]))
    med_dc_06 = float(np.median(dc[0.60]))
    detail = (f"median AC@0.10 = {med_ac_01:.3f} (need >= 0.9); "
              f"mean gap@0.25 = {gap_025:+.3f} (need >= 0.05); "
              f"medians@0.60 = {med_ac_06:.3f}/{med_dc_06:.3f} (need <= 0.15)")
    ok = med_ac_01 >= 0.9 and gap_025 >= 0.05 \
        and med_ac_06 <= 0.15 and med_dc_06 <= 0.15
    report(5, ok, detail)


def test_criterion_6_sbm_ensemble(sbm_ensemble):
    rows, _ = sbm_ensemble
    wins = 0
    for d in range(10):
        ac = [r["nmi"] for r in rows
              if r["dataset"] == d and r["model"] == "ac-dc-sbm"]
        dc = [r["nmi"] for r in rows
              if r["dataset"] == d and r["model"] == "dc-sbm"]
        wins += np.median(ac) >= np.median(dc)
    count_ac = np.mean([r["assortative_count"] for r in rows
                        if r["model"] == "ac-dc-sbm"])
    count_dc = np.mean([r["assortative_count"] for r in rows
                        if r["model"] == "dc-sbm"])
    detail = (f"AC median >= DC median on {wins}/10 datasets (need >= 8); "
              f"assortative-count means {count_ac:.2f} vs {count_dc:.2f} "
              f"(need gap >= 0.5)")
    report(6, wins >= 8 and count_ac - count_dc >= 0.5, detail)


def test_top_quantile_comparison(sbm_ensemble):
    # supplementary reproduction: restricting each (dataset, model) to its
    # best 10% of runs (by the model's own objective), the constrained model
    # keeps its edge over both the unconstrained one and the modularity
    # baseline
    _, out = sbm_ensemble
    payloads = [json.loads(line) for line in
                (Path(out) / "runs.jsonl").read_text().splitlines()]
    wins_dc = wins_mod = 0
    for d in range(10):
        top = {}
        for model in ("dc-sbm", "ac-dc-sbm", "modularity"):
            score = "modularity" if model == "modularity" else "log_likelihood"
            runs = sorted((r for r in payloads
                           if r["dataset"] == d and r["model"] == model),
                          key=lambda r: -r[score])[:2]
            top[model] = float(np.mean([r["nmi"] for r in runs]))
        wins_dc += top["ac-dc-sbm"] >= top["dc-sbm"]
        wins_mod += top["ac-dc-sbm"] >= top["modularity"]
    print(f"\n[supplementary] top-10% NMI: AC >= DC on {wins_dc}/10, "
          f"AC >= modularity on {wins_mod}/10 datasets")
    assert wins_dc >= 7 and wins_mod >= 7


def test_criterion_7_monotone_traces_and_feasibility(ppm_sweep, sbm_ensemble):
    checked = 0
    for _, out in (ppm_sweep, sbm_ensemble):
        for line in (Path(out) / "runs.jsonl").read_text().splitlines():
            rec = json.loads(line)
            trace = rec["trace"]
            if not all(b > a for a, b in zip(trace, trace[1:])):
                report(7, False, f"non-monotone trace in {rec['model']} "
                                 f"run {rec['run']}")
            if not is_feasible(rec["omega"], AssortativityMode(rec["mode"]), 1e-6):
                report(7, False, f"infeasible final omega in {rec['model']} "
                                 f"run {rec['run']}")
            checked += 1
    report(7, True, f"{checked} ensemble runs: traces strictly increasing, "
                    "final omega feasible at 1e-6")


def test_karate_club_best_split():
    """The vendored karate club at K=2: every model's best-of-50 is the same
    17/17 split, and strong and weak mode agree on average."""
    data = Path(__file__).resolve().parent.parent / "benchmarks" / "data"
    graph = load_edge_list(data / "karate.edges")
    clubs = read_labels(data / "karate.labels")
    for model in MODEL_NAMES:
        best = multi_start(graph, model_fit_config(model, 2, 0), runs=50,
                           workers=1)[0]
        assert best.partition.block_sizes() == [17, 17], model
        assert nmi(clubs, best.partition) == pytest.approx(0.6772, abs=1e-4)
    for mode in (AssortativityMode.STRONG, AssortativityMode.WEAK):
        fits = multi_start(graph, FitConfig(k=2, mode=mode), runs=200, workers=1)
        mean = sum(r.log_likelihood for r in fits) / len(fits)
        assert mean == pytest.approx(-58.42926, abs=1e-5), mode


def _cats_cortex_path():
    env = os.environ.get("ACSBM_CATS_CORTEX")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "cats_cortex.edges"


def test_criterion_8_cats_cortex_strong_feasible():
    path = _cats_cortex_path()
    if not path.exists():
        print(f"\n[criterion 8] SKIP: cats cortex dataset not found at {path} "
              "(set ACSBM_CATS_CORTEX)")
        pytest.skip("cats cortex dataset not available")
    graph = load_edge_list(path)
    if graph.n != 65:
        report(8, False, f"expected 65 cortical areas, parsed {graph.n}")
    cfg = FitConfig(k=4, mode=AssortativityMode.STRONG, seed=0)
    best = multi_start(graph, cfg, runs=100, workers=WORKERS)[0]
    ok = is_feasible(best.omega, AssortativityMode.STRONG, 1e-6)
    off = best.omega[~np.eye(4, dtype=bool)]
    report(8, ok, f"best-of-100 constrained fit: loglik={best.log_likelihood:.4f}, "
                  f"diag min={np.min(np.diag(best.omega)):.4f}, "
                  f"off-diag max={np.max(off):.4f}, strong-feasible={ok}")
