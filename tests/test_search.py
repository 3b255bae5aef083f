import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from acsbm import (AssortativityMode, EmptyBlockMoveError, FitConfig,
                   FitResult, Graph, Partition, PpmSpec, block_stats,
                   delta_relocation, edges_into_blocks, fit, generate_ppm,
                   is_feasible, load_edge_list, log_likelihood, modularity,
                   multi_start, nmi, profile_log_likelihood, profile_offset,
                   search, solve_constrained)
from helpers import legal_moves, random_graph, random_partition

TRIANGLE_OPT = 6 * math.log(2) - 6
DATA = Path(__file__).resolve().parent.parent / "benchmarks" / "data"


class TestDeltaRelocation:
    def test_matches_full_recomputation(self):
        rng = random.Random(61)
        checked = 0
        while checked < 200:
            n = rng.randint(3, 20)
            g = random_graph(rng, n, loops=True)
            p = random_partition(rng, n, rng.randint(2, 4))
            moves = legal_moves(p)
            if not moves:
                continue
            i, b = rng.choice(moves)
            before = profile_log_likelihood(block_stats(g, p))
            q = p.copy()
            q.assign[i] = b
            after = profile_log_likelihood(block_stats(g, q))
            delta = delta_relocation(block_stats(g, p), g, p, i, b)
            assert abs(delta - (after - before)) <= 1e-9 * max(1.0, abs(delta))
            checked += 1

    def test_reverse_move_cancels(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        d1 = delta_relocation(st, triangle_pair, triangle_split, 0, 1)
        moved = triangle_split.copy()
        moved.assign[0] = 1
        d2 = delta_relocation(block_stats(triangle_pair, moved),
                              triangle_pair, moved, 0, 0)
        assert d1 + d2 == pytest.approx(0.0, abs=1e-12)

    def test_isolated_node_zero_delta(self):
        g = Graph(4, [(0, 1, 2)])
        p = Partition(2, [0, 0, 1, 1])
        assert delta_relocation(block_stats(g, p), g, p, 3, 0) == pytest.approx(0.0)

    def test_emptying_move_signalled(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        p = Partition(2, [0, 0, 1])
        with pytest.raises(EmptyBlockMoveError):
            delta_relocation(block_stats(g, p), g, p, 2, 0)

    def test_same_block_and_out_of_range_rejected(self, triangle_pair,
                                                  triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        for b in (0, -1, 2):
            with pytest.raises(ValueError):
                delta_relocation(st, triangle_pair, triangle_split, 0, b)

    def test_target_block_takes_every_edge_end(self):
        # Each move leaves m_11 = kappa_1 = 2m, the largest count there is.
        # Every fit of the one-edge graph reads it from the list over 0..2m;
        # the heavy graph (mean edge weight 10000.5) uses the memo.
        cases = [(Graph(3, [(0, 1, 1)]), Partition(2, [0, 1, 0])),
                 (Graph(4, [(0, 1, 1), (1, 2, 20000)]), Partition(2, [0, 1, 1, 0]))]
        for g, p in cases:
            moved = p.copy()
            moved.assign[0] = 1
            assert block_stats(g, moved).m_block[1][1] == 2 * g.total_weight
            expected = (profile_log_likelihood(block_stats(g, moved))
                        - profile_log_likelihood(block_stats(g, p)))
            assert delta_relocation(block_stats(g, p), g, p, 0, 1) == \
                pytest.approx(expected, abs=1e-9)
            for seed in range(4):
                r = fit(g, FitConfig(k=2, seed=seed))
                assert r.log_likelihood == pytest.approx(log_likelihood(
                    block_stats(g, r.partition), r.omega), rel=1e-12)
        g, p = cases[0]
        assert delta_relocation(block_stats(g, p), g, p, 0, 1) == \
            pytest.approx(-math.log(2), abs=1e-12)


class TestFit:
    def test_triangle_pair_strong_reaches_global_optimum(self, triangle_pair):
        result = multi_start(
            triangle_pair,
            FitConfig(k=2, mode=AssortativityMode.STRONG, seed=3), runs=20)[0]
        assert result.log_likelihood == pytest.approx(TRIANGLE_OPT, abs=1e-9)
        np.testing.assert_allclose(result.omega, [[2, 0], [0, 2]], atol=1e-9)
        assert sorted(result.partition.block_sizes()) == [3, 3]
        assert nmi(result.partition, [0, 0, 0, 1, 1, 1]) == pytest.approx(1.0)

    def test_strong_matches_none_when_optimum_feasible(self, triangle_pair):
        r_none = multi_start(triangle_pair, FitConfig(k=2, seed=1), runs=10)[0]
        r_strong = multi_start(
            triangle_pair,
            FitConfig(k=2, mode=AssortativityMode.STRONG, seed=1), runs=10)[0]
        assert r_strong.log_likelihood == pytest.approx(
            r_none.log_likelihood, abs=1e-9)

    def test_single_block_no_moves(self, triangle_pair):
        result = fit(triangle_pair, FitConfig(k=1, seed=0))
        assert result.partition.assign == [0] * 6
        assert len(result.trace) == 1
        assert result.log_likelihood == pytest.approx(
            profile_log_likelihood(block_stats(triangle_pair, result.partition))
            + profile_offset(12))

    def test_k_equals_n(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        result = fit(g, FitConfig(k=3, seed=0))
        assert sorted(result.partition.block_sizes()) == [1, 1, 1]

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_search_leaves_null_plateau(self, mode):
        # most random halves of two joined 5-cliques are disassortative, and
        # there the constrained optimum is Omega = 1 with log-likelihood -m
        # for every partition; the search must still walk off that plateau
        g = Graph(10, [(i, j, 1) for c in (0, 5) for i in range(c, c + 5)
                       for j in range(i + 1, c + 5)] + [(4, 5, 1)])
        results = [fit(g, FitConfig(k=2, mode=mode, seed=seed))
                   for seed in range(20)]
        on_plateau = [r.trace[0] == pytest.approx(-g.total_weight)
                      for r in results]
        assert sum(on_plateau) >= 10
        for r in results:
            assert nmi(r.partition, [0] * 5 + [1] * 5) == pytest.approx(1.0)
            assert all(b > a for a, b in zip(r.trace, r.trace[1:]))

    def test_trace_strictly_increasing(self):
        rng = random.Random(71)
        for trial in range(10):
            g = random_graph(rng, rng.randint(8, 25), p=0.3, loops=True)
            mode = (AssortativityMode.STRONG, AssortativityMode.WEAK,
                    AssortativityMode.NONE)[trial % 3]
            result = fit(g, FitConfig(k=3, mode=mode, seed=trial))
            assert all(b > a for a, b in zip(result.trace, result.trace[1:]))
            assert result.trace[-1] == result.log_likelihood

    def test_final_omega_feasible_and_consistent(self):
        rng = random.Random(73)
        for trial in range(8):
            g = random_graph(rng, 20, p=0.25, loops=True)
            mode = (AssortativityMode.STRONG, AssortativityMode.WEAK)[trial % 2]
            result = fit(g, FitConfig(k=3, mode=mode, seed=trial))
            assert is_feasible(result.omega, mode, 1e-6)
            recomputed = log_likelihood(
                block_stats(g, result.partition), result.omega)
            assert abs(result.log_likelihood - recomputed) \
                <= 1e-9 * (1 + abs(recomputed))

    def test_omega_and_lambda_are_the_final_solve(self):
        # Bit for bit, in every model and at K = 1 too.  The triangle with
        # three isolated nodes leaves zero-degree blocks, whose diagonal
        # sits at lambda in strong mode (seed 2 at K = 2 and K = 3).
        karate = load_edge_list(DATA / "karate.edges")
        lone = Graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        models = [{}, {"mode": "strong"}, {"mode": "weak"},
                  {"objective": "modularity"}]
        differ, lifted = [], 0
        for name, g in (("karate", karate), ("lone", lone)):
            for kw in models:
                for k in (1, 2, 3):
                    for seed in range(8):
                        r = fit(g, FitConfig(k=k, seed=seed, **kw))
                        st = block_stats(g, r.partition)
                        sol = solve_constrained(st, r.mode)
                        if (r.omega.tobytes(), r.lam.hex()) != \
                                (sol.omega.tobytes(), sol.lam.hex()):
                            differ.append((name, kw, k, seed))
                        if r.mode is AssortativityMode.STRONG and k > 1:
                            for q in range(k):
                                if st.kappa[q] == 0:
                                    assert r.omega[q, q] == r.lam
                                    lifted += r.lam > 0
        assert not differ
        assert lifted

    def test_mode_none_log_likelihood_is_profile_value(self):
        rng = random.Random(79)
        g = random_graph(rng, 15, p=0.3)
        result = fit(g, FitConfig(k=2, seed=0))
        st = block_stats(g, result.partition)
        assert result.log_likelihood == pytest.approx(
            profile_log_likelihood(st) + profile_offset(st.two_m), abs=1e-9)

    def test_heavy_edge_weights(self, triangle_pair):
        # A 10**9-weight edge makes 2m ~ 2e9: x*log(x) lookups must not grow
        # with the weights, and fits and scores stay exact.
        g = Graph(6, [*triangle_pair.edges, (2, 3, 10**9)])
        models = [{}, {"mode": "strong"}, {"mode": "weak"},
                  {"objective": "modularity"}]
        tracemalloc.start()
        try:
            results = [fit(g, FitConfig(k=2, seed=s, **kw))
                       for kw in models for s in range(3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        for r in results:
            assert is_feasible(r.omega, r.mode, 1e-9)
            assert r.log_likelihood == pytest.approx(log_likelihood(
                block_stats(g, r.partition), r.omega), rel=1e-12)
        p = Partition(2, [0, 0, 0, 1, 1, 1])
        before = profile_log_likelihood(block_stats(g, p))
        for i, b in legal_moves(p):
            q = p.copy()
            q.assign[i] = b
            after = profile_log_likelihood(block_stats(g, q))
            assert delta_relocation(block_stats(g, p), g, p, i, b) == \
                pytest.approx(after - before, abs=1e-12 * abs(before))

    def test_xlogx_memo_not_shared(self, monkeypatch):
        # Fits of a heavy-weight graph each fill a memo of their own, freed
        # with the fit; a light graph's fits share one read-only list.
        tables = []
        build = search._xlogx
        monkeypatch.setattr(search, "_xlogx",
                            lambda g: tables.append(build(g)) or tables[-1])
        heavy = random_graph(random.Random(3), 20, p=0.3, max_w=20)
        light = random_graph(random.Random(3), 20, p=0.3)
        for g in (heavy, light):
            for seed in range(2):
                fit(g, FitConfig(k=3, mode="strong", seed=seed))
        assert all(isinstance(h, search._XLogX) for h in tables[:2])
        assert tables[0] is not tables[1] and tables[0] and tables[1]
        assert isinstance(tables[2], list) and tables[2] is tables[3]

    def test_fit_ends_at_local_optimum(self):
        # Graphs with self-loops and merged parallel edges.  No move from
        # the final partition may improve the objective, scored here from
        # neighbour counts recounted by edges_into_blocks; fit itself reads
        # them from its table of counts, which each accepted move updates.
        rng = random.Random(107)
        for trial in range(60):
            n = rng.randint(6, 30)
            k = (2, 3, 5)[trial % 3]
            g = random_graph(rng, n, p=0.3, max_w=4, loops=True)
            r = fit(g, FitConfig(k=k, seed=trial))
            st = block_stats(g, r.partition)
            tol = 1e-12 * (1 + abs(profile_log_likelihood(st)))
            for i, b in legal_moves(r.partition):
                assert delta_relocation(st, g, r.partition, i, b) <= tol, \
                    (trial, i, b)
            r = fit(g, FitConfig(k=k, seed=trial, objective="modularity"))
            st = block_stats(g, r.partition)
            kappa, two_m = st.kappa, st.two_m
            for i, a in enumerate(r.partition.assign):
                d = edges_into_blocks(g, r.partition, i)
                ki = g.degree[i]
                for b in range(k):
                    if b != a:
                        gain = (two_m * (d[b] - d[a])
                                - ki * (kappa[b] - kappa[a] + ki))
                        assert gain <= 0, (trial, i, b)

    def test_preconditions(self, triangle_pair):
        with pytest.raises(ValueError):
            fit(triangle_pair, FitConfig(k=7, seed=0))
        with pytest.raises(ValueError):
            fit(Graph(3, []), FitConfig(k=2, seed=0))
        for max_sweeps in (0, -3):
            with pytest.raises(ValueError, match="max_sweeps"):
                FitConfig(k=2, max_sweeps=max_sweeps)

    def test_max_sweeps_caps_search(self):
        rng = random.Random(101)
        g = random_graph(rng, 30, p=0.3)
        result = fit(g, FitConfig(k=4, seed=0, max_sweeps=1))
        assert result.sweeps == 1

    def test_mode_accepts_strings(self, triangle_pair):
        result = fit(triangle_pair, FitConfig(k=2, mode="strong", seed=3))
        assert result.mode is AssortativityMode.STRONG

    # (partition, sweeps, filtered_moves, constrained_solves, len(trace)) of
    # k=4 fits on one random graph: a change that keeps the search path must
    # reproduce them exactly
    PINNED = {
        ("dc-sbm", 0): ("1300131021121102", 2, 92, 0, 12),
        ("dc-sbm", 1): ("1020312012103301", 5, 229, 0, 16),
        ("dc-sbm", 2): ("0000102223330030", 2, 89, 0, 10),
        ("dc-sbm", 3): ("1121021313333331", 2, 83, 0, 12),
        ("strong", 0): ("1333231201121120", 3, 136, 15, 15),
        ("strong", 1): ("2020321011103302", 3, 130, 17, 17),
        ("strong", 2): ("0000102223330030", 2, 88, 10, 10),
        ("strong", 3): ("1121021313333331", 2, 83, 4, 11),
        ("weak", 0): ("1303301021201102", 3, 134, 16, 17),
        ("weak", 1): ("2020321011103302", 3, 131, 12, 17),
        ("weak", 2): ("0000102223330030", 2, 89, 8, 10),
        ("weak", 3): ("1121021313333331", 2, 83, 4, 11),
        ("modularity", 0): ("3333031211121123", 3, 135, 0, 17),
        ("modularity", 1): ("3030231011103303", 3, 137, 0, 15),
        ("modularity", 2): ("0000302122212210", 3, 138, 0, 13),
        ("modularity", 3): ("2121023333333332", 2, 85, 0, 17),
    }
    # filtered_moves + constrained_solves of the strong and weak fits above
    # as pinned before solves were screened by the two-cell bound: the bound
    # moves candidates from one counter to the other, never the total
    UNSCREENED_TOTALS = {
        ("strong", 0): 151, ("strong", 1): 147, ("strong", 2): 98,
        ("strong", 3): 87, ("weak", 0): 150, ("weak", 1): 143,
        ("weak", 2): 97, ("weak", 3): 87,
    }

    def test_search_path_pinned(self):
        g = random_graph(random.Random(1), 16, p=0.2, loops=True)
        models = {"dc-sbm": {}, "strong": {"mode": "strong"},
                  "weak": {"mode": "weak"},
                  "modularity": {"objective": "modularity"}}
        for (model, seed), expected in self.PINNED.items():
            r = fit(g, FitConfig(k=4, seed=seed, **models[model]))
            got = ("".join(map(str, r.partition.assign)), r.sweeps,
                   r.filtered_moves, r.constrained_solves, len(r.trace))
            assert got == expected, (model, seed)
            if (model, seed) in self.UNSCREENED_TOTALS:
                assert r.filtered_moves + r.constrained_solves == \
                    self.UNSCREENED_TOTALS[model, seed], (model, seed)


def _without_counters(result: FitResult) -> dict:
    d = result.to_dict()
    del d["constrained_solves"], d["filtered_moves"]
    return d


class TestSolveScreen:
    """The two-cell bound only skips solves that would lose: with it
    switched off (a bound of 0 for every infeasible closed form) every fit
    is the same, and only solves turn into filtered candidates."""

    @staticmethod
    def graphs():
        karate = load_edge_list(DATA / "karate.edges")
        heavy = random_graph(random.Random(3), 20, p=0.3, max_w=20)
        assert 2 * heavy.total_weight > 8 * len(heavy.edges)  # the memo
        lone = random_graph(random.Random(4), 20, p=0.3, loops=True)
        return [(karate, 2), (karate, 3),
                (random_graph(random.Random(1), 16, p=0.2, loops=True), 4),
                (heavy, 3), (Graph(21, lone.edges), 3)]

    def test_screen_changes_only_the_counters(self, monkeypatch):
        cfgs = [FitConfig(k=k, mode=mode, seed=seed)
                for mode in (AssortativityMode.STRONG, AssortativityMode.WEAK)
                for k in (2, 3, 4) for seed in range(6)]
        graphs = self.graphs()
        runs = [(g, c) for g, k in graphs for c in cfgs if c.k == k]
        screened = [fit(g, c) for g, c in runs]
        bound = search._mle_gap
        monkeypatch.setattr(search, "_mle_gap", lambda stats, mode: (
            None if bound(stats, mode) is None else 0.0))
        skipped = 0
        for (g, c), r in zip(runs, screened):
            ref = fit(g, c)
            assert _without_counters(r) == _without_counters(ref), c
            assert r.filtered_moves + r.constrained_solves == \
                ref.filtered_moves + ref.constrained_solves, c
            assert r.constrained_solves <= ref.constrained_solves, c
            skipped += ref.constrained_solves - r.constrained_solves
        assert skipped > 0
        assert any(r.trace[0] == -g.total_weight
                   for (g, c), r in zip(runs, screened) if c.k == 2)


# SHA-256 of the fits below, without the two counters, as produced before
# a fit's omega and lambda came from one solve of its final partition: a
# change that must keep every fit bit for bit compares against it.  The
# single-block fits pin lambda at K = 1, and the heavy graph the x*log(x)
# memo.
FIT_DIGEST = "b25458c6afed4a4b8fb506ea39dd1e317c0d2e833269274ed3df776aea3f4946"


def fit_digest() -> str:
    karate = load_edge_list(DATA / "karate.edges")
    ppm = generate_ppm(PpmSpec(n=100, k=4, avg_degree=16.0, ratio=0.25,
                               seed=1201))[0]
    heavy = TestSolveScreen.graphs()[3][0]
    models = [{}, {"mode": "strong"}, {"mode": "weak"},
              {"objective": "modularity"}]
    fits = [(karate, k, seed) for k in (1, 2, 3) for seed in range(10)]
    fits += [(ppm, 4, seed) for seed in range(4)]
    fits += [(heavy, 3, seed) for seed in range(4)]
    digest = hashlib.sha256()
    for kw in models:
        for g, k, seed in fits:
            d = _without_counters(fit(g, FitConfig(k=k, seed=seed, **kw)))
            digest.update(json.dumps(d, sort_keys=True).encode())
    return digest.hexdigest()


def test_fits_bit_identical():
    assert fit_digest() == FIT_DIGEST


class TestModularityObjective:
    def test_triangle_pair_reaches_q_half(self, triangle_pair):
        best = multi_start(triangle_pair,
                           FitConfig(k=2, seed=0, objective="modularity"),
                           runs=10)[0]
        assert best.modularity == pytest.approx(0.5, abs=1e-12)
        assert best.trace[-1] == best.modularity

    def test_blocks_may_empty(self, triangle_pair):
        # with k=3 on two cliques the best Q still uses two blocks
        best = multi_start(triangle_pair,
                           FitConfig(k=3, seed=0, objective="modularity"),
                           runs=20)[0]
        assert best.modularity == pytest.approx(0.5, abs=1e-12)
        assert sorted(best.partition.block_sizes()) == [0, 3, 3]

    def test_reported_likelihood_consistent(self, triangle_pair):
        best = multi_start(triangle_pair,
                           FitConfig(k=3, seed=0, objective="modularity"),
                           runs=20)[0]
        st = block_stats(triangle_pair, best.partition)
        assert best.log_likelihood == pytest.approx(
            log_likelihood(st, best.omega), abs=1e-9)
        assert best.modularity == pytest.approx(modularity(st), abs=1e-12)

    def test_assortativity_mode_rejected(self):
        for mode in ("strong", "weak"):
            with pytest.raises(ValueError):
                FitConfig(k=2, mode=mode, objective="modularity")
        assert FitConfig(k=2, mode="none", objective="modularity").mode \
            is AssortativityMode.NONE


class TestMultiStart:
    def test_single_run_equals_fit(self, triangle_pair):
        cfg = FitConfig(k=2, seed=9)
        single = fit(triangle_pair, cfg)
        multi = multi_start(triangle_pair, cfg, runs=1)
        assert len(multi) == 1
        assert multi[0].partition.assign == single.partition.assign
        assert multi[0].trace == single.trace

    def test_deterministic_repeat(self):
        rng = random.Random(83)
        g = random_graph(rng, 20, p=0.3)
        cfg = FitConfig(k=3, mode=AssortativityMode.STRONG, seed=100)
        a = multi_start(g, cfg, runs=5)
        b = multi_start(g, cfg, runs=5)
        for ra, rb in zip(a, b):
            assert ra.seed == rb.seed
            assert ra.partition.assign == rb.partition.assign
            assert ra.trace == rb.trace
            np.testing.assert_array_equal(ra.omega, rb.omega)

    def test_parallel_matches_sequential(self):
        rng = random.Random(89)
        g = random_graph(rng, 18, p=0.3)
        cfg = FitConfig(k=2, mode=AssortativityMode.STRONG, seed=7)
        # 12 runs on 2 workers go out in chunks of 2 fits
        seq = multi_start(g, cfg, runs=12, workers=1)
        par = multi_start(g, cfg, runs=12, workers=2)
        for rs, rp in zip(seq, par):
            assert rs.seed == rp.seed
            assert rs.trace == rp.trace
            assert rs.partition.assign == rp.partition.assign

    def test_sorted_by_objective_then_seed(self):
        rng = random.Random(97)
        g = random_graph(rng, 20, p=0.25)
        results = multi_start(g, FitConfig(k=3, seed=0), runs=8)
        keys = [(-r.log_likelihood, r.seed) for r in results]
        assert keys == sorted(keys)
        assert {r.seed for r in results} == set(range(8))

    def test_seeds_are_offsets(self, triangle_pair):
        results = multi_start(triangle_pair, FitConfig(k=2, seed=40), runs=3)
        assert {r.seed for r in results} == {40, 41, 42}

    def test_runs_validation(self, triangle_pair):
        with pytest.raises(ValueError):
            multi_start(triangle_pair, FitConfig(k=2, seed=0), runs=0)
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers"):
                multi_start(triangle_pair, FitConfig(k=2, seed=0), runs=3,
                            workers=workers)


@pytest.fixture
def fresh_pool():
    """No pool before the test, and none left behind by it."""
    search._shutdown_pool()
    yield
    search._shutdown_pool()


def _as_dicts(results):
    return [r.to_dict() for r in results]


class TestProcessPool:
    JOBS = [  # (graph seed, n, config, runs): graphs, modes and objectives
        (101, 20, FitConfig(k=3, seed=0), 6),
        (102, 16, FitConfig(k=2, mode=AssortativityMode.STRONG, seed=5), 5),
        (103, 18, FitConfig(k=3, mode=AssortativityMode.WEAK, seed=9), 7),
        (104, 20, FitConfig(k=3, seed=2, objective="modularity"), 3),
    ]

    def test_one_pool_serves_every_call(self, fresh_pool, monkeypatch):
        started = []

        class CountingPool(search.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                self.was_shut_down = False
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                self.was_shut_down = True
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(search, "ProcessPoolExecutor", CountingPool)
        for seed, n, cfg, runs in self.JOBS:
            g = random_graph(random.Random(seed), n, p=0.3)
            assert _as_dicts(multi_start(g, cfg, runs, workers=2)) == \
                _as_dicts(multi_start(g, cfg, runs, workers=1))
        assert len(started) == 1

        tiny = random_graph(random.Random(105), 3, p=1.0)
        with pytest.raises(ValueError, match="exceeds node count"):
            multi_start(tiny, FitConfig(k=4), runs=4, workers=2)
        seed, n, cfg, runs = self.JOBS[0]
        g = random_graph(random.Random(seed), n, p=0.3)
        assert _as_dicts(multi_start(g, cfg, runs, workers=2)) == \
            _as_dicts(multi_start(g, cfg, runs, workers=1))
        assert len(started) == 1 and not started[0].was_shut_down

        assert _as_dicts(multi_start(g, cfg, runs, workers=3)) == \
            _as_dicts(multi_start(g, cfg, runs, workers=1))
        assert len(started) == 2 and started[0].was_shut_down

    def test_broken_pool_is_replaced(self, fresh_pool):
        g = random_graph(random.Random(106), 20, p=0.3)
        cfg = FitConfig(k=3, mode=AssortativityMode.STRONG, seed=3)
        multi_start(g, cfg, runs=6, workers=2)
        _, executor = search._pool
        os.kill(next(iter(executor._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            multi_start(g, cfg, runs=6, workers=2)
        assert search._pool is None
        assert _as_dicts(multi_start(g, cfg, runs=6, workers=2)) == \
            _as_dicts(multi_start(g, cfg, runs=6, workers=1))
        assert search._pool[1] is not executor


def test_no_worker_outlives_the_interpreter():
    script = (
        "import random\n"
        "from acsbm import FitConfig, multi_start, search\n"
        "from helpers import random_graph\n"
        "g = random_graph(random.Random(107), 20, p=0.3)\n"
        "multi_start(g, FitConfig(k=3, seed=0), runs=6, workers=2)\n"
        "multi_start(g, FitConfig(k=2, mode='strong'), runs=6, workers=2)\n"
        "print(*search._pool[1]._processes)\n")
    paths = [Path(search.__file__).parent.parent, Path(__file__).parent]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_forked_child_starts_its_own_pool():
    # A child forked after the parent's pool started must not reuse that
    # pool: its management thread did not survive the fork, so the child's
    # calls would wait on it for ever.  The child runs the same fits on a
    # pool of its own, and a hang fails the test through the timeout.
    script = (
        "import os, random, sys, traceback, warnings\n"
        "from acsbm import FitConfig, multi_start, search\n"
        "from helpers import random_graph\n"
        "g = random_graph(random.Random(108), 20, p=0.3)\n"
        "cfg = FitConfig(k=3, seed=0)\n"
        "multi_start(g, cfg, runs=6, workers=2)\n"
        "parent_pool = search._pool[1]\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore', DeprecationWarning)\n"
        "    pid = os.fork()\n"
        "if pid == 0:\n"
        "    code = 1\n"
        "    try:\n"
        "        pooled = multi_start(g, cfg, runs=6, workers=2)\n"
        "        alone = multi_start(g, cfg, runs=6, workers=1)\n"
        "        assert [r.to_dict() for r in pooled] == \\\n"
        "            [r.to_dict() for r in alone]\n"
        "        assert search._pool[1] is not parent_pool\n"
        "        search._shutdown_pool()\n"
        "        code = 0\n"
        "    except BaseException:\n"
        "        traceback.print_exc()\n"
        "    finally:\n"
        "        sys.stderr.flush()\n"
        "        os._exit(code)\n"
        "_, status = os.waitpid(pid, 0)\n"
        "sys.exit(os.waitstatus_to_exitcode(status))\n")
    paths = [Path(search.__file__).parent.parent, Path(__file__).parent]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", script], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the forked child's multi_start hung")
    assert proc.returncode == 0 and err == "", err
