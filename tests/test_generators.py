import json
import math

import numpy as np
import pytest

from acsbm import (FitConfig, PpmSpec, SbmSpec, block_stats, fit,
                   generate_ppm, generate_sbm, load_edge_list, nmi,
                   omega_mle, ppm_rates, read_labels, write_instance)


class TestPpm:
    def test_rate_closed_form(self):
        p_in, p_out = ppm_rates(100, 4, 16.0, 0.0)
        assert p_in == pytest.approx(16.0 / 24.0)
        assert p_out == 0.0

    def test_exchangeable_limit_rate(self):
        p_in, p_out = ppm_rates(100, 4, 16.0, 1.0)
        assert p_in == pytest.approx(16.0 / 99.0)
        assert p_out == pytest.approx(p_in)

    def test_zero_ratio_disconnects_blocks(self):
        g, truth = generate_ppm(PpmSpec(n=100, k=4, avg_degree=16, ratio=0.0, seed=1))
        for u, v, _ in g.edges:
            assert truth.assign[u] == truth.assign[v]

    def test_block_sizes_equal_with_remainder_spread(self):
        _, truth = generate_ppm(PpmSpec(n=10, k=4, avg_degree=3, ratio=0.2, seed=0))
        assert sorted(truth.block_sizes()) == [2, 2, 3, 3]

    def test_determinism(self):
        spec = PpmSpec(n=60, k=3, avg_degree=10, ratio=0.3, seed=9)
        g1, t1 = generate_ppm(spec)
        g2, t2 = generate_ppm(spec)
        assert g1 == g2
        assert t1.assign == t2.assign
        g3, _ = generate_ppm(PpmSpec(n=60, k=3, avg_degree=10, ratio=0.3, seed=10))
        assert g3 != g1

    def test_no_self_loops(self):
        g, _ = generate_ppm(PpmSpec(n=50, k=2, avg_degree=8, ratio=0.5, seed=4))
        assert all(u != v for u, v, _ in g.edges)

    def test_mean_degree_calibration(self):
        degs = []
        for seed in range(50):
            g, _ = generate_ppm(PpmSpec(n=100, k=4, avg_degree=16,
                                        ratio=0.3, seed=seed))
            degs.append(sum(g.degree) / g.n)
        mean = np.mean(degs)
        assert abs(mean - 16.0) <= 0.05 * 16.0

    def test_exchangeable_blocks_carry_no_signal(self):
        # ratio 1 makes within and between rates equal; no fitter can do
        # better than chance against the planted labels
        g, truth = generate_ppm(PpmSpec(n=60, k=3, avg_degree=10,
                                        ratio=1.0, seed=8))
        scores = [nmi(truth, fit(g, FitConfig(k=3, seed=s)).partition)
                  for s in range(3)]
        assert max(scores) < 0.3

    @pytest.mark.parametrize("kwargs", [
        dict(n=100, k=4, avg_degree=16, ratio=-0.1),
        dict(n=100, k=4, avg_degree=16, ratio=1.5),
        dict(n=100, k=4, avg_degree=-1, ratio=0.2),
        dict(n=100, k=4, avg_degree=200, ratio=0.2),
        dict(n=10, k=20, avg_degree=3, ratio=0.2),
        # k == n with ratio 0, or a single node: no pair can carry an edge
        dict(n=4, k=4, avg_degree=2, ratio=0.0),
        dict(n=1, k=1, avg_degree=0.5, ratio=0.5),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PpmSpec(seed=0, **kwargs)


class TestSbm:
    def test_determinism_and_planted_shape(self):
        spec = SbmSpec(n=80, k=4, seed=11)
        g1, t1, w1 = generate_sbm(spec)
        g2, t2, w2 = generate_sbm(spec)
        assert g1 == g2 and t1.assign == t2.assign
        np.testing.assert_array_equal(w1, w2)
        assert w1.shape == (4, 4)
        np.testing.assert_array_equal(w1, w1.T)
        assert np.all(np.diag(w1) >= 0.45) and np.all(np.diag(w1) <= 0.55)
        off = w1[~np.eye(4, dtype=bool)]
        assert np.all(off >= 0.0) and np.all(off <= 0.4)

    def test_degenerate_ranges_give_pure_rates(self):
        spec = SbmSpec(n=60, k=3, diag_range=(0.5, 0.5),
                       offdiag_range=(0.0, 0.0), seed=2)
        g, truth, planted = generate_sbm(spec)
        np.testing.assert_allclose(np.diag(planted), 0.5)
        assert np.all(planted[~np.eye(3, dtype=bool)] == 0.0)
        for u, v, _ in g.edges:
            assert truth.assign[u] == truth.assign[v]

    def test_total_edges_match_poisson_expectation(self):
        # sum of independent Poissons: compare the empirical mean total
        # weight against its per-seed conditional expectation
        diffs = []
        expectations = []
        for seed in range(100):
            spec = SbmSpec(n=50, k=4, seed=seed)
            g, truth, planted = generate_sbm(spec)
            labels = np.array(truth.assign)
            iu, ju = np.triu_indices(50, k=1)
            expected = planted[labels[iu], labels[ju]].sum()
            expectations.append(expected)
            diffs.append(g.total_weight - expected)
        sigma_mean = np.sqrt(np.mean(expectations) / len(diffs))
        assert abs(np.mean(diffs)) <= 3.0 * sigma_mean

    def test_mle_recovers_planted_up_to_degree_scaling(self):
        # The generator plants plain pairwise Poisson rates; the fitted
        # degree-corrected parameters equal them only after the
        # 2m / (c_r c_s) normalization, with c_r the expected degree of
        # block-r nodes computed from the planted matrix.
        spec = SbmSpec(n=800, k=3, seed=5)
        g, truth, planted = generate_sbm(spec)
        stats = block_stats(g, truth)
        fitted = omega_mle(stats)

        sizes = np.array(truth.block_sizes(), dtype=float)
        c = planted @ sizes - np.diag(planted)  # expected block degrees
        scale = float(sizes @ c)
        target = planted * scale / np.outer(c, c)
        np.testing.assert_allclose(fitted, target, rtol=0.08, atol=0.01)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            SbmSpec(n=10, k=2, diag_range=(-0.1, 0.5))
        with pytest.raises(ValueError):
            SbmSpec(n=10, k=2, offdiag_range=(0.5, 0.1))
        for bad in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                    (-math.inf, 0.5)):
            with pytest.raises(ValueError, match="finite"):
                SbmSpec(n=10, k=2, diag_range=bad)
            with pytest.raises(ValueError, match="finite"):
                SbmSpec(n=10, k=2, offdiag_range=bad)


class TestWriteInstance:
    def test_files_round_trip(self, tmp_path):
        spec = PpmSpec(n=30, k=3, avg_degree=6, ratio=0.2, seed=7)
        g, truth = generate_ppm(spec)
        paths = write_instance(tmp_path / "inst", g, truth,
                               {"kind": "ppm", "seed": 7})
        assert load_edge_list(paths["edges"]) == g
        assert read_labels(paths["labels"]) == truth.assign
        meta = json.loads((tmp_path / "inst.json").read_text())
        assert meta["kind"] == "ppm"
        assert meta["n"] == 30
        assert meta["total_weight"] == g.total_weight
