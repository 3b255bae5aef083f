import copy
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from acsbm import (FitConfig, Graph, PpmSpec, SbmSpec, block_stats, fit,
                   generate_ppm, generate_sbm, load_edge_list, nmi,
                   omega_mle, ppm_rates, read_labels, write_instance)
from acsbm import generators
from helpers import one_shot_pair_graph


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
        with pytest.raises(ValueError, match="k <= n"):
            SbmSpec(n=3, k=4)
        for spec in ({"n": 10, "k": 2, "diag_range": (0.0, 0.0),
                      "offdiag_range": (0.0, 0.0)},
                     {"n": 10, "k": 1, "diag_range": (0.0, 0.0)},
                     {"n": 1, "k": 1}):
            with pytest.raises(ValueError, match="no node pair"):
                SbmSpec(**spec)


# SHA-256 of the instances below (edges, labels and the SBM's planted
# omega) as sampled before the PPM and the SBM shared one Poisson sampler:
# the n = 100 acceptance fixtures, the two n = 1000 PPM instances of the
# scale benchmark and the SBM ensemble's first two datasets.  A change to
# the generators must keep every instance bit for bit.
INSTANCE_DIGEST = "2f4cea7c1cdc35fe863873bbd12ddeed8545db519bbfb8e90adc1fbdc77c05f7"


def instance_digest() -> str:
    specs = [PpmSpec(n=100, k=4, avg_degree=16.0, ratio=ratio, seed=seed)
             for seed, ratio in ((1200, 0.10), (1201, 0.25), (1202, 0.60))]
    specs += [PpmSpec(n=1000, k=4, avg_degree=16.0, ratio=ratio, seed=seed)
              for seed, ratio in ((7000, 0.10), (7001, 0.25))]
    specs += [SbmSpec(n=100, k=4, seed=seed) for seed in (2000, 2001)]
    digest = hashlib.sha256()
    for spec in specs:
        generate = generate_ppm if isinstance(spec, PpmSpec) else generate_sbm
        graph, truth, *planted = generate(spec)
        digest.update(json.dumps([graph.n, graph.edges, truth.k, truth.assign,
                                  [w.tolist() for w in planted]]).encode())
    return digest.hexdigest()


def test_instances_bit_identical():
    assert instance_digest() == INSTANCE_DIGEST


# A block holds whole rows of pairs.  Limits of 1 (one row per block), of
# the first row's pairs and one either side at n = 100 and n = 1000, and a
# prime that takes several rows.
@pytest.mark.parametrize("block", [1, 99, 100, 101, 999, 1000, 1001, 7919])
def test_instances_independent_of_block_size(monkeypatch, block):
    monkeypatch.setattr(generators, "_BLOCK_PAIRS", block)
    assert instance_digest() == INSTANCE_DIGEST


@pytest.mark.parametrize("block", [None, 1, 299, 300, 7919])
def test_sbm_matches_one_shot_draw(monkeypatch, block):
    # the graph generate_sbm returns equals one poisson call over every
    # pair, drawn from the generator's state as the pairs are reached
    if block is not None:
        monkeypatch.setattr(generators, "_BLOCK_PAIRS", block)
    seen = {}
    sampler = generators._poisson_pair_graph

    def spy(labels, omega, rng):
        seen.update(labels=labels.copy(), omega=omega.copy(),
                    state=copy.deepcopy(rng.bit_generator.state))
        return sampler(labels, omega, rng)

    monkeypatch.setattr(generators, "_poisson_pair_graph", spy)
    graph, truth, _ = generate_sbm(SbmSpec(n=300, k=5, seed=2024))
    assert seen["labels"].tolist() == truth.assign
    assert np.any(np.diff(seen["labels"]) < 0)  # unsorted labels
    rng = np.random.default_rng()
    rng.bit_generator.state = seen["state"]
    assert graph == one_shot_pair_graph(seen["labels"], seen["omega"], rng)


def _grid_instances():
    """(graph, labels, omega, seed) over n in {2, 3, 100, 257}, k in
    {1, 2, 4, 7}: PPMs at ratio 0 and 1 and an SBM whose diagonal rates
    reach 30 (rates >= 10 take numpy's other Poisson algorithm)."""
    for n in (2, 3, 100, 257):
        for k in (kk for kk in (1, 2, 4, 7) if kk <= n):
            for ratio in (0.0, 1.0):
                if k == n and ratio == 0.0:
                    continue  # no pair can carry an edge
                spec = PpmSpec(n=n, k=k, avg_degree=min(8.0, n / 2), ratio=ratio,
                               seed=n + k)
                graph, truth = generate_ppm(spec)
                p_in, p_out = ppm_rates(n, k, spec.avg_degree, ratio)
                omega = np.where(np.eye(k, dtype=bool), p_in, p_out)
                yield graph, np.array(truth.assign), omega, spec.seed
            spec = SbmSpec(n=n, k=k, diag_range=(10.0, 30.0), seed=n * k)
            graph, truth, planted = generate_sbm(spec)
            yield graph, np.array(truth.assign), planted, spec.seed


@pytest.mark.parametrize("block", [None, 1, 7919])
def test_generated_graphs_match_checking_constructor(monkeypatch, block):
    # a sampled graph skips Graph's checks: every field must equal the one
    # the checking constructor derives from its edges, and the sampler's
    # edges the one-shot draw's
    if block is not None:
        monkeypatch.setattr(generators, "_BLOCK_PAIRS", block)
    unsorted = 0
    for graph, labels, omega, seed in _grid_instances():
        checked = Graph(graph.n, list(graph.edges))
        for field in ("edges", "degree", "total_weight", "adjacency", "self_weight"):
            assert getattr(graph, field) == getattr(checked, field), field
        assert all(type(x) is int for edge in graph.edges for x in edge)
        edges = generators._poisson_pair_counts(labels, omega, np.random.default_rng(seed))
        assert edges == one_shot_pair_graph(labels, omega, np.random.default_rng(seed)).edges
        unsorted += bool(np.any(np.diff(labels) < 0))
    assert unsorted


def test_generation_memory_bounded():
    # working memory is one block of pairs besides the graph: drawing all
    # n(n-1)/2 pairs in one call peaks near 15 MiB here
    spec = PpmSpec(n=1000, k=4, avg_degree=16, ratio=0.25, seed=7001)
    tracemalloc.start()
    try:
        generate_ppm(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


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
