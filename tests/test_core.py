import random
import tracemalloc

import numpy as np
import pytest

from acsbm import (EmptyBlockMoveError, ExperimentPlan, FitConfig, Graph,
                   GraphFormatError, Partition, PpmSpec, SbmSpec,
                   apply_relocation, block_stats, generate_ppm, load_edge_list,
                   multi_start, parse_edge_list, read_labels, write_edge_list,
                   write_labels)
from helpers import (dense_adjacency, legal_moves, numpy_m_t, random_graph,
                     random_partition)


def brute_force_stats(graph, partition):
    """Independent oracle: block sums over the dense adjacency matrix."""
    a = dense_adjacency(graph)
    k = partition.k
    z = np.zeros((graph.n, k), dtype=np.int64)
    z[np.arange(graph.n), partition.assign] = 1
    m = z.T @ a @ z
    kappa = a.sum(axis=1) @ z
    return m, kappa


class TestParse:
    def test_path_graph(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert (g.n, g.total_weight) == (3, 2)
        assert g.degree == (1, 2, 1)

    def test_self_loop_convention(self):
        g = parse_edge_list("0 0 2\n")
        assert (g.n, g.total_weight) == (1, 2)
        assert g.degree == (4,)

    def test_repeated_lines_accumulate(self):
        g = parse_edge_list("0 1\n1 0 2\n0 1\n")
        assert g.edges == ((0, 1, 4),)

    def test_comments_blank_lines_default_weight(self):
        g = parse_edge_list("# header\n\n0 1\n# trailing\n2 3 5\n")
        assert g.edges == ((0, 1, 1), (2, 3, 5))

    def test_declared_node_count_allows_isolated(self):
        g = parse_edge_list("n 5\n0 1\n")
        assert g.n == 5
        assert g.degree == (1, 1, 0, 0, 0)
        assert parse_edge_list("n 5\n0 1\nn 5\n") == g  # a repeat that agrees

    def test_id_beyond_declared_count_rejected(self):
        # Graph's own range check, which every constructed graph passes
        with pytest.raises(GraphFormatError, match="node id 5 out of range for n=2"):
            parse_edge_list("n 2\n0 5\n")

    def test_index_base_must_be_0_or_1(self):
        with pytest.raises(ValueError, match="^index_base must be 0 or 1, got 2$"):
            parse_edge_list("0 1", index_base=2)

    @pytest.mark.parametrize("text, base, message", [
        ("0 1\n", 1, "negative node id"), ("-5 -3\n", 0, "negative node id"),
        ("0 1 -2\n", 0, "negative weight")])
    def test_graph_checks_parsed_entries(self, text, base, message):
        # the parser leaves these checks to Graph, the one edge validator
        with pytest.raises(GraphFormatError, match=message):
            parse_edge_list(text, index_base=base)

    def test_one_based_input(self):
        g = parse_edge_list("1 2\n2 3\n", index_base=1)
        assert g.n == 3
        assert g.edges == ((0, 1, 1), (1, 2, 1))
        with pytest.raises(TypeError):  # the base is keyword-only
            parse_edge_list("1 2\n2 3\n", 1)

    @pytest.mark.parametrize("text", ["0 x\n", "0\n", "0 1 2 3\n",
                                      "0 1 1.5\n", "-1 2\n", "0 1 -2\n",
                                      # node-count directives
                                      "n 3 4\n0 1\n", "n x\n0 1\n",
                                      "n 3\n0 1\nn 4\n"])
    def test_malformed_rejected(self, text):
        with pytest.raises(GraphFormatError):
            parse_edge_list(text)

    def test_zero_weight_entries_dropped(self):
        g = parse_edge_list("0 1 0\n1 2 1\n")
        assert g.edges == ((1, 2, 1),)
        assert g.n == 3

    def test_bytes_input(self):
        assert parse_edge_list(b"0 1\n").total_weight == 1

    def test_degree_sum_is_2m(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 25), loops=True)
            assert sum(g.degree) == 2 * g.total_weight


def test_equal_graphs_hash_equal():
    # canonical edges: order, orientation and a pair split in two do not count
    g = Graph(4, [(0, 1, 2), (1, 2, 1), (3, 3, 1)])
    same = Graph(4, [(3, 3, 1), (1, 0, 1), (2, 1, 1), (0, 1, 1)])
    assert same == g and hash(same) == hash(g)
    assert {g: "first", same: "second"} == {g: "second"}
    assert Graph(4, [(0, 1, 1)]) != g and Graph(5, g.edges) != g
    assert repr(g) == "Graph(n=4, edges=3, m=4)"


@pytest.mark.parametrize("n, edges", [
    (-1, []), (3, [(0, 1.5, 1)]), (3, [(0, 1, "2")]), (3, [(-1, 0, 1)]),
    (3, [(0, 3, 1)]), (3, [(0, 1, -1)]), (2.5, [])])
def test_graph_rejects_invalid_input(n, edges):
    with pytest.raises(GraphFormatError):
        Graph(n, edges)


_EDGE = Graph(2, [(0, 1, 1)])


@pytest.mark.parametrize("build, error", [
    (lambda: Partition(2.0, [0, 1]), "k must be an integer"),
    (lambda: FitConfig(k=2.5), "k must be an integer"),
    (lambda: PpmSpec(n=10.5, k=2, avg_degree=3.0, ratio=0.5), "n must be an integer"),
    (lambda: PpmSpec(n=10, k=2.0, avg_degree=3.0, ratio=0.5), "k must be an integer"),
    (lambda: SbmSpec(n=10.0, k=2), "n must be an integer"),
    (lambda: SbmSpec(n=10, k=2.0), "k must be an integer"),
    (lambda: multi_start(_EDGE, FitConfig(k=1), runs=2.0), "runs must be an integer"),
    (lambda: multi_start(_EDGE, FitConfig(k=1), runs=2, workers=1.0),
     "workers must be an integer"),
    # seeds are integers >= 0: random.Random(-s) seeds like random.Random(s)
    (lambda: FitConfig(k=2, seed=1.5), "seed must be an integer"),
    (lambda: FitConfig(k=2, seed=-2), "seed must be >= 0"),
    (lambda: PpmSpec(n=10, k=2, avg_degree=3.0, ratio=0.5, seed=1.5),
     "seed must be an integer"),
    (lambda: SbmSpec(n=10, k=2, seed=-1), "seed must be >= 0"),
    (lambda: ExperimentPlan(kind="ppm-sweep", fit_seed=-1), "fit_seed must be >= 0"),
    (lambda: ExperimentPlan(kind="ppm-sweep", instance_seed=1.5),
     "instance_seed must be an integer"),
], ids=["partition-k", "fitconfig-k", "ppm-n", "ppm-k", "sbm-n", "sbm-k",
        "multi-start-runs", "multi-start-workers", "fitconfig-seed-float",
        "fitconfig-seed-negative", "ppm-seed-float", "sbm-seed-negative",
        "plan-fit-seed-negative", "plan-instance-seed-float"])
def test_counts_must_be_integers(build, error):
    # each count and seed is checked where it is given, not where it is
    # first used
    with pytest.raises(ValueError, match=f"^{error}, got "):
        build()


@pytest.mark.parametrize("build, name", [
    (lambda: FitConfig(k=True), "k"),
    (lambda: multi_start(_EDGE, FitConfig(k=1), runs=True), "runs"),
    (lambda: ExperimentPlan(kind="ppm-sweep", runs=True), "runs"),
    (lambda: ExperimentPlan(kind="sbm-ensemble", fit_seed=False), "fit_seed"),
], ids=["fitconfig-k", "multi-start-runs", "plan-runs", "plan-fit-seed"])
def test_booleans_are_not_counts(build, name):
    # bool subclasses int, so operator.index alone would take True as 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got (True|False)$"):
        build()


def test_graph_build_memory_near_result():
    # the merge dict is freed before the adjacency is built, so the peak is
    # little above what the graph keeps (all three alive at once: 1.5x)
    g, _ = generate_ppm(PpmSpec(n=1000, k=4, avg_degree=16, ratio=0.25,
                                seed=7001))
    edges = list(g.edges)
    tracemalloc.start()
    try:
        built = Graph(g.n, edges)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built == g
    assert peak <= 1.3 * kept


class TestRoundTrip:
    def test_edge_list(self, tmp_path, triangle_pair):
        path = tmp_path / "g.edges"
        write_edge_list(triangle_pair, path)
        assert load_edge_list(path) == triangle_pair

    def test_isolated_nodes_survive(self, tmp_path):
        g = Graph(4, [(0, 1, 2)])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert load_edge_list(path).n == 4

    def test_labels(self, tmp_path):
        path = tmp_path / "p.labels"
        write_labels([0, 2, 1, 1], path)
        assert read_labels(path) == [0, 2, 1, 1]
        path.write_text("0\n# a comment\n1.5\n")
        with pytest.raises(GraphFormatError, match="line 3: malformed label"):
            read_labels(path)


class TestBlockStats:
    def test_triangle_pair(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        assert st.m_block == [[6, 0], [0, 6]]
        assert st.kappa == [6, 6]
        np.testing.assert_allclose(numpy_m_t(st)[1], [[3, 3], [3, 3]])

    def test_single_block_collapse(self, triangle_pair):
        st = block_stats(triangle_pair, Partition(1, [0] * 6))
        assert st.m_block == [[12]]
        assert st.kappa == [12]

    @pytest.mark.parametrize("k, assign", [(0, []), (2, [0, 2]), (2, [-1, 0]),
                                           (2, [0, 1.5]), (2, [0, "1"])])
    def test_invalid_partition_rejected(self, k, assign):
        with pytest.raises(ValueError):
            Partition(k, assign)

    def test_size_mismatch_rejected(self, triangle_pair):
        with pytest.raises(ValueError, match="5 nodes, graph has 6"):
            block_stats(triangle_pair, Partition(1, [0] * 5))

    def test_single_cross_edge(self):
        g = Graph(2, [(0, 1, 1)])
        st = block_stats(g, Partition(2, [0, 1]))
        assert st.m_block == [[0, 1], [1, 0]]
        np.testing.assert_allclose(numpy_m_t(st)[1], [[0.5, 0.5], [0.5, 0.5]])

    def test_matches_dense_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 20)
            g = random_graph(rng, n, loops=True)
            p = random_partition(rng, n, rng.randint(1, 4))
            st = block_stats(g, p)
            m, kappa = brute_force_stats(g, p)
            assert st.m_block == m.tolist()
            assert st.kappa == kappa.tolist()
            assert st.two_m == sum(st.kappa)


class TestApplyRelocation:
    def test_equals_recomputation_on_random_moves(self):
        rng = random.Random(23)
        checked = 0
        while checked < 1000:
            n = rng.randint(3, 18)
            k = rng.randint(2, 4)
            g = random_graph(rng, n, loops=True)
            p = random_partition(rng, n, k, surjective=n >= k)
            moves = legal_moves(p)
            if not moves:
                continue
            i, b = rng.choice(moves)
            st = apply_relocation(block_stats(g, p), g, p, i, b)
            q = p.copy()
            q.assign[i] = b
            fresh = block_stats(g, q)
            assert st.m_block == fresh.m_block
            assert st.kappa == fresh.kappa
            assert st.two_m == fresh.two_m
            checked += 1

    def test_involution(self, triangle_pair, triangle_split):
        st0 = block_stats(triangle_pair, triangle_split)
        st1 = apply_relocation(st0, triangle_pair, triangle_split, 0, 1)
        moved = triangle_split.copy()
        moved.assign[0] = 1
        st2 = apply_relocation(st1, triangle_pair, moved, 0, 0)
        assert st2.m_block == st0.m_block
        assert st2.kappa == st0.kappa

    def test_isolated_node_changes_nothing(self):
        g = Graph(4, [(0, 1, 1)])
        p = Partition(2, [0, 0, 1, 1])
        st = block_stats(g, p)
        moved = apply_relocation(st, g, p, 3, 0)
        assert moved.kappa == st.kappa
        assert moved.m_block == st.m_block

    def test_emptying_move_signalled(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        p = Partition(2, [0, 0, 1])
        with pytest.raises(EmptyBlockMoveError):
            apply_relocation(block_stats(g, p), g, p, 2, 0)

    @pytest.mark.parametrize("i, assign, match", [
        (-1, [0, 0, 1, 1], "node id -1"), (4, [0, 0, 1, 1], "node id 4"),
        (-4, [0, 0, 1, 1], "node id -4"),
        (0, [0, 0, 1, 1, 1], "partition covers 5 nodes")],
        ids=["node -1", "node 4", "node -4", "5-entry partition"])
    def test_node_outside_graph_rejected(self, i, assign, match):
        # checked before the partition is read: -1 and -4 would index from
        # the end, 4 past it, and a longer partition would be read as is
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        st = block_stats(g, Partition(2, [0, 0, 1, 1]))
        with pytest.raises(ValueError, match=match):
            apply_relocation(st, g, Partition(2, assign), i, 0 if i else 1)

    def test_same_block_rejected(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        for b in (0, -1, 2):
            with pytest.raises(ValueError):
                apply_relocation(st, triangle_pair, triangle_split, 0, b)
