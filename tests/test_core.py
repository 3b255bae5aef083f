import random

import numpy as np
import pytest

from acsbm import (EmptyBlockMoveError, Graph, GraphFormatError, Partition,
                   apply_relocation, block_stats, load_edge_list,
                   parse_edge_list, read_labels, write_edge_list, write_labels)
from helpers import legal_moves, numpy_m_t, random_graph, random_partition


def brute_force_stats(graph, partition):
    """Independent oracle: block sums over the dense adjacency matrix."""
    a = graph.adjacency_matrix()
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

    def test_id_beyond_declared_count_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("n 2\n0 5\n")

    def test_one_based_input(self):
        g = parse_edge_list("1 2\n2 3\n", index_base=1)
        assert g.n == 3
        assert g.edges == ((0, 1, 1), (1, 2, 1))
        with pytest.raises(TypeError):  # the base is keyword-only
            parse_edge_list("1 2\n2 3\n", 1)

    @pytest.mark.parametrize("text", ["0 x\n", "0\n", "0 1 2 3\n",
                                      "0 1 1.5\n", "-1 2\n", "0 1 -2\n"])
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

    def test_same_block_rejected(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        for b in (0, -1, 2):
            with pytest.raises(ValueError):
                apply_relocation(st, triangle_pair, triangle_split, 0, b)
