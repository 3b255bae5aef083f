import itertools
import math
import random

import numpy as np
import pytest

from acsbm import (Graph, Partition, block_stats, log_likelihood, modularity,
                   omega_mle, profile_log_likelihood, profile_offset)
from helpers import random_block_stats, random_graph, random_partition


def relabel(stats, perm):
    """Stats under a block permutation; independent of any kernel code."""
    k = stats.k
    m = [[stats.m_block[perm[r]][perm[s]] for s in range(k)] for r in range(k)]
    kappa = [stats.kappa[perm[r]] for r in range(k)]
    return type(stats)(k, m, kappa, stats.two_m)


class TestLogLikelihood:
    def test_triangle_pair_value(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        expected = 6 * math.log(2) - 6  # m_rr = 6, omega_rr = 2, T_rr = 3
        assert log_likelihood(st, [[2, 0], [0, 2]]) == pytest.approx(expected, abs=1e-12)

    def test_single_block_unit_omega(self, triangle_pair):
        st = block_stats(triangle_pair, Partition(1, [0] * 6))
        assert log_likelihood(st, [[1.0]]) == pytest.approx(-6.0)

    def test_zero_omega_with_edges_is_minus_inf(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        assert log_likelihood(st, [[0.0, 0.0], [0.0, 2.0]]) == -math.inf

    def test_zero_off_diagonal_omega_with_edges_is_minus_inf(self):
        # m_01 = 1 between the blocks, m_rr = 0 on the diagonal
        st = block_stats(Graph(2, [(0, 1, 1)]), Partition(2, [0, 1]))
        assert log_likelihood(st, [[1.0, 0.0], [0.0, 1.0]]) == -math.inf
        assert log_likelihood(st, [[0.0, 1.0], [1.0, 0.0]]) > -math.inf

    def test_asymmetric_or_negative_rejected(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        with pytest.raises(ValueError):
            log_likelihood(st, [[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            log_likelihood(st, [[1.0, -0.1], [-0.1, 1.0]])
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                log_likelihood(st, [[bad, 0.5], [0.5, 1.0]])
            with pytest.raises(ValueError, match="finite"):
                log_likelihood(st, [[1.0, bad], [bad, 1.0]])


class TestOmegaMle:
    def test_triangle_pair(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        np.testing.assert_allclose(omega_mle(st), [[2, 0], [0, 2]])

    def test_single_block(self, triangle_pair):
        st = block_stats(triangle_pair, Partition(1, [0] * 6))
        np.testing.assert_allclose(omega_mle(st), [[1.0]])

    def test_single_cross_edge(self):
        st = block_stats(Graph(2, [(0, 1, 1)]), Partition(2, [0, 1]))
        np.testing.assert_allclose(omega_mle(st), [[0, 2], [2, 0]])

    def test_empty_block_entries_are_zero(self):
        st = block_stats(Graph(3, [(0, 1, 1)]), Partition(2, [0, 0, 1]))
        w = omega_mle(st)
        assert w[1, 1] == 0.0 and w[0, 1] == 0.0

    def test_stationarity_under_perturbation(self):
        rng = random.Random(5)
        for _ in range(40):
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
                        assert log_likelihood(st, pert) < base


class TestProfile:
    def test_single_block_closed_form(self, triangle_pair):
        st = block_stats(triangle_pair, Partition(1, [0] * 6))
        assert profile_log_likelihood(st) == pytest.approx(-6 * math.log(12))

    def test_offset_links_profile_to_full(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        full = log_likelihood(st, omega_mle(st))
        prof = profile_log_likelihood(st)
        assert prof + profile_offset(st.two_m) == pytest.approx(full, abs=1e-12)

    def test_differences_match_full_likelihood(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(4, 24)
            g = random_graph(rng, n, loops=True)
            k = rng.randint(1, 4)
            pa = random_partition(rng, n, k)
            pb = random_partition(rng, n, k)
            sa, sb = block_stats(g, pa), block_stats(g, pb)
            d_prof = profile_log_likelihood(sa) - profile_log_likelihood(sb)
            d_full = log_likelihood(sa, omega_mle(sa)) - log_likelihood(sb, omega_mle(sb))
            assert abs(d_prof - d_full) <= 1e-9 * max(1.0, abs(d_prof))

    def test_permutation_invariance_of_all_kernels(self):
        rng = random.Random(29)
        for _ in range(30):
            k = rng.randint(2, 8)
            st = random_block_stats(rng, k, hi=2000)
            perm = list(range(k))
            rng.shuffle(perm)
            other = relabel(st, perm)
            assert profile_log_likelihood(other) == pytest.approx(
                profile_log_likelihood(st), abs=1e-12)
            assert modularity(other) == pytest.approx(modularity(st), abs=1e-12)
            w = omega_mle(st)
            wp = omega_mle(other)
            np.testing.assert_allclose(wp, w[np.ix_(perm, perm)])
            assert log_likelihood(other, wp) == log_likelihood(st, w)


class TestModularity:
    def test_triangle_pair(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        assert modularity(st) == pytest.approx(0.5)

    def test_single_block_is_zero(self, triangle_pair):
        st = block_stats(triangle_pair, Partition(1, [0] * 6))
        assert modularity(st) == pytest.approx(0.0)

    def test_mean_over_all_assignments_near_zero(self, triangle_pair):
        vals = [modularity(block_stats(triangle_pair, Partition(2, list(a))))
                for a in itertools.product(range(2), repeat=6)]
        mean = sum(vals) / len(vals)
        assert mean == pytest.approx(-1 / 12, abs=1e-12)  # enumeration oracle
        assert abs(mean) < 0.1
