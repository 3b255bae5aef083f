import random
import tracemalloc

import numpy as np
import pytest

from acsbm import (AssortativityMode, assortativity_level,
                   count_assortative_communities, is_feasible, nmi,
                   solve_constrained)
from helpers import dense_nmi, random_block_stats
from test_solver import MALFORMED_OMEGAS, OMEGA_NOT_STRONG, OMEGA_STRONG


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 1, 2, 0], [0, 1, 2, 0]) == pytest.approx(1.0)

    def test_label_permutation(self):
        assert nmi([0, 0, 1, 1, 2], [2, 2, 0, 0, 1]) == pytest.approx(1.0)

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_both_single_cluster(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0

    def test_one_single_cluster(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 40)
            a = [rng.randrange(rng.randint(1, 5)) for _ in range(n)]
            b = [rng.randrange(rng.randint(1, 5)) for _ in range(n)]
            v = nmi(a, b)
            assert v == pytest.approx(nmi(b, a), abs=1e-12)
            assert -1e-12 <= v <= 1 + 1e-12

    def test_relabeling_invariance(self):
        rng = random.Random(19)
        a = [rng.randrange(3) for _ in range(30)]
        b = [rng.randrange(4) for _ in range(30)]
        perm = [2, 0, 3, 1]
        assert nmi(a, [perm[x] for x in b]) == pytest.approx(nmi(a, b), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nmi([0, 1], [0, 1, 1])
        with pytest.raises(ValueError, match="empty"):
            nmi([], [])

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            nmi([-1, 0], [0, 0])

    @pytest.mark.parametrize("labels", [[0, 1.5, 1], np.array([0.0, 1.0, 1.0]),
                                        ["0", "1", "1"], [0, None, 1]])
    def test_non_integer_labels_rejected(self, labels):
        # a float label would otherwise be truncated: 1.5 read as 1
        with pytest.raises(ValueError, match="labels must be integers"):
            nmi(labels, [0, 1, 1])
        with pytest.raises(ValueError, match="labels must be integers"):
            nmi([0, 1, 1], labels)

    @pytest.mark.parametrize("labels", [[0, 1, 10**20],
                                        np.array([0, 1, 2**63 + 5], dtype=np.uint64)])
    def test_labels_beyond_int64_rejected(self, labels):
        # numpy holds 10**20 as an object and would cast 2**63 + 5 to a
        # negative int64; both are named for what they are
        for p, q in ((labels, [0, 1, 1]), ([0, 1, 1], labels)):
            with pytest.raises(ValueError, match=r"int64's range \[-2\*\*63, 2\*\*63\)"):
                nmi(p, q)

    def test_equals_dense_table_bit_for_bit(self):
        # labels drawn from a few values spread over [0, 60): most label
        # values up to the largest never occur, so the dense reference has
        # empty rows and columns that nmi's table leaves out
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 60)
            values = [rng.sample(range(60), rng.randint(1, 6)) for _ in "pq"]
            a = [rng.choice(values[0]) for _ in range(n)]
            b = [rng.choice(values[1]) for _ in range(n)]
            assert nmi(a, b) == dense_nmi(a, b)

    def test_memory_follows_node_count(self):
        # a dense table indexed by label value would hold 10**6 + 1 rows
        tracemalloc.start()
        try:
            value = nmi([0, 1, 10 ** 6], [0, 1, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == dense_nmi([0, 1, 2], [0, 1, 1])
        assert peak < 2 ** 20


class TestAssortativeCommunityCount:
    def test_diagonal_matrix(self):
        assert count_assortative_communities([[2.0, 0.0], [0.0, 2.0]]) == 2

    def test_one_dominated_row(self):
        w = np.array([[1.0, 1.5, 0.1],
                      [1.5, 2.0, 0.2],
                      [0.1, 0.2, 2.0]])
        assert count_assortative_communities(w) == 2

    def test_single_block(self):
        # a lone row has no other entry, so its off-diagonal end is 0 and a
        # negative tol acts on it as on any row
        assert count_assortative_communities([[3.0]]) == 1
        assert count_assortative_communities([[3.0]], tol=-4.0) == 0
        assert assortativity_level([[3.0]]) is AssortativityMode.STRONG

    def test_matches_row_condition(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randint(2, 5)
            w = np.random.default_rng(rng.randrange(10 ** 6)).uniform(0, 2, (k, k))
            w = (w + w.T) / 2
            expected = sum(
                1 for q in range(k)
                if all(w[q, q] >= w[q, s] - 1e-8 for s in range(k) if s != q))
            assert count_assortative_communities(w, 1e-8) == expected


@pytest.mark.parametrize("omega, named", MALFORMED_OMEGAS + [
    pytest.param([[np.inf, 1.0], [1.0, 2.0]], "finite", id="inf"),
    pytest.param([[1.0, np.nan], [np.nan, 1.0]], "finite", id="nan")])
def test_invalid_omega_rejected(omega, named):
    for classify in (count_assortative_communities, assortativity_level):
        with pytest.raises(ValueError, match=named):
            classify(omega)


class TestAssortativityLevel:
    def test_diagonal_is_strong(self):
        assert assortativity_level([[2.0, 0], [0, 2.0]]) is AssortativityMode.STRONG

    def test_reported_fits(self):
        assert assortativity_level(OMEGA_STRONG) is AssortativityMode.STRONG
        assert assortativity_level(OMEGA_NOT_STRONG) is not AssortativityMode.STRONG

    def test_weak_only(self):
        w = np.array([[1.0, 0.9, 0.2],
                      [0.9, 3.0, 1.4],
                      [0.2, 1.4, 1.5]])
        assert assortativity_level(w) is AssortativityMode.WEAK

    def test_none(self):
        w = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert assortativity_level(w) is AssortativityMode.NONE

    def test_solver_output_classifies_strong(self):
        rng = random.Random(47)
        for _ in range(30):
            st = random_block_stats(rng, rng.randint(2, 4))
            sol = solve_constrained(st, AssortativityMode.STRONG)
            assert assortativity_level(sol.omega, 1e-6) is AssortativityMode.STRONG
            assert is_feasible(sol.omega, AssortativityMode.WEAK, 1e-6)
