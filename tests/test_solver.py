import hashlib
import math
import random

import numpy as np
import pytest

from acsbm import (AssortativityMode, BlockStats, OmegaSolution, Partition,
                   block_stats, is_feasible, lambda_profile_oracle,
                   log_likelihood, omega_mle, solve_constrained)
from acsbm.likelihood import _mle_cells
from acsbm.solver import (_mle_gap, _on_null_plateau, _pair_gap,
                          _strong_optimum)
from helpers import (assert_weak_optimum, numpy_log_likelihood, numpy_m_t,
                     random_block_stats, threshold_profile)


def symmetric(rows):
    w = np.array(rows, dtype=float)
    return (w + w.T) / 2


# Two block matrices of the kind produced by fits of cortical-connectivity
# data: one with diagonal minimum 1.5060 below the off-diagonal maximum
# 1.9050 (not strongly assortative), one with diagonal minimum 2.0196 above
# the off-diagonal maximum 1.7152 (strongly assortative).
OMEGA_NOT_STRONG = symmetric([[1.5060, 1.9050, 0.9, 0.8],
                              [1.9050, 2.4, 0.7, 0.6],
                              [0.9, 0.7, 2.1, 0.5],
                              [0.8, 0.6, 0.5, 3.0]])
OMEGA_STRONG = symmetric([[2.0196, 1.7152, 0.9, 0.8],
                          [1.7152, 2.4, 0.7, 0.6],
                          [0.9, 0.7, 2.1, 0.5],
                          [0.8, 0.6, 0.5, 3.0]])
# block matrices every omega validator rejects, with the error each names
MALFORMED_OMEGAS = [
    pytest.param([[1.0], [2.0]], "shape", id="column"),
    pytest.param([1.0, 2.0], "shape", id="1-d"),
    pytest.param([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]], "shape", id="2x3"),
    pytest.param([[1.0, -2.0], [-2.0, 1.0]], "nonnegative", id="negative"),
    pytest.param([[1.0, 2.0], [0.5, 1.0]], "symmetric", id="asymmetric")]

# K=2 instance whose strong optimum has a closed form: all constraints bind,
# omega == lambda everywhere, lambda* = sum(m) / sum(T) = 1, objective = -9.
BINDING_STATS = BlockStats(2, [[4, 6], [6, 2]], [10, 8], 18)

# Zero-degree block beside blocks whose closed form is strongly assortative.
ZERO_DEGREE_STATS = [
    BlockStats(3, [[194, 2, 0], [2, 194, 0], [0, 0, 0]], [196, 196, 0], 392),
    BlockStats(4, [[178, 6, 4, 0], [6, 136, 5, 0], [4, 5, 232, 0],
                   [0, 0, 0, 0]], [188, 147, 241, 0], 576),
]


def with_zero_degree_block(st: BlockStats, q: int | None = None) -> BlockStats:
    """st with a block of zero degree inserted at index q (default: last)."""
    q = st.k if q is None else q
    m = [row[:q] + [0] + row[q:] for row in st.m_block]
    m.insert(q, [0] * (st.k + 1))
    return BlockStats(st.k + 1, m, st.kappa[:q] + [0] + st.kappa[q:], st.two_m)


def with_tie(st: BlockStats, c: int) -> BlockStats:
    """Blocks 0 and 1 with equal degree and m_00 = m_01 = m_11 = c, so the
    diagonal ratio of block 0 equals the off-diagonal ratio (0, 1) exactly."""
    m = [row[:] for row in st.m_block]
    m[0][0] = m[0][1] = m[1][0] = m[1][1] = c
    for s in range(2, st.k):
        m[1][s] = m[s][1] = m[0][s]
    kappa = [sum(row) for row in m]
    return BlockStats(st.k, m, kappa, sum(kappa))


def binding_random_stats(count: int = 200, mode=AssortativityMode.STRONG,
                         ks=(2, 3, 4, 6, 8), seed: int = 59) -> list[BlockStats]:
    """Random stats whose closed form violates ``mode``'s constraints."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        st = random_block_stats(rng, rng.choice(ks))
        if not is_feasible(omega_mle(st), mode):
            out.append(st)
    return out


def large_k_cases(rng: random.Random, count: int = 12) -> list[BlockStats]:
    """Random stats at K = 12 and 16, each also with a zero-degree block and
    with a tie, all with several rows whose diagonal ratio is below another
    entry of the row."""
    cases = []
    for _ in range(count):
        st = random_block_stats(rng, rng.choice([12, 16]),
                                hi=rng.choice([20, 500, 5000]))
        cases += [st, with_zero_degree_block(st),
                  with_tie(st, 2 * rng.randint(1, 50))]
    for st in cases:
        w = omega_mle(st)
        assert sum(w[q, q] < np.delete(w[q], q).max()
                   for q in range(st.k)) >= 2
    return cases


class TestMleCells:
    def test_cells_are_the_closed_form(self):
        # the one pass against numpy's m / T and omega_mle, bit for bit, at
        # K = 1..16, zero-degree blocks and ties included
        rng = random.Random(73)
        for k in range(1, 17):
            for _ in range(8):
                st = random_block_stats(rng, k, hi=rng.choice([20, 500, 5000]))
                cases = [st, with_zero_degree_block(st)]
                if k >= 2:
                    cases.append(with_tie(st, 2 * rng.randint(1, 10)))
                for case in cases:
                    diag, off, row_max = _mle_cells(case)
                    m, t = numpy_m_t(case)
                    ratio = np.divide(m, t, out=np.zeros_like(t), where=t > 0)
                    w = omega_mle(case)
                    assert w.tobytes() == ratio.tobytes()
                    upper = np.triu_indices(case.k, 1)
                    for cells, at in ((diag, np.diag_indices(case.k)),
                                      (off, upper)):
                        assert [c[0] for c in cells] == m[at].tolist()
                        assert np.array([c[1] for c in cells]).tobytes() \
                            == t[at].tobytes()
                        assert np.array([c[2] for c in cells]).tobytes() \
                            == w[at].tobytes()
                    for q, top in enumerate(row_max):
                        assert top[2] == np.delete(w[q], q).max(initial=0.0)
                        assert top in off or top == (0, 0.0, 0.0)


# SHA-256 of the closed-form cells, both screens and the strong optimum on
# the cases of ``pieces_digest``, as computed before these functions were
# rewritten as plain loops: every value and every tie-break must stay.
PIECES_DIGEST = "2996071ed9414f112a2e035c0244426b555dbe11db7641949fe4e6260eab772e"


def pieces_digest() -> str:
    """2,000 random stats at K = 1..6 (7 with a zero-degree block inserted
    at a random index, in about a third of them); counts up to 2 or 3 make
    ratios tie often."""
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(2000):
        st = random_block_stats(rng, rng.randint(1, 6),
                                hi=rng.choice([2, 3, 4, 8, 20]))
        if rng.random() < 0.3:
            st = with_zero_degree_block(st, rng.randint(0, st.k))
        cells = _mle_cells(st)
        out = (cells, _mle_gap(cells, AssortativityMode.STRONG),
               _mle_gap(cells, AssortativityMode.WEAK),
               _strong_optimum(st, cells))
        digest.update(repr(out).encode())
    return digest.hexdigest()


class TestPieces:
    def test_pieces_bit_identical(self):
        assert pieces_digest() == PIECES_DIGEST

    def test_gap_pools_the_first_top_cell_in_row_order(self):
        # cells (0, 2) and (1, 2) tie for the top ratio 22/21 with different
        # (m, T); the strong bound pools the lowest diagonal with the first
        st = BlockStats(3, [[4, 2, 3], [2, 2, 2], [3, 2, 2]], [9, 6, 7], 22)
        diag, off, row_max = _mle_cells(st)
        first, second = off[1], off[2]
        assert first[2] == second[2] and first[:2] != second[:2]
        assert max(c[2] for c in off) == first[2]
        gap = _mle_gap((diag, off, row_max), AssortativityMode.STRONG)
        assert gap == _pair_gap(diag[2], first) != _pair_gap(diag[2], second)


class TestIsFeasible:
    def test_diagonal_matrix_is_strong(self):
        assert is_feasible([[2.0, 0.0], [0.0, 2.0]], AssortativityMode.STRONG)

    def test_reported_nonassortative_fit(self):
        assert not is_feasible(OMEGA_NOT_STRONG, AssortativityMode.STRONG, 1e-9)

    def test_reported_assortative_fit(self):
        assert is_feasible(OMEGA_STRONG, AssortativityMode.STRONG, 1e-9)

    def test_weak_vs_strong(self):
        # row-dominant diagonals, but one diagonal below another row's entry
        w = symmetric([[1.0, 0.9, 0.2], [0.9, 3.0, 1.4], [0.2, 1.4, 1.5]])
        assert is_feasible(w, AssortativityMode.WEAK, 1e-12)
        assert not is_feasible(w, AssortativityMode.STRONG, 1e-12)

    def test_none_always_true(self):
        assert is_feasible(OMEGA_NOT_STRONG, AssortativityMode.NONE)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        for mode in AssortativityMode:
            with pytest.raises(ValueError, match="finite"):
                is_feasible([[bad, 1.0], [1.0, bad]], mode)
            with pytest.raises(ValueError, match="finite"):
                is_feasible([[2.0, bad], [bad, 2.0]], mode)

    @pytest.mark.parametrize("omega, named", MALFORMED_OMEGAS)
    def test_malformed_rejected(self, omega, named):
        for mode in AssortativityMode:
            with pytest.raises(ValueError, match=named):
                is_feasible(omega, mode)

    def test_strong_implies_weak(self):
        rng = random.Random(2)
        for _ in range(50):
            k = rng.randint(1, 5)
            w = np.full((k, k), rng.random())
            for r in range(k):
                for s in range(r + 1, k):
                    w[r, s] = w[s, r] = rng.random()
                w[r, r] = 1.0 + rng.random()  # diag above every off entry
            assert is_feasible(w, AssortativityMode.STRONG, 0.0)
            assert is_feasible(w, AssortativityMode.WEAK, 0.0)

    def test_list_test_matches_closed_form_check(self):
        # the fit's list-based test of the closed form must agree exactly
        # with is_feasible on omega_mle, zero-degree blocks and ties included
        rng = random.Random(67)
        cases = []
        for _ in range(1200):
            st = random_block_stats(rng, rng.choice([1, 2, 3, 4, 6, 8]))
            cases += [st, with_zero_degree_block(st)]
            if st.k >= 2:
                tie = with_tie(st, 2 * rng.randint(1, 10))
                assert omega_mle(tie)[0, 0] == omega_mle(tie)[0, 1]
                cases.append(tie)
        cases += ZERO_DEGREE_STATS + [BINDING_STATS]
        cases += large_k_cases(random.Random(79))
        outcomes = set()
        for st in cases:
            w = omega_mle(st)
            for mode in (AssortativityMode.STRONG, AssortativityMode.WEAK):
                expected = is_feasible(w, mode, 0.0)
                assert (_mle_gap(_mle_cells(st), mode) is None) is expected, (st, mode)
                outcomes.add((mode, expected))
        assert len(outcomes) == 4

    def test_gap_bounds_the_cost_of_the_constraints(self):
        # _mle_gap never exceeds what the exact solve loses against the
        # closed form, on large counts, zero-degree blocks and ties too, and
        # at K = 12 and 16
        rng = random.Random(71)
        cases = []
        for _ in range(400):
            st = random_block_stats(rng, rng.randint(2, 8),
                                    hi=rng.choice([20, 500, 5000]))
            cases += [st, with_zero_degree_block(st),
                      with_tie(st, 2 * rng.randint(1, 50))]
        cases += large_k_cases(random.Random(83))
        binding = 0
        for case in cases:
            top = log_likelihood(case, omega_mle(case))
            for mode in (AssortativityMode.STRONG, AssortativityMode.WEAK):
                gap = _mle_gap(_mle_cells(case), mode)
                if gap is None:
                    continue
                binding += 1
                cost = top - solve_constrained(case, mode).objective
                assert 0.0 <= gap <= cost + 1e-12 * max(1.0, abs(top)), \
                    (case, mode, gap, cost)
        assert binding > 1000

    def test_gap_is_exact_for_one_violated_pair(self):
        # only omega_22 < omega_12 is violated, and pooling the two cells
        # leaves every other constraint met: the bound is the whole cost
        st = BlockStats(3, [[12, 0, 6], [0, 10, 9], [6, 9, 4]], [18, 19, 19], 56)
        top = log_likelihood(st, omega_mle(st))
        for mode in (AssortativityMode.STRONG, AssortativityMode.WEAK):
            cost = top - solve_constrained(st, mode).objective
            assert _mle_gap(_mle_cells(st), mode) == pytest.approx(cost, rel=1e-12)


class TestOracle:
    def test_binding_instance_closed_form(self):
        sol = lambda_profile_oracle(BINDING_STATS)
        assert sol.lam == pytest.approx(1.0, abs=1e-6)
        assert sol.objective == pytest.approx(-9.0, abs=1e-8)
        np.testing.assert_allclose(sol.omega, np.ones((2, 2)), atol=1e-6)

    def test_inactive_constraints_return_mle(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        sol = lambda_profile_oracle(st)
        np.testing.assert_allclose(sol.omega, omega_mle(st), atol=1e-6)
        assert sol.objective == pytest.approx(log_likelihood(st, omega_mle(st)))

    def test_no_cross_edges_zero_threshold_optimum(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        sol = lambda_profile_oracle(st)
        # off-diagonal optimum is 0 regardless of lambda
        assert sol.omega[0, 1] == pytest.approx(0.0, abs=1e-9)
        grid = max(threshold_profile(st, lam) for lam in [0.0, 0.5, 1.0, 2.0])
        assert grid <= sol.objective + 1e-12


class TestSolveConstrained:
    def test_mode_none_returns_mle(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        sol = solve_constrained(st, AssortativityMode.NONE)
        np.testing.assert_allclose(sol.omega, [[2, 0], [0, 2]])
        assert sol.iterations == 0

    def test_inactive_constraints_fast_path(self, triangle_pair, triangle_split):
        st = block_stats(triangle_pair, triangle_split)
        sol = solve_constrained(st, AssortativityMode.STRONG)
        np.testing.assert_allclose(sol.omega, [[2, 0], [0, 2]])
        assert 0.0 <= sol.lam <= 2.0
        assert sol.iterations == 0
        assert sol.objective == pytest.approx(6 * math.log(2) - 6)

    def test_binding_instance_matches_oracle(self):
        sol = solve_constrained(BINDING_STATS, AssortativityMode.STRONG)
        assert sol.converged
        assert sol.objective == pytest.approx(-9.0, abs=1e-6)
        assert sol.lam == pytest.approx(1.0, abs=1e-4)
        np.testing.assert_allclose(sol.omega, np.ones((2, 2)), atol=1e-4)
        assert is_feasible(sol.omega, AssortativityMode.STRONG, 1e-8)

    def test_oracle_equivalence_random(self):
        rng = random.Random(31)
        for _ in range(60):
            st = random_block_stats(rng, rng.randint(2, 4))
            ref = lambda_profile_oracle(st)
            sol = solve_constrained(st, AssortativityMode.STRONG)
            tol = 1e-6 * (1 + abs(ref.objective))
            assert abs(sol.objective - ref.objective) <= tol
            assert is_feasible(sol.omega, AssortativityMode.STRONG, 1e-6)
            assert is_feasible(ref.omega, AssortativityMode.STRONG, 1e-6)

    def test_dominance_ordering(self):
        rng = random.Random(37)
        for _ in range(40):
            st = random_block_stats(rng, rng.randint(2, 4))
            v_none = solve_constrained(st, AssortativityMode.NONE).objective
            v_weak = solve_constrained(st, AssortativityMode.WEAK).objective
            v_strong = solve_constrained(st, AssortativityMode.STRONG).objective
            assert v_none >= v_weak - 1e-12 * abs(v_weak)
            assert v_weak >= v_strong - 1e-12 * abs(v_strong)

    def test_weak_solution_row_feasible(self):
        rng = random.Random(41)
        for _ in range(30):
            st = random_block_stats(rng, rng.randint(2, 4))
            sol = solve_constrained(st, AssortativityMode.WEAK)
            assert is_feasible(sol.omega, AssortativityMode.WEAK, 1e-6)

    def test_objective_matches_recomputation(self):
        rng = random.Random(43)
        for mode in (AssortativityMode.STRONG, AssortativityMode.WEAK):
            for _ in range(20):
                st = random_block_stats(rng, 3)
                sol = solve_constrained(st, mode)
                recomputed = numpy_log_likelihood(st, sol.omega)
                assert abs(sol.objective - recomputed) <= 1e-9 * (1 + abs(recomputed))

    def test_weak_solve_is_exact(self):
        # the result passes the isotonic regression's optimality certificate
        weak = AssortativityMode.WEAK
        cases = binding_random_stats(mode=weak, ks=(2, 3, 4, 6), seed=71)
        cases += [with_zero_degree_block(st) for st in cases]
        for st in cases:
            sol = solve_constrained(st, weak)
            assert sol.kkt_residual == 0.0 and sol.converged
            assert_weak_optimum(st, sol.omega)
            if st.k == 2:  # two blocks: the weak and strong sets coincide
                ref = lambda_profile_oracle(st).objective
                assert abs(sol.objective - ref) <= 1e-12 * abs(ref)

    def test_strong_solve_is_exact(self):
        # the threshold walk has no tolerance: the result is feasible with
        # no slack, matches the golden-section oracle to rounding, and no
        # threshold a relative 1e-6 either side of lambda* does better
        for st in binding_random_stats():
            sol = solve_constrained(st, AssortativityMode.STRONG)
            assert is_feasible(sol.omega, AssortativityMode.STRONG, 0.0)
            assert sol.kkt_residual == 0.0 and sol.converged
            ref = lambda_profile_oracle(st)
            assert sol.objective >= ref.objective - 1e-12 * abs(ref.objective)
            lam = sol.lam
            at = threshold_profile(st, lam)
            assert threshold_profile(st, lam * (1 - 1e-6)) < at
            assert threshold_profile(st, lam * (1 + 1e-6)) <= at

    def test_strong_solve_is_the_clamped_closed_form(self):
        # omega is omega_mle with off-diagonals capped and diagonals floored
        # at lambda, bit for bit, and the objective is its log-likelihood
        rng = random.Random(61)
        cases = binding_random_stats() + ZERO_DEGREE_STATS + [
            with_zero_degree_block(random_block_stats(rng, rng.choice([1, 2, 3, 5, 7])))
            for _ in range(200)]
        for st in cases:
            sol = solve_constrained(st, AssortativityMode.STRONG)
            what = omega_mle(st)
            expected = np.minimum(what, sol.lam)
            np.fill_diagonal(expected, np.maximum(np.diag(what), sol.lam))
            assert sol.omega.tobytes() == expected.tobytes()
            ref = numpy_log_likelihood(st, sol.omega)
            assert abs(sol.objective - ref) <= 1e-13 * abs(ref)

    def test_null_plateau_is_the_all_ones_optimum(self):
        # the integer plateau test holds iff each mode's optimum is 1 on the
        # blocks with degree; a quarter of the internal edges makes the
        # plateau common beyond two blocks
        rng = random.Random(79)
        seen = set()
        for _ in range(300):
            st = random_block_stats(rng, rng.choice([2, 3, 4, 6]))
            m = [[2 * (v // 8) if r == s else v for s, v in enumerate(row)]
                 for r, row in enumerate(st.m_block)]
            kappa = [sum(row) for row in m]
            for case in (st, BlockStats(st.k, m, kappa, sum(kappa))):
                if case.two_m == 0:
                    continue
                live = np.flatnonzero(case.kappa)
                for mode in (AssortativityMode.STRONG, AssortativityMode.WEAK):
                    omega = solve_constrained(case, mode).omega[np.ix_(live, live)]
                    ones = bool(np.all(np.abs(omega - 1.0) <= 1e-12))
                    assert _on_null_plateau(case) is ones, (case, mode)
                    seen.add((case.k > 2, ones))
        assert len(seen) == 4

    def test_all_zero_stats_rejected(self):
        st = BlockStats(2, [[0, 0], [0, 0]], [0, 0], 0)
        with pytest.raises(ValueError):
            solve_constrained(st, AssortativityMode.STRONG)

    def test_single_block_unconstrained(self, triangle_pair):
        st = block_stats(triangle_pair, Partition(1, [0] * 6))
        sol = solve_constrained(st, AssortativityMode.STRONG)
        np.testing.assert_allclose(sol.omega, [[1.0]])
        assert sol.lam == 1.0
        # only strong mode has a threshold, at K = 1 as at K > 1
        for mode in (AssortativityMode.WEAK, AssortativityMode.NONE):
            sol = solve_constrained(st, mode)
            assert sol.omega.tolist() == [[1.0]] and sol.lam == 0.0

    def test_empty_block_diagonal_rides_threshold(self):
        # block 2 has no degree at all: its diagonal entry is free and must
        # settle at the threshold without breaking feasibility
        st = BlockStats(3, [[4, 6, 0], [6, 2, 0], [0, 0, 0]], [10, 8, 0], 18)
        sol = solve_constrained(st, AssortativityMode.STRONG)
        ref = lambda_profile_oracle(st)
        assert sol.objective == pytest.approx(ref.objective, abs=1e-6)
        assert is_feasible(sol.omega, AssortativityMode.STRONG, 1e-6)

    @pytest.mark.parametrize("st", ZERO_DEGREE_STATS)
    def test_zero_degree_block_beside_assortative_blocks(self, st):
        # only the zero-degree diagonal violates the constraint, so the
        # optimum is the closed form with that diagonal lifted to lambda;
        # the oracle's lambda only approaches the off-diagonal ratio, so
        # its objective is that of a feasible point, at most the optimum
        sol = solve_constrained(st, AssortativityMode.STRONG)
        assert is_feasible(sol.omega, AssortativityMode.STRONG, 0.0)
        assert sol.objective >= lambda_profile_oracle(st).objective
        assert sol.objective == log_likelihood(st, omega_mle(st))

    def test_zero_degree_block_random(self):
        rng = random.Random(61)
        for _ in range(200):
            st = with_zero_degree_block(
                random_block_stats(rng, rng.choice([1, 2, 3, 5, 7])))
            sol = solve_constrained(st, AssortativityMode.STRONG)
            assert is_feasible(sol.omega, AssortativityMode.STRONG, 0.0)
            ref = lambda_profile_oracle(st)
            assert sol.objective >= ref.objective - 1e-12 * abs(ref.objective)

    def test_larger_block_count(self):
        rng = random.Random(53)
        for _ in range(5):
            st = random_block_stats(rng, 8, hi=15)
            ref = lambda_profile_oracle(st)
            sol = solve_constrained(st, AssortativityMode.STRONG)
            assert sol.converged
            assert abs(sol.objective - ref.objective) \
                <= 1e-6 * (1 + abs(ref.objective))

    def test_weak_with_edge_free_diagonal(self):
        # block 0 has cross edges but none internal: its diagonal must rise
        # to meet its row maximum instead of sitting at the closed form 0
        st = BlockStats(2, [[0, 6], [6, 2]], [6, 8], 14)
        sol = solve_constrained(st, AssortativityMode.WEAK)
        assert sol.converged
        assert is_feasible(sol.omega, AssortativityMode.WEAK, 1e-6)
        v_none = solve_constrained(st, AssortativityMode.NONE).objective
        v_strong = solve_constrained(st, AssortativityMode.STRONG).objective
        assert v_strong - 1e-7 <= sol.objective <= v_none + 1e-7

    def test_mle_scaling_with_null_model(self):
        # quadrupling 2m scales every T_rs by 1/4 and hence the
        # unconstrained maximizer by 4 (entries with edges)
        st = BlockStats(2, [[4, 6], [6, 2]], [10, 8], 18)
        scaled = BlockStats(2, [[4, 6], [6, 2]], [10, 8], 72)
        np.testing.assert_allclose(omega_mle(scaled), 4 * omega_mle(st))


class TestOmegaSolutionContract:
    def test_lambda_brackets_solution(self):
        sol = solve_constrained(BINDING_STATS, AssortativityMode.STRONG)
        assert isinstance(sol, OmegaSolution)
        diag = np.diag(sol.omega)
        off = sol.omega[~np.eye(2, dtype=bool)]
        assert np.min(diag) >= sol.lam - 1e-8
        assert np.max(off) <= sol.lam + 1e-8
