import random

import pytest

from helpers import random_block_stats


@pytest.mark.parametrize("k, hi", [(2, 0), (1, 1)])
def test_random_block_stats_rejects_all_zero_draws(k, hi):
    # no entry can be positive: hi = 0, or one block whose even diagonal
    # draw is at most hi = 1
    with pytest.raises(ValueError):
        random_block_stats(random.Random(0), k, hi)


@pytest.mark.parametrize("k, hi", [(2, 1), (1, 2)])
def test_random_block_stats_smallest_range(k, hi):
    assert random_block_stats(random.Random(0), k, hi).two_m > 0
