import numpy as np
import pytest
from hypothesis import given, strategies as st

from topkflip.ranking import rank_descending, resolve_kappa


def test_simple_ordering():
    ranks = rank_descending(np.array([3.0, 1.0, 2.0]))
    assert list(ranks) == [1, 3, 2]
    assert list(ranks <= 2) == [True, False, True]


def test_index_tie_break_is_deterministic():
    # equal scores: the earlier row wins, ranks stay a permutation
    ranks = rank_descending(np.array([5.0, 5.0, 1.0]))
    assert list(ranks) == [1, 2, 3]
    assert list(ranks <= 1) == [True, False, False]


def test_tie_at_boundary_selects_exactly_kappa():
    top = rank_descending(np.array([2.0, 1.0, 1.0, 0.0])) <= 2
    assert int(top.sum()) == 2
    assert top[0]


def test_ranks_match_a_two_key_sort_on_tie_heavy_scores(rng):
    """One stable sort of the negated scores orders rows as sorting by score
    descending and then by index does: ties, -0.0 against 0.0 included."""
    for _ in range(200):
        n = int(rng.integers(1, 80))
        scores = rng.choice([-2.0, -1e-300, -0.0, 0.0, 0.5, 3.0], size=n)
        order = np.lexsort((np.arange(n), -scores))
        want = np.empty(n, dtype=np.int64)
        want[order] = np.arange(1, n + 1)
        np.testing.assert_array_equal(rank_descending(scores), want)


scores_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


@given(scores_strategy, st.integers(min_value=1, max_value=60))
def test_flags_count_and_rank_consistency(scores, kappa):
    scores = np.array(scores)
    kappa = min(kappa, len(scores))
    ranks = rank_descending(scores)
    top = ranks <= kappa
    assert int(top.sum()) == kappa
    # a selected score is never strictly below an unselected one
    if kappa < len(scores):
        assert scores[top].min() >= scores[~top].max() - 1e-9
    # ranks are a permutation of 1..n and the stable-sort leader is rank 1
    assert sorted(ranks) == list(range(1, len(scores) + 1))
    order = np.argsort(-scores, kind="stable")
    assert ranks[order[0]] == 1


def test_resolve_kappa_forms():
    assert resolve_kappa(5, 100) == 5
    assert resolve_kappa("3%", 583) == 18  # ceil of 17.49
    assert resolve_kappa("10%", 7) == 1


@pytest.mark.parametrize("bad", [0, -3, "0%", "abc", "150%", 101, "top 10%"])
def test_resolve_kappa_rejects(bad):
    with pytest.raises(ValueError):
        resolve_kappa(bad, 100)
