import pytest

from dwdebench.stats import TAIL_BEYOND, relative_iqr, tail


def test_tail_leaves_ten_samples_beyond():
    t = tail([float(v) for v in range(1, 101)])
    assert (t.value, t.percentile, t.beyond, t.n) == (90.0, 90.0, 10, 100)


def test_tail_with_eleven_samples_is_the_minimum():
    t = tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert t.value == 1.0
    assert t.percentile == pytest.approx(100 / 11)


def test_tail_counts_ranks_not_values():
    # ties at the top still leave ten samples ranked beyond
    t = tail([1.0] * 5 + [2.0] * 20)
    assert t.value == 2.0 and t.beyond == TAIL_BEYOND and t.percentile == 60.0


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * TAIL_BEYOND)


def test_relative_iqr_uses_the_median():
    assert relative_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
