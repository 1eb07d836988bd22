"""One seed reproduces the same inputs; another seed changes them."""

import pytest

from workloads import campaign_rng, rush_inputs


def test_campaign_rng_is_a_function_of_seed_workload_and_index():
    draw = lambda *key: campaign_rng(*key).random(4).tolist()  # noqa: E731
    assert draw(7, "uci_loop", 3) == draw(7, "uci_loop", 3)
    assert draw(7, "uci_loop", 3) != draw(8, "uci_loop", 3)
    assert draw(7, "uci_loop", 3) != draw(7, "rush_hour", 3)
    assert draw(7, "uci_loop", 3) != draw(7, "uci_loop", 4)


def test_rush_inputs_repeat_for_a_seed():
    first = rush_inputs(campaign_rng(5, "rush_hour", 0), 0)
    again = rush_inputs(campaign_rng(5, "rush_hour", 0), 0)
    other = rush_inputs(campaign_rng(6, "rush_hour", 0), 0)
    assert first == again
    assert first != other


def test_rush_inputs_shift_only_with_the_campaign_index():
    # Twin campaigns (traced and untraced) get the same relative inputs
    # on fresh segments.
    a = rush_inputs(campaign_rng(5, "rush_hour", 0), 0)
    b = rush_inputs(campaign_rng(5, "rush_hour", 0), 1)
    width = b[0].grid.box.min_x - a[0].grid.box.min_x
    assert width > 0
    for left, right in zip(a, b):
        assert left.segment_id != right.segment_id
        assert [p.x + width for p in left.truth] == pytest.approx(
            [p.x for p in right.truth]
        )
        assert [p.y for p in left.truth] == [p.y for p in right.truth]
        assert len(left.reports) == len(right.reports)
        for mine, theirs in zip(left.reports, right.reports):
            assert mine.spammer == theirs.spammer
            assert [a.y for a in mine.aps] == [a.y for a in theirs.aps]


def test_rush_truth_is_well_separated_and_inside_its_segment():
    for segment in rush_inputs(campaign_rng(9, "rush_hour", 2), 2):
        box = segment.grid.box
        for i, p in enumerate(segment.truth):
            assert box.min_x <= p.x <= box.max_x
            assert box.min_y <= p.y <= box.max_y
            for q in segment.truth[i + 1:]:
                assert p.distance_to(q) >= 30.0
