"""Unit tests for completeness and runtime metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, Semantics
from repro.core.metrics import (
    CompletenessReport,
    RuntimeStats,
    evaluate_schedule,
    gained_completeness,
    percent_of_upper_bound,
    relative_performance,
)
from repro.core.profile import ProfileSet
from repro.core.schedule import Schedule
from tests.conftest import make_cei, make_ei, make_profiles


class TestEvaluateSchedule:
    def test_full_capture(self):
        profiles = make_profiles(make_cei((0, 0, 2), (1, 3, 5)))
        schedule = Schedule.from_pairs([(0, 1), (1, 4)])
        report = evaluate_schedule(profiles, schedule)
        assert report.completeness == 1.0
        assert report.captured_ceis == 1
        assert report.captured_eis == 2

    def test_partial_capture_not_counted(self):
        profiles = make_profiles(make_cei((0, 0, 2), (1, 3, 5)))
        schedule = Schedule.from_pairs([(0, 1)])
        report = evaluate_schedule(profiles, schedule)
        assert report.completeness == 0.0
        assert report.ei_completeness == 0.5

    def test_empty_profiles_complete(self):
        report = evaluate_schedule(ProfileSet(), Schedule())
        assert report.completeness == 1.0
        assert report.ei_completeness == 1.0

    def test_per_rank_breakdown(self):
        profiles = make_profiles(
            make_cei((0, 0, 0)),
            make_cei((1, 1, 1), (2, 2, 2)),
        )
        schedule = Schedule.from_pairs([(0, 0)])
        report = evaluate_schedule(profiles, schedule)
        assert report.completeness_at_rank(1) == 1.0
        assert report.completeness_at_rank(2) == 0.0
        assert report.completeness_at_rank(9) == 1.0  # vacuous

    def test_weighted_completeness(self):
        profiles = make_profiles(
            make_cei((0, 0, 0), weight=3.0),
            make_cei((1, 1, 1), weight=1.0),
        )
        schedule = Schedule.from_pairs([(0, 0)])
        report = evaluate_schedule(profiles, schedule)
        assert report.weighted_completeness == pytest.approx(0.75)
        assert report.completeness == pytest.approx(0.5)

    def test_true_window_scoring_used_by_default(self):
        ei = make_ei(0, 0, 2, true_start=5, true_finish=7)
        profiles = make_profiles(ComplexExecutionInterval(eis=(ei,)))
        schedule = Schedule.from_pairs([(0, 1)])
        assert evaluate_schedule(profiles, schedule).completeness == 0.0
        assert (
            evaluate_schedule(profiles, schedule, use_true_window=False).completeness
            == 1.0
        )

    def test_k_of_n_scoring(self):
        c = ComplexExecutionInterval(
            eis=(make_ei(0, 0, 0), make_ei(1, 1, 1), make_ei(2, 2, 2)),
            semantics=Semantics.AT_LEAST,
            required=2,
        )
        profiles = make_profiles(c)
        assert gained_completeness(profiles, Schedule.from_pairs([(0, 0), (1, 1)])) == 1.0
        assert gained_completeness(profiles, Schedule.from_pairs([(0, 0)])) == 0.0

    def test_gained_completeness_shortcut(self):
        profiles = make_profiles(make_cei((0, 0, 0)))
        assert gained_completeness(profiles, Schedule.from_pairs([(0, 0)])) == 1.0

    @pytest.mark.parametrize("pairs", [[], [(0, 1)], [(1, 1)]])
    def test_missing_true_window_raises(self, pairs):
        ei = make_ei(0, 0, 2)
        profiles = make_profiles(ComplexExecutionInterval(eis=(ei,)))
        ei.true_start = None
        schedule = Schedule.from_pairs(pairs)
        with pytest.raises(ModelError, match="no ground-truth window"):
            evaluate_schedule(profiles, schedule)
        evaluate_schedule(profiles, schedule, use_true_window=False)


def brute_force_report(profiles, schedule, use_true_window, dropped):
    """Eq. 1 straight from the definition: one indicator per EI."""
    num_eis = captured_eis = captured_ceis = 0
    weight_total = weight_captured = 0.0
    per_rank: dict[int, list[int]] = {}
    ceis = list(profiles.ceis())
    for cei in ceis:
        weight_total += cei.weight
        bucket = per_rank.setdefault(cei.rank, [0, 0])
        bucket[0] += 1
        hits = sum(
            schedule.captures_ei(ei, use_true_window=use_true_window, dropped=dropped)
            for ei in cei.eis
        )
        num_eis += len(cei.eis)
        captured_eis += hits
        if cei.satisfied_by_count(hits):
            captured_ceis += 1
            weight_captured += cei.weight
            bucket[1] += 1
    return CompletenessReport(
        num_ceis=len(ceis),
        captured_ceis=captured_ceis,
        num_eis=num_eis,
        captured_eis=captured_eis,
        weight_total=weight_total,
        weight_captured=weight_captured,
        per_rank={rank: (t, c) for rank, (t, c) in per_rank.items()},
    )


RESOURCES = 3
HORIZON = 12


@st.composite
def scored_instances(draw):
    """Random profiles, a schedule and per-EI drops to score them with."""
    ceis = []
    for _ in range(draw(st.integers(0, 6))):
        eis = []
        for _ in range(draw(st.integers(1, 4))):
            resource = draw(st.integers(0, RESOURCES - 1))
            start = draw(st.integers(0, HORIZON - 1))
            ei = make_ei(resource, start, draw(st.integers(start, HORIZON - 1)))
            # A shifted EI schedules away from its (unmoved) true window.
            offset = draw(st.integers(-3, 3))
            eis.append(ei.shifted(offset) if offset else ei)
        semantics = draw(st.sampled_from(list(Semantics)))
        required = (
            draw(st.integers(1, len(eis))) if semantics is Semantics.AT_LEAST else 0
        )
        ceis.append(ComplexExecutionInterval(
            eis=tuple(eis),
            semantics=semantics,
            required=required,
            weight=draw(st.sampled_from([1.0, 0.5, 2.5])),
        ))
    pairs = draw(st.sets(st.tuples(
        st.integers(0, RESOURCES - 1), st.integers(0, HORIZON + 2)
    )))
    triples = sorted(
        (resource, chronon, ei.seq)
        for resource, chronon in pairs
        for cei in ceis
        for ei in cei.eis
        if ei.resource == resource
    )
    dropped = draw(st.sets(st.sampled_from(triples))) if triples else set()
    profiles = ProfileSet.from_ceis(ceis, per_profile=2)
    return profiles, Schedule.from_pairs(pairs), dropped


@settings(max_examples=200, deadline=None)
@given(instance=scored_instances(), use_true_window=st.booleans())
def test_property_indexed_scoring_matches_brute_force(instance, use_true_window):
    profiles, schedule, dropped = instance
    expected = brute_force_report(profiles, schedule, use_true_window, dropped)
    assert evaluate_schedule(
        profiles, schedule, use_true_window=use_true_window, dropped=dropped
    ) == expected
    # ``dropped`` may arrive as any collection of triples.
    assert evaluate_schedule(
        profiles, schedule, use_true_window=use_true_window, dropped=sorted(dropped)
    ) == expected


class TestRuntimeStats:
    def test_msec_per_ei(self):
        assert RuntimeStats(total_seconds=1.0, num_eis=500).msec_per_ei == 2.0

    def test_zero_eis_with_time_is_inf(self):
        assert RuntimeStats(total_seconds=0.5, num_eis=0).msec_per_ei == float("inf")

    def test_zero_eis_zero_time(self):
        assert RuntimeStats(total_seconds=0.0, num_eis=0).msec_per_ei == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ModelError):
            RuntimeStats(total_seconds=-1.0, num_eis=1)
        with pytest.raises(ModelError):
            RuntimeStats(total_seconds=1.0, num_eis=-1)


class TestDerivedMetrics:
    def test_relative_performance(self):
        assert relative_performance(0.6, 0.4) == pytest.approx(1.5)

    def test_relative_performance_zero_baseline(self):
        with pytest.raises(ModelError):
            relative_performance(0.5, 0.0)

    def test_percent_of_upper_bound(self):
        assert percent_of_upper_bound(0.3, 0.6) == pytest.approx(50.0)

    def test_percent_with_degenerate_bound(self):
        assert percent_of_upper_bound(0.0, 0.0) == 100.0
        assert percent_of_upper_bound(0.0, None) == 100.0
