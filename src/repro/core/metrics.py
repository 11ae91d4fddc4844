"""Completeness and runtime metrics.

The paper's objective (Problem 1) is *gained completeness* — Eq. 1:

    gC(P, T, S) = (sum_p sum_{η in p} I(η, S)) / (sum_p |p|)

i.e. the fraction of CEIs captured by the schedule.  This module computes
Eq. 1 plus the auxiliary views the evaluation section uses: per-rank
breakdowns (Figures 10 and 15), EI-level completeness (the Figure 10
upper-bound normalization), weighted completeness (the Section VII
future-work extension) and runtime-per-EI accounting (Section V-D).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Collection, Optional

from repro.core.errors import ModelError
from repro.core.profile import ProfileSet
from repro.core.schedule import Schedule, scoring_window


@dataclass(frozen=True, slots=True)
class CompletenessReport:
    """Capture statistics of one schedule against one profile set."""

    num_ceis: int
    captured_ceis: int
    num_eis: int
    captured_eis: int
    weight_total: float
    weight_captured: float
    per_rank: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def completeness(self) -> float:
        """Gained completeness (Eq. 1); 1.0 for an empty profile set."""
        if self.num_ceis == 0:
            return 1.0
        return self.captured_ceis / self.num_ceis

    @property
    def ei_completeness(self) -> float:
        """Fraction of individual EIs captured (rank-1 view of the run)."""
        if self.num_eis == 0:
            return 1.0
        return self.captured_eis / self.num_eis

    @property
    def weighted_completeness(self) -> float:
        """Utility-weighted completeness (== Eq. 1 when all weights are 1)."""
        if self.weight_total == 0:
            return 1.0
        return self.weight_captured / self.weight_total

    def completeness_at_rank(self, rank: int) -> float:
        """Gained completeness restricted to CEIs of the given rank."""
        total, captured = self.per_rank.get(rank, (0, 0))
        if total == 0:
            return 1.0
        return captured / total


def evaluate_schedule(
    profiles: ProfileSet,
    schedule: Schedule,
    use_true_window: bool = True,
    dropped: Collection[tuple[int, int, int]] = (),
) -> CompletenessReport:
    """Score a schedule against a profile set.

    ``use_true_window=True`` validates captures against the ground-truth
    event windows (the paper's noisy-model methodology, Section V-H); with
    a perfect update model the two windows coincide, so this is also the
    right default for noiseless runs.

    ``dropped`` holds ``(resource, chronon, seq)`` triples from per-EI
    partial probe failures (``OnlineMonitor.dropped_captures``); the named
    probes did not retrieve those EIs' data, so they are excluded from the
    capture indicators.

    Each EI is answered from a per-resource sorted index of probe
    chronons: one ``bisect`` finds the first probe at or after the window
    start, and the EI is captured iff that probe (or, past ``dropped``
    ones, a later probe) still lies inside the window — the same
    indicator as :meth:`repro.core.schedule.Schedule.captures_ei`.
    """
    index: dict[int, list[int]] = {}  # resource -> its probe chronons, ascending
    for chronon in sorted(schedule.probes):
        for resource in schedule.probes[chronon]:
            index.setdefault(resource, []).append(chronon)
    if dropped and not isinstance(dropped, (set, frozenset)):
        dropped = set(dropped)
    num_ceis = 0
    captured_ceis = 0
    num_eis = 0
    captured_eis = 0
    weight_total = 0.0
    weight_captured = 0.0
    per_rank: dict[int, list[int]] = {}

    for cei in profiles.ceis():
        num_ceis += 1
        weight_total += cei.weight
        bucket = per_rank.setdefault(cei.rank, [0, 0])
        bucket[0] += 1
        captured_here = 0
        for ei in cei.eis:
            num_eis += 1
            start, finish = scoring_window(ei, use_true_window)
            probes = index.get(ei.resource, ())
            i = bisect_left(probes, start)
            while i < len(probes) and probes[i] <= finish:
                if dropped and (ei.resource, probes[i], ei.seq) in dropped:
                    i += 1  # this probe missed the EI; a later one may not
                    continue
                captured_eis += 1
                captured_here += 1
                break
        if cei.satisfied_by_count(captured_here):
            captured_ceis += 1
            weight_captured += cei.weight
            bucket[1] += 1

    return CompletenessReport(
        num_ceis=num_ceis,
        captured_ceis=captured_ceis,
        num_eis=num_eis,
        captured_eis=captured_eis,
        weight_total=weight_total,
        weight_captured=weight_captured,
        per_rank={rank: (t, c) for rank, (t, c) in per_rank.items()},
    )


def gained_completeness(
    profiles: ProfileSet,
    schedule: Schedule,
    use_true_window: bool = True,
    dropped: Collection[tuple[int, int, int]] = (),
) -> float:
    """Eq. 1 directly — a shortcut around :func:`evaluate_schedule`."""
    return evaluate_schedule(
        profiles, schedule, use_true_window=use_true_window, dropped=dropped
    ).completeness


@dataclass(frozen=True, slots=True)
class RuntimeStats:
    """Wall-clock accounting normalized per EI (paper Section V-D).

    The paper reports "execution time normalized over the total number of
    EIs that must be captured", in milliseconds per EI.
    """

    total_seconds: float
    num_eis: int

    def __post_init__(self) -> None:
        if self.total_seconds < 0:
            raise ModelError(f"negative runtime {self.total_seconds}")
        if self.num_eis < 0:
            raise ModelError(f"negative EI count {self.num_eis}")

    @property
    def msec_per_ei(self) -> float:
        """Milliseconds of scheduling work per EI (inf for zero EIs)."""
        if self.num_eis == 0:
            return float("inf") if self.total_seconds > 0 else 0.0
        return 1000.0 * self.total_seconds / self.num_eis


def relative_performance(value: float, baseline: float) -> float:
    """Ratio used by Figure 14: performance relative to a baseline run."""
    if baseline <= 0:
        raise ModelError(f"baseline completeness must be positive, got {baseline}")
    return value / baseline


def percent_of_upper_bound(completeness: float, upper_bound: Optional[float]) -> float:
    """Figure 10's Y axis: completeness as a percentage of an upper bound.

    The upper bound may legitimately be zero when no EI is capturable at
    all; in that degenerate case every policy trivially achieves 100%.
    """
    if upper_bound is None or upper_bound <= 0:
        return 100.0
    return 100.0 * completeness / upper_bound
