"""Data-delivery schedules and budget vectors.

A schedule ``S`` assigns ``s_{i,j} = 1`` when resource ``r_i`` is probed at
chronon ``T_j`` (paper Section III-B).  We store the sparse form — a map
from chronon to the set of probed resource ids — because real schedules
probe only ``C_j`` of ``n`` resources per chronon.

The budget constraint of Problem 1 (``sum_i s_{i,j} <= C_j``) is modelled
by :class:`BudgetVector`, which broadcasts a scalar ``C`` over the epoch or
stores a per-chronon vector.  The future-work extension of non-uniform
probe costs (paper Section III-C) is supported by charging
``resource.probe_cost`` units per probe; with all costs 1 this reduces
exactly to Problem 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

from repro.core.errors import BudgetError, ModelError, ScheduleError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.resource import ResourceId, ResourcePool
from repro.core.timebase import Chronon, Epoch


@dataclass(frozen=True, slots=True)
class BudgetVector:
    """Per-chronon probing budget ``C = (C_1 .. C_K)``.

    Construct with :meth:`constant` for the common scalar case or
    :meth:`from_sequence` for a fully general vector.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ModelError("budget vector must cover at least one chronon")
        for j, value in enumerate(self.values):
            if value < 0:
                raise ModelError(f"budget at chronon {j} must be >= 0, got {value}")

    @classmethod
    def constant(cls, c: float, num_chronons: int) -> "BudgetVector":
        """A uniform budget of ``c`` probes at each of ``num_chronons``."""
        if num_chronons <= 0:
            raise ModelError(f"budget vector length must be positive, got {num_chronons}")
        return cls(values=(float(c),) * num_chronons)

    @classmethod
    def from_sequence(cls, values: Sequence[float]) -> "BudgetVector":
        """A budget vector from an explicit per-chronon sequence."""
        return cls(values=tuple(float(v) for v in values))

    @classmethod
    def diurnal(
        cls,
        base: float,
        amplitude: float,
        periods: int,
        num_chronons: int,
    ) -> "BudgetVector":
        """A sinusoidally-modulated integer budget (mean ≈ ``base``).

        Models bandwidth that follows a daily cycle — e.g. a proxy that
        may probe harder off-peak.  ``amplitude`` is the relative swing
        in [0, 1]; ``periods`` is how many cycles span the epoch.  Values
        are rounded to integers (never below 0) so the vector is usable
        directly as probe counts.
        """
        import math

        if not 0.0 <= amplitude <= 1.0:
            raise ModelError(f"amplitude must be in [0, 1], got {amplitude}")
        if periods < 0:
            raise ModelError(f"periods must be >= 0, got {periods}")
        if num_chronons <= 0:
            raise ModelError(f"length must be positive, got {num_chronons}")
        values = []
        for j in range(num_chronons):
            phase = 2.0 * math.pi * periods * j / num_chronons
            values.append(
                float(max(0, round(base * (1.0 + amplitude * math.sin(phase)))))
            )
        return cls(values=tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    def at(self, chronon: Chronon) -> float:
        """``C_j`` — the budget available at ``chronon``."""
        if not 0 <= chronon < len(self.values):
            raise ModelError(
                f"chronon {chronon} outside budget vector of length {len(self.values)}"
            )
        return self.values[chronon]

    @property
    def maximum(self) -> float:
        """``C_max = max_j C_j`` (used by the enumeration cost bound)."""
        return max(self.values)

    @property
    def total(self) -> float:
        """Total probes available over the whole epoch."""
        return sum(self.values)


@dataclass(slots=True)
class Schedule:
    """A sparse probing schedule: chronon -> set of probed resource ids."""

    probes: dict[Chronon, set[ResourceId]] = field(default_factory=dict)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[ResourceId, Chronon]]) -> "Schedule":
        """Build a schedule from ``(resource, chronon)`` pairs."""
        schedule = cls()
        for resource, chronon in pairs:
            schedule.add_probe(resource, chronon)
        return schedule

    def add_probe(self, resource: ResourceId, chronon: Chronon) -> bool:
        """Record a probe; returns False if it was already present."""
        if resource < 0:
            raise ScheduleError(f"resource id must be non-negative, got {resource}")
        if chronon < 0:
            raise ScheduleError(f"chronon must be non-negative, got {chronon}")
        at_chronon = self.probes.setdefault(chronon, set())
        if resource in at_chronon:
            return False
        at_chronon.add(resource)
        return True

    def probes_at(self, chronon: Chronon) -> frozenset[ResourceId]:
        """Resources probed at ``chronon`` (empty set if none)."""
        return frozenset(self.probes.get(chronon, ()))

    def is_probed(self, resource: ResourceId, chronon: Chronon) -> bool:
        """``s_{i,j} == 1``?"""
        return resource in self.probes.get(chronon, ())

    @property
    def num_probes(self) -> int:
        """Total number of probes in the schedule."""
        return sum(len(resources) for resources in self.probes.values())

    def chronons(self) -> Iterator[Chronon]:
        """Chronons that contain at least one probe, in increasing order."""
        return iter(sorted(self.probes))

    def pairs(self) -> Iterator[tuple[ResourceId, Chronon]]:
        """All ``(resource, chronon)`` probes, chronon-major order."""
        for chronon in sorted(self.probes):
            for resource in sorted(self.probes[chronon]):
                yield resource, chronon

    def check_feasible(
        self,
        budget: BudgetVector,
        pool: Optional[ResourcePool] = None,
        epoch: Optional[Epoch] = None,
        push_probes: Collection[tuple[ResourceId, Chronon]] = (),
    ) -> None:
        """Raise :class:`BudgetError` if any chronon exceeds its budget.

        With ``pool`` given, each probe charges the resource's
        ``probe_cost``; otherwise each probe costs one unit (Problem 1).
        With ``epoch`` given, probes outside the epoch are rejected.
        ``push_probes`` marks ``(resource, chronon)`` pairs recorded in
        the schedule as *free* push captures (Example 3 of the paper) —
        pass :attr:`OnlineMonitor.push_probes` so a schedule produced by
        a run with push-enabled resources reconciles with the monitor's
        own :meth:`~repro.online.monitor.OnlineMonitor.check_budget_feasible`
        accounting, which never charged them.
        """
        for chronon, resources in self.probes.items():
            if epoch is not None and chronon not in epoch:
                raise ScheduleError(f"probe at chronon {chronon} outside epoch")
            if chronon >= len(budget):
                raise BudgetError(
                    f"probe at chronon {chronon} beyond budget horizon {len(budget)}"
                )
            cost = 0.0
            for resource in resources:
                if (resource, chronon) in push_probes:
                    continue
                cost += 1.0 if pool is None else pool.probe_cost(resource)
            allowed = budget.at(chronon)
            if cost > allowed + 1e-9:
                raise BudgetError(
                    f"chronon {chronon} consumes {cost} budget units "
                    f"but only {allowed} are available"
                )

    def is_feasible(
        self,
        budget: BudgetVector,
        pool: Optional[ResourcePool] = None,
        epoch: Optional[Epoch] = None,
        push_probes: Collection[tuple[ResourceId, Chronon]] = (),
    ) -> bool:
        """Boolean form of :meth:`check_feasible`."""
        try:
            self.check_feasible(budget, pool, epoch, push_probes)
        except (BudgetError, ScheduleError):
            return False
        return True

    # ------------------------------------------------------------------
    # Capture indicators (paper Section III-B)
    # ------------------------------------------------------------------

    def captures_ei(
        self,
        ei: ExecutionInterval,
        use_true_window: bool = True,
        dropped: Collection[tuple[ResourceId, Chronon, int]] = (),
    ) -> bool:
        """The indicator ``I(I, S)``: does some probe fall in the window?

        ``use_true_window=True`` (the default) validates against the
        ground-truth window, which is how the paper scores noisy runs;
        ``use_true_window=False`` checks the scheduling window instead
        (what the proxy believes during the run).

        ``dropped`` holds ``(resource, chronon, seq)`` triples from per-EI
        partial probe failures (``OnlineMonitor.dropped_captures``): a
        probe listed there did not retrieve *this* EI's data, so it does
        not count as a capture.
        """
        start, finish = scoring_window(ei, use_true_window)
        resource = ei.resource
        seq = ei.seq
        # Iterate the shorter side: window chronons vs. probe chronons.
        if finish - start + 1 <= len(self.probes):
            for chronon in range(start, finish + 1):
                if resource in self.probes.get(chronon, ()):
                    if dropped and (resource, chronon, seq) in dropped:
                        continue
                    return True
            return False
        for chronon, resources in self.probes.items():
            if start <= chronon <= finish and resource in resources:
                if dropped and (resource, chronon, seq) in dropped:
                    continue
                return True
        return False

    def captures_cei(
        self,
        cei: ComplexExecutionInterval,
        use_true_window: bool = True,
        dropped: Collection[tuple[ResourceId, Chronon, int]] = (),
    ) -> bool:
        """The indicator ``I(η, S)`` under the CEI's capture semantics.

        For the paper's AND semantics this is ``prod_{I in η} I(I, S)``.
        """
        captured = sum(
            1
            for ei in cei.eis
            if self.captures_ei(ei, use_true_window=use_true_window, dropped=dropped)
        )
        return cei.satisfied_by_count(captured)

    def to_dense(self, num_resources: int, num_chronons: int) -> list[list[int]]:
        """The dense ``n x K`` 0/1 matrix form from the paper (for tests)."""
        matrix = [[0] * num_chronons for _ in range(num_resources)]
        for chronon, resources in self.probes.items():
            if chronon >= num_chronons:
                raise ScheduleError(
                    f"probe at chronon {chronon} outside dense horizon {num_chronons}"
                )
            for resource in resources:
                if resource >= num_resources:
                    raise ScheduleError(
                        f"probe of resource {resource} outside dense pool {num_resources}"
                    )
                matrix[resource][chronon] = 1
        return matrix


def scoring_window(
    ei: ExecutionInterval, use_true_window: bool = True
) -> tuple[Chronon, Chronon]:
    """The closed window a probe must fall in to capture ``ei``.

    The ground-truth window with ``use_true_window`` (how the paper
    scores noisy runs), else the scheduling window the proxy believes.
    """
    if use_true_window:
        # Not an assert: under ``python -O`` an assert vanishes and callers
        # would fail with a bare TypeError on None bounds.
        if ei.true_start is None or ei.true_finish is None:
            raise ModelError(
                f"EI {ei.seq} on resource {ei.resource} has no ground-truth "
                "window; attach true_start/true_finish or score with "
                "use_true_window=False"
            )
        return ei.true_start, ei.true_finish
    return ei.start, ei.finish


def probes_remaining(
    budget: BudgetVector,
    schedule: Schedule,
    chronon: Chronon,
    pool: Optional[ResourcePool] = None,
    push_probes: Collection[tuple[ResourceId, Chronon]] = (),
) -> float:
    """Budget still unused at ``chronon`` given the probes already placed.

    With ``pool`` given each probe charges its resource's ``probe_cost``
    (otherwise one unit, Problem 1), and ``push_probes`` marks free push
    captures to exclude — so the result agrees with
    ``budget.at(chronon) - monitor.budget_consumed_at(chronon)`` for a
    schedule the online monitor produced.  The earlier behaviour of
    counting raw probe entries both ignored heterogeneous costs and
    billed free push captures as consumed budget.
    """
    consumed = 0.0
    for resource in schedule.probes_at(chronon):
        if (resource, chronon) in push_probes:
            continue
        consumed += 1.0 if pool is None else pool.probe_cost(resource)
    return budget.at(chronon) - consumed


def count_feasible_schedules(
    num_resources: int, budget: BudgetVector
) -> int:
    """``|S(C)|`` from Proposition 4: the number of feasible schedules.

    Computes ``prod_j sum_{l=0..C_j} (n choose l)`` exactly; useful only
    for very small instances (the point of Proposition 4 is that this
    count explodes).  We include the empty choice (l=0), i.e. schedules
    that skip chronons, which the proof's O-bound absorbs.
    """
    from math import comb

    total = 1
    for c_j in budget.values:
        limit = min(num_resources, int(c_j))
        total *= sum(comb(num_resources, l) for l in range(limit + 1))
    return total


def schedule_from_matrix(matrix: Mapping[int, Iterable[int]] | Sequence[Sequence[int]]) -> Schedule:
    """Build a schedule from a dense row-per-resource 0/1 matrix."""
    schedule = Schedule()
    if isinstance(matrix, Mapping):
        rows: Iterable[tuple[int, Iterable[int]]] = matrix.items()
    else:
        rows = enumerate(matrix)
    for resource, row in rows:
        for chronon, flag in enumerate(row):
            if flag:
                schedule.add_probe(resource, chronon)
    return schedule
