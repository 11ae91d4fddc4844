"""The batch leg: profiles in, a scored Eq. 1 completeness out.

One *instance* calls the program's public functions in order —
``poisson_trace`` → ``generate_profiles`` → ``compile_arena`` →
``OnlineMonitor.run`` (S-EDF, MRSF and M-EDF on the vectorized engine) →
``evaluate_schedule`` — and the leg repeats it in rounds that cycle
through a few instances of the run's seed, timing every stage at reference
speed (``speed.py``).  The checks run outside the timed region.
"""

from __future__ import annotations

import gc
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from repro.core.metrics import evaluate_schedule
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.config import MonitorConfig
from repro.online.monitor import OnlineMonitor
from repro.policies import make_policy
from repro.sim.arena import compile_arena
from repro.traces.noise import perfect_predictions
from repro.traces.poisson import poisson_trace
from repro.workloads.generator import GeneratorSpec, generate_profiles
from repro.workloads.templates import LengthRule

from speed import Meter
from tracing import OFF, median

POLICIES = ("S-EDF", "MRSF", "M-EDF")
REFERENCE_SCALE = 0.25  # of the dense shape, for its reference-engine check
# Rounds cycle through this many instances.  On some dense instances (4 of
# the 30 seeds tried) MRSF's completeness falls from ~0.78 to ~0.16 while
# S-EDF and M-EDF hold, so the mean over one instance's cells is bimodal
# across seeds; averaged over three instances it moves by a third of that.
INSTANCES = 3


@dataclass(frozen=True)
class Shape:
    """One batch instance: Poisson trace size, generator knobs, budget."""

    resources: int
    chronons: int
    updates: float  # mean updates per resource over the epoch
    profiles: int
    rank_max: int
    window: int
    budget: int

    def scaled(self, factor: float) -> "Shape":
        """The same generator at ``factor`` times the size (windows too)."""
        return replace(
            self,
            resources=max(8, round(self.resources * factor)),
            chronons=max(20, round(self.chronons * factor)),
            updates=max(2.0, self.updates * factor),
            profiles=max(8, round(self.profiles * factor)),
            window=max(2, round(self.window * factor)),
        )


class CheckFailed(Exception):
    """An output check failed; the run must exit nonzero."""


def instance_seed(seed: int, purpose: int, index: int = 0) -> np.random.SeedSequence:
    """Seed of one instance: ``purpose`` 0 = measured, 1 = warm-up, 2 = check."""
    return np.random.SeedSequence([seed, purpose, index])


def run_instance(shape: Shape, rng_seed, tracer, engine: str = "vectorized",
                 meter: Meter | None = None) -> dict:
    """One instance end to end; returns its schedules, monitors and sizes.

    With a ``meter``, every stage is timed on it at reference speed.
    """
    timed = meter.timed if meter is not None else nullcontext
    rng = np.random.default_rng(rng_seed)
    epoch = Epoch(shape.chronons)
    with timed():
        with tracer.span("traces.poisson_trace"):
            trace = poisson_trace(shape.resources, epoch, shape.updates, rng)
        with tracer.span("workloads.generate_profiles"):
            profiles = generate_profiles(
                perfect_predictions(trace),
                epoch,
                GeneratorSpec(num_profiles=shape.profiles, rank_max=shape.rank_max),
                LengthRule.window(shape.window),
                rng,
            )
    with timed(), tracer.span("arena.compile_arena"):
        arena = compile_arena(profiles)
    cells = []
    for name in POLICIES:
        with timed():
            monitor = OnlineMonitor(
                make_policy(name),
                BudgetVector.constant(shape.budget, shape.chronons),
                config=MonitorConfig(engine=engine),
                arena=arena if engine == "vectorized" else None,
            )
            with tracer.span("monitor.run"):
                schedule = monitor.run(epoch, arena.arrivals)
        with timed(), tracer.span("metrics.evaluate_schedule"):
            report = evaluate_schedule(profiles, schedule)
        cells.append((name, monitor, schedule, report))
    if tracer.enabled:
        tracer.count("workloads.ceis", arena.n_ceis)
        tracer.count("workloads.eis", sum(len(c.eis) for c in profiles.ceis()))
        tracer.count("arena.rows", arena.n_rows)
        tracer.count("arena.mean_bag", arena.mean_bag)
        for _, monitor, schedule, report in cells:
            tracer.count("monitor.probes", monitor.probes_used)
            tracer.count(
                "monitor.captures_per_probe",
                report.captured_eis / max(1, schedule.num_probes),
            )
    return {"epoch": epoch, "profiles": profiles, "arena": arena, "cells": cells}


def check_instance(result: dict, counts: dict) -> None:
    """Budget feasibility, and Eq. 1 == believed completeness."""
    for name, monitor, _, report in result["cells"]:
        monitor.check_budget_feasible()  # raises ModelError when violated
        counts["budget_feasible"] += 1
        believed = monitor.believed_completeness
        if not math.isclose(report.completeness, believed, rel_tol=1e-12, abs_tol=1e-12):
            raise CheckFailed(
                f"{name}: Eq. 1 {report.completeness!r} != believed {believed!r}"
            )
        counts["eq1_equals_believed"] += 1


def check_against_reference(shape: Shape, rng_seed, counts: dict,
                            result: dict | None = None) -> None:
    """Re-run an instance on the reference engine; schedules must match."""
    if result is None:
        result = run_instance(shape, rng_seed, OFF)
    reference = run_instance(shape, rng_seed, OFF, engine="reference")
    for (name, _, fast, _), (_, _, slow, _) in zip(result["cells"], reference["cells"]):
        if sorted(fast.pairs()) != sorted(slow.pairs()):
            raise CheckFailed(f"{name}: vectorized schedule differs from reference")
        counts["reference_schedule_equal"] += 1


class Leg:
    """The batch leg, one round at a time (the caller interleaves them).

    Round ``i`` runs instance ``i % INSTANCES`` of the run's seed, so the
    rounds repeat the same few inputs and differ mostly in how fast the
    host ran.
    """

    def __init__(self, shape: Shape, seed: int, tracer, *,
                 reference_first_instance: bool) -> None:
        self._shape = shape
        self._seed = seed
        self._tracer = tracer
        self._reference_first_instance = reference_first_instance
        self._rates: list[tuple[float, float]] = []  # per round: (raw, reference) CEIs/s
        self._completeness: dict[int, list[float]] = {}  # per instance, its cells
        self.checks = {"budget_feasible": 0, "eq1_equals_believed": 0,
                       "reference_schedule_equal": 0}

    @property
    def rounds(self) -> int:
        return len(self._rates)

    def next_round(self) -> None:
        """Time one round, stage by stage, then check it (untimed)."""
        index = self.rounds
        instance = index % INSTANCES
        rng_seed = instance_seed(self._seed, 0, instance)
        gc.collect()  # garbage of earlier work is not this round's cost
        meter = Meter()
        with self._tracer.span("batch.instance", op=index):
            result = run_instance(self._shape, rng_seed, self._tracer, meter=meter)
        ceis = result["arena"].n_ceis
        self._rates.append((ceis / meter.raw_s, ceis / meter.ref_s))
        self._completeness[instance] = [cell[3].completeness for cell in result["cells"]]
        check_instance(result, self.checks)
        if self._reference_first_instance and index == 0:
            check_against_reference(self._shape, rng_seed, self.checks, result)

    def finish(self) -> dict:
        if not self._reference_first_instance:
            # Too slow at full size on the reference engine: once per run, on
            # a scaled-down instance of the same generator.
            check_against_reference(
                self._shape.scaled(REFERENCE_SCALE), instance_seed(self._seed, 2), self.checks
            )
        rounds = self.rounds
        cells = [value for values in self._completeness.values() for value in values]
        return {
            "ceis_per_s": median([ref for _, ref in self._rates]),
            "ceis_per_s_raw": median([raw for raw, _ in self._rates]),
            "completeness": sum(cells) / len(cells),
            "completeness_per_instance": {
                instance: values for instance, values in sorted(self._completeness.items())
            },
            "rounds": rounds,
            "checks": self.checks,
            # Public calls made: trace, generate, compile, then run + score per policy.
            "attempted": rounds * (3 + 2 * len(POLICIES)),
            "failed": 0,
        }


def layer_metrics(tracer, shape: Shape) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced batch leg, as (value, unit)."""
    counters = tracer.counters
    gen = [
        a + b
        for a, b in zip(
            tracer.durations("traces.poisson_trace"),
            tracer.durations("workloads.generate_profiles"),
        )
    ]
    run_s = tracer.durations("monitor.run")
    return {
        "workloads.busy_s": (median(gen), "s"),
        "workloads.ceis": (median(counters["workloads.ceis"]), "count"),
        "workloads.eis": (median(counters["workloads.eis"]), "count"),
        "arena.compile_s": (median(tracer.durations("arena.compile_arena")), "s"),
        "arena.rows": (median(counters["arena.rows"]), "count"),
        "arena.mean_bag": (median(counters["arena.mean_bag"]), "count"),
        "monitor.run_s": (median(run_s), "s"),
        "monitor.chronon_us": (median(run_s) / shape.chronons * 1e6, "us"),
        "monitor.probes": (median(counters["monitor.probes"]), "count"),
        "monitor.captures_per_probe": (
            median(counters["monitor.captures_per_probe"]), "ratio"
        ),
        "metrics.evaluate_s": (
            median(tracer.durations("metrics.evaluate_schedule")), "s"
        ),
    }
