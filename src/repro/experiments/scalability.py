"""Extension — suite throughput on the repetition-chunked parallel runner.

The paper repeats every execution on identical problem instances
(Section V-A.3); :func:`repro.sim.runner.run_suite` implements that
methodology, and with ``workers > 1`` it fans *whole repetitions* over a
process pool — each worker builds its repetition's instance once,
compiles it into an :class:`repro.sim.arena.InstanceArena` (vectorized
engine) and runs every policy against it.  This experiment measures that
machinery end to end: suite wall-clock serial vs chunked, with the
per-policy completeness/probe statistics that must come out identical
either way.

Unlike the figure modules this one is parameterized by the runner knobs
themselves: ``repro-experiments run scalability --engine vectorized
--workers 4`` exercises exactly the code path a production sweep uses.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.timebase import Epoch
from repro.experiments.common import (
    ExperimentResult,
    constant_budget,
    poisson_instance,
    scaled,
)
from repro.online.config import MonitorConfig
from repro.sim.runner import run_suite
from repro.workloads.generator import GeneratorSpec
from repro.workloads.templates import LengthRule

NUM_RESOURCES = 200
NUM_CHRONONS = 400
MEAN_UPDATES = 16.0
NUM_PROFILES = 150
RANK_MAX = 5
WINDOW = 30
POLICIES = [("S-EDF", True), ("MRSF", True), ("M-EDF", True)]


def run(
    scale: float = 1.0,
    seed: int = 0,
    repetitions: int = 4,
    engine: str = "vectorized",
    workers: int = 0,
) -> ExperimentResult:
    """Time the suite serial vs repetition-chunked and verify equality.

    ``workers=0`` picks ``min(4, cpu_count)``; ``workers=1`` skips the
    parallel leg (the row then reports the serial numbers only).
    """
    epoch = Epoch(scaled(NUM_CHRONONS, scale, 50))
    num_resources = scaled(NUM_RESOURCES, scale, 20)
    num_profiles = scaled(NUM_PROFILES, scale, 10)
    budget = constant_budget(1.0, epoch)
    spec = GeneratorSpec(num_profiles=num_profiles, rank_max=RANK_MAX)
    rule = LengthRule.window(max(4, scaled(WINDOW, scale, 4)))

    def make_instance(rng: np.random.Generator):
        return poisson_instance(
            rng, epoch, num_resources, MEAN_UPDATES, spec, rule
        )

    if workers <= 0:
        workers = max(2, min(4, os.cpu_count() or 1))

    started = time.perf_counter()
    serial = run_suite(
        make_instance, epoch, budget, POLICIES,
        repetitions=repetitions, seed=seed,
        config=MonitorConfig(engine=engine),
    )
    serial_seconds = time.perf_counter() - started

    parallel = None
    parallel_seconds = float("nan")
    if workers > 1:
        started = time.perf_counter()
        parallel = run_suite(
            make_instance, epoch, budget, POLICIES,
            repetitions=repetitions, seed=seed,
            config=MonitorConfig(engine=engine, workers=workers),
        )
        parallel_seconds = time.perf_counter() - started

    result = ExperimentResult(
        experiment="Extension — repetition-chunked suite runner "
        f"(engine={engine}, workers={workers}, reps={repetitions})",
        headers=[
            "policy",
            "completeness",
            "std",
            "probes",
            "serial s",
            "chunked s",
            "identical",
        ],
    )
    for label, agg in serial.items():
        identical = parallel is not None and (
            parallel[label].completeness_mean == agg.completeness_mean
            and parallel[label].probes_mean == agg.probes_mean
        )
        result.rows.append(
            [
                label,
                agg.completeness_mean,
                agg.completeness_std,
                agg.probes_mean,
                round(serial_seconds, 3),
                round(parallel_seconds, 3) if parallel is not None else "-",
                "yes" if identical else ("-" if parallel is None else "NO"),
            ]
        )
    if parallel is not None:
        if any(row[-1] == "NO" for row in result.rows):
            raise SystemExit(
                "chunked runner diverged from the serial suite — "
                "seed-for-seed equality is the runner's contract"
            )
        result.notes.append(
            f"chunked speedup {serial_seconds / parallel_seconds:.2f}x over "
            f"{workers} workers on {os.cpu_count()} cores (each worker "
            "builds its repetition's instance once and reuses it across "
            "all policies)"
        )
    result.notes.append(
        "statistics are seed-for-seed identical serial vs chunked; only "
        "wall-clock differs"
    )
    return result


def main() -> None:
    print(run(scale=0.2).to_text(precision=4))


if __name__ == "__main__":
    main()
