"""Repeated-run orchestration: seeds, repetitions and aggregation.

"We repeated each execution (offline/online) 10 times and recorded the
average performances."  (paper Section V-A.3)

Each repetition regenerates the problem instance from a child seed, then
runs *every* policy on that same instance — exactly the paper's
methodology of executing online and offline solutions on identical
problem instances — and aggregates means and standard deviations.

With ``workers > 1`` the suite fans *whole repetitions* out over a
process pool: each worker task regenerates its repetition's instance
from the same ``SeedSequence`` child seed the serial path uses, compiles
it once into an :class:`repro.sim.arena.InstanceArena` (vectorized
engine), and runs every policy cell against that shared instance —
instead of rebuilding the instance once per *(repetition, policy)* cell.
A pool initializer pins the per-suite static arguments (epoch, budget,
cell list, config) in each worker once, so per-task pickling reduces to
``(rep, child_seed)``.  Results are re-assembled in repetition order
before aggregation, so the parallel suite is seed-for-seed identical to
the serial one (completeness, probe counts and their means — wall-clock
runtime statistics naturally differ).  The serial path reuses the same
arena across its policy loop too.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from statistics import fmean, pstdev
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.profile import ProfileSet
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.config import Engine, MonitorConfig, resolve_config
from repro.online.faults import FailureModel, RetryPolicy
from repro.sim.arena import InstanceArena, compile_arena
from repro.sim.engine import SimulationResult, policy_label, simulate, simulate_offline

#: A problem-instance factory: child RNG -> profile set.
InstanceFactory = Callable[[np.random.Generator], ProfileSet]


@dataclass(frozen=True, slots=True)
class AggregateResult:
    """Mean/stdev statistics of one policy over the repetitions."""

    label: str
    completeness_mean: float
    completeness_std: float
    msec_per_ei_mean: float
    probes_mean: float
    repetitions: int
    probes_failed_mean: float = 0.0
    retries_mean: float = 0.0
    backoffs_mean: float = 0.0
    failures_by_resource_mean: dict[int, float] = field(default_factory=dict)
    health_opens_mean: float = 0.0
    health_closes_mean: float = 0.0
    health_short_circuited_mean: float = 0.0
    health_error_mean: float = 0.0
    shed_ceis_mean: float = 0.0
    shed_weight_mean: float = 0.0
    released_eis_mean: float = 0.0
    overload_chronons_mean: float = 0.0

    @classmethod
    def from_runs(cls, label: str, runs: Sequence[SimulationResult]) -> "AggregateResult":
        completenesses = [run.completeness for run in runs]
        # Per-resource failure means over the union of resources seen in
        # any repetition; a repetition without failures on a resource
        # contributes 0 to that resource's mean.
        resources = sorted({rid for run in runs for rid in run.failures_by_resource})
        per_resource = {
            rid: fmean(run.failures_by_resource.get(rid, 0) for run in runs)
            for rid in resources
        }
        # Health aggregates: runs without a health config contribute 0 —
        # the means stay meaningful because a suite either carries a
        # health config on every run or on none.
        opens = [
            run.health.opens + run.health.reopens if run.health is not None else 0
            for run in runs
        ]
        closes = [run.health.closes if run.health is not None else 0 for run in runs]
        shorted = [
            run.health.short_circuited if run.health is not None else 0 for run in runs
        ]
        errors = [
            run.health.final_error if run.health is not None else 0.0 for run in runs
        ]
        # Shedding aggregates follow the same convention: runs without a
        # shedding config contribute 0 to every shed mean.
        shed_ceis = [
            run.shedding.shed_ceis if run.shedding is not None else 0 for run in runs
        ]
        shed_weight = [
            run.shedding.shed_weight if run.shedding is not None else 0.0
            for run in runs
        ]
        released = [
            run.shedding.released_eis if run.shedding is not None else 0
            for run in runs
        ]
        overloaded = [
            run.shedding.overload_chronons if run.shedding is not None else 0
            for run in runs
        ]
        return cls(
            label=label,
            completeness_mean=fmean(completenesses),
            completeness_std=pstdev(completenesses) if len(runs) > 1 else 0.0,
            msec_per_ei_mean=fmean(run.runtime.msec_per_ei for run in runs),
            probes_mean=fmean(run.probes_used for run in runs),
            repetitions=len(runs),
            probes_failed_mean=fmean(run.probes_failed for run in runs),
            retries_mean=fmean(run.retries_used for run in runs),
            backoffs_mean=fmean(run.backoffs for run in runs),
            failures_by_resource_mean=per_resource,
            health_opens_mean=fmean(opens),
            health_closes_mean=fmean(closes),
            health_short_circuited_mean=fmean(shorted),
            health_error_mean=fmean(errors),
            shed_ceis_mean=fmean(shed_ceis),
            shed_weight_mean=fmean(shed_weight),
            released_eis_mean=fmean(released),
            overload_chronons_mean=fmean(overloaded),
        )


def child_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators derived from one master seed."""
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


# The instance factory is usually a closure, which cannot cross a pickle
# boundary; worker processes instead inherit it through fork, stashed here
# by run_suite just before the pool starts.
_WORKER_FACTORY: Optional[InstanceFactory] = None

#: Per-suite static arguments, pinned once per worker by the pool
#: initializer: (epoch, budget, cells, config, offline_max_combinations).
_WORKER_CONTEXT: Optional[tuple] = None


def _init_suite_worker(context: tuple) -> None:
    """Process-pool initializer: pin the suite's static arguments.

    Runs once per worker process, so the repetition tasks themselves only
    ship ``(rep, child_seed)`` over the pipe instead of re-pickling the
    epoch, budget, cell list and config for every cell.
    """
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_repetition(
    rep: int, child: np.random.SeedSequence
) -> tuple[int, list[tuple[str, SimulationResult]]]:
    """One full repetition: build the instance once, run every cell on it.

    Regenerates the repetition's instance from its SeedSequence child —
    the identical instance the serial loop would build — compiles it into
    an arena when the engine can use one (vectorized or auto, which also
    reads the arena's mean bag to pick its starting engine), and runs
    every policy cell
    (plus the optional offline baseline) against it in suite order.
    Fault verdicts are pure functions of the probe coordinates, so
    worker-order nondeterminism cannot leak into the results.
    """
    assert _WORKER_FACTORY is not None and _WORKER_CONTEXT is not None
    epoch, budget, cells, config, offline_max_combinations = _WORKER_CONTEXT
    profiles = _WORKER_FACTORY(np.random.default_rng(child))
    instance: ProfileSet | InstanceArena = (
        compile_arena(profiles)
        if config.engine is not Engine.REFERENCE
        else profiles
    )
    results: list[tuple[str, SimulationResult]] = []
    for cell in cells:
        if cell is None:
            result = simulate_offline(
                profiles, epoch, budget, max_combinations=offline_max_combinations
            )
            results.append(("OFFLINE-LR", result))
        else:
            name, preemptive = cell
            result = simulate(
                instance, epoch, budget, name, preemptive=preemptive, config=config
            )
            results.append((policy_label(name, preemptive), result))
    return rep, results


def run_suite(
    make_instance: InstanceFactory,
    epoch: Epoch,
    budget: BudgetVector,
    policies: Sequence[tuple[str, bool]],
    repetitions: int = 10,
    seed: int = 0,
    include_offline: bool = False,
    offline_max_combinations: int = 100_000,
    config: Optional[MonitorConfig] = None,
    *,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    faults: Optional[FailureModel] = None,
    retry: Optional[RetryPolicy] = None,
) -> dict[str, AggregateResult]:
    """Run each policy ``repetitions`` times on shared problem instances.

    ``policies`` is a sequence of ``(registry_name, preemptive)`` pairs.
    With ``include_offline`` the local-ratio baseline joins the lineup
    under the label ``"OFFLINE-LR"``.  ``config`` is forwarded to every
    online run: its engine picks the monitor implementation, its
    fault/retry models inject probe failures (the offline baseline plans
    with perfect knowledge and is left untouched; failure, retry and
    backoff counts surface as ``probes_failed_mean`` / ``retries_mean`` /
    ``backoffs_mean`` and per-resource ``failures_by_resource_mean`` on
    the aggregates), and ``config.workers`` > 1 distributes whole
    repetitions over that many forked worker processes — each worker
    builds its repetition's instance once (compiled into an
    :class:`repro.sim.arena.InstanceArena` on the vectorized engine) and
    runs every policy cell against it (requires the ``fork`` start
    method, i.e. POSIX; falls back to the serial loop elsewhere) with
    results identical to the serial loop, seed for seed.  The bare
    ``engine=``/``workers=``/``faults=``/``retry=`` keywords were removed:
    passing any of them raises :class:`TypeError` naming the ``config=``
    replacement.
    """
    cfg = resolve_config(
        config,
        engine=engine,
        faults=faults,
        retry=retry,
        workers=workers,
        owner="run_suite",
    )
    runs: dict[str, list[SimulationResult]] = {
        policy_label(name, preemptive): [] for name, preemptive in policies
    }
    if include_offline:
        runs["OFFLINE-LR"] = []

    pool_size = cfg.workers
    parallel = pool_size is not None and pool_size > 1
    if parallel:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            parallel = False

    if parallel:
        children = np.random.SeedSequence(seed).spawn(repetitions)
        cells: list[Optional[tuple[str, bool]]] = list(policies)
        if include_offline:
            cells.append(None)
        context = (epoch, budget, cells, cfg, offline_max_combinations)
        global _WORKER_FACTORY
        _WORKER_FACTORY = make_instance
        try:
            with ProcessPoolExecutor(
                max_workers=pool_size,
                mp_context=ctx,
                initializer=_init_suite_worker,
                initargs=(context,),
            ) as pool:
                futures = [
                    pool.submit(_run_repetition, rep, child)
                    for rep, child in enumerate(children)
                ]
                by_rep: dict[int, list[tuple[str, SimulationResult]]] = {}
                for future in futures:
                    rep, cell_results = future.result()
                    by_rep[rep] = cell_results
        finally:
            _WORKER_FACTORY = None
        for rep in range(repetitions):
            for label, result in by_rep[rep]:
                runs[label].append(result)
    else:
        use_arena = cfg.engine is not Engine.REFERENCE
        for rng in child_rngs(seed, repetitions):
            profiles = make_instance(rng)
            instance: ProfileSet | InstanceArena = (
                compile_arena(profiles) if use_arena else profiles
            )
            for name, preemptive in policies:
                label = policy_label(name, preemptive)
                runs[label].append(
                    simulate(
                        instance, epoch, budget, name,
                        preemptive=preemptive, config=cfg,
                    )
                )
            if include_offline:
                runs["OFFLINE-LR"].append(
                    simulate_offline(
                        profiles, epoch, budget,
                        max_combinations=offline_max_combinations,
                    )
                )

    return {
        label: AggregateResult.from_runs(label, results)
        for label, results in runs.items()
    }


def sweep(
    values: Sequence,
    make_instance_for: Callable[[object], InstanceFactory],
    epoch_for: Callable[[object], Epoch],
    budget_for: Callable[[object], BudgetVector],
    policies: Sequence[tuple[str, bool]],
    repetitions: int = 10,
    seed: int = 0,
    include_offline: bool = False,
    config: Optional[MonitorConfig] = None,
    *,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    faults_for: Optional[Callable[[object], Optional[FailureModel]]] = None,
    retry: Optional[RetryPolicy] = None,
) -> dict[object, dict[str, AggregateResult]]:
    """Run a suite at every point of a one-dimensional parameter sweep.

    ``config`` acts as the template for every point: engine, worker count
    and retry policy apply everywhere (a config may hold a retry policy
    with no failure model precisely for this use).  ``faults_for`` stays
    a first-class sweep hook — it maps each sweep value to the failure
    model for that point (or ``None`` for a failure-free point),
    overriding the template's ``faults`` field per point.  The bare
    ``engine=``/``workers=``/``retry=`` keywords were removed: passing any
    of them raises :class:`TypeError` naming the ``config=`` replacement.
    """
    cfg = resolve_config(
        config, engine=engine, retry=retry, workers=workers, owner="sweep"
    )
    results: dict[object, dict[str, AggregateResult]] = {}
    for offset, value in enumerate(values):
        point_cfg = cfg
        if faults_for is not None:
            point_faults = faults_for(value)
            # Retry and health configs are meaningless (and rejected by
            # the monitor) without a failure model, so fault-free points
            # drop them too.
            point_cfg = cfg.replace(
                faults=point_faults,
                retry=cfg.retry if point_faults is not None else None,
                health=cfg.health if point_faults is not None else None,
            )
        results[value] = run_suite(
            make_instance=make_instance_for(value),
            epoch=epoch_for(value),
            budget=budget_for(value),
            policies=policies,
            repetitions=repetitions,
            seed=seed + offset,
            include_offline=include_offline,
            config=point_cfg,
        )
    return results
