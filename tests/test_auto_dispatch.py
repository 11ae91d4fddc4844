"""``engine="auto"``: bag-size dispatch between the two fixed engines.

The auto engine is admissible under the same contract as the vectorized
one: every schedule it produces must be bit-for-bit what *either* fixed
engine would have produced, including runs where the dispatch controller
migrates the candidate pool mid-run (both directions, forced here by
monkeypatching the module-level thresholds).  The controller itself
(EWMA, hysteresis band, dwell) and the exact pool migrations get unit
tests; the entry points (``simulate``, ``run_suite``, ``sweep``,
``MonitoringProxy``) get seed-for-seed equality checks; a hypothesis
property sweeps mixed sparse/dense instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import ProfileSet
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.arrivals import arrivals_from_profiles
from repro.online.config import Engine, MonitorConfig, resolve_config
from repro.online.dispatch import (
    DispatchController,
    fast_pool_from_reference,
    reference_pool_from_fast,
)
from repro.online import dispatch
from repro.online.faults import FailureModel, RetryPolicy
from repro.online.fastpath import FastCandidatePool
from repro.online.monitor import OnlineMonitor
from repro.policies import MRSF, make_policy
from repro.proxy import MonitoringProxy
from repro.sim.arena import compile_arena
from repro.sim.engine import simulate
from repro.sim.runner import run_suite, sweep
from repro.traces.noise import perfect_predictions
from repro.traces.poisson import poisson_trace
from repro.workloads.generator import GeneratorSpec, generate_profiles
from repro.workloads.templates import LengthRule
from tests.conftest import make_cei, random_general_instance

PAPER_POLICIES = ["S-EDF", "MRSF", "M-EDF"]


def _poisson_instance(window, rate, rank_max, chronons=120, seed=3):
    epoch = Epoch(chronons)
    rng = np.random.default_rng(seed)
    trace = poisson_trace(60, epoch, rate, rng)
    profiles = generate_profiles(
        perfect_predictions(trace),
        epoch,
        GeneratorSpec(num_profiles=25, rank_max=rank_max),
        LengthRule.window(window),
        rng,
    )
    return epoch, profiles


SPARSE = (8, 6.0, 4)
DENSE = (60, 30.0, 8)


def _three_way(profiles, epoch, budget, policy, preemptive=True, arena=None):
    """Schedules from reference, vectorized and auto on one instance."""
    results = {}
    for engine in ("reference", "vectorized", "auto"):
        source = arena if (arena is not None and engine != "reference") else profiles
        results[engine] = simulate(
            source, epoch, budget, policy, preemptive=preemptive,
            config=MonitorConfig(engine=engine),
        )
    return results


class TestCoercion:
    def test_auto_is_an_engine(self):
        assert Engine.coerce("auto") is Engine.AUTO
        assert MonitorConfig(engine="auto").engine is Engine.AUTO

    def test_legacy_shim_graduated_to_type_error(self):
        with pytest.raises(TypeError, match=r"simulate: the engine="):
            resolve_config(None, engine="auto", owner="simulate")

    def test_monitor_exposes_auto(self):
        monitor = OnlineMonitor(
            make_policy("MRSF"),
            BudgetVector.constant(1, 10),
            config=MonitorConfig(engine="auto"),
        )
        assert monitor.engine == "auto"
        assert monitor.dispatch_stats is not None


class TestDispatchController:
    def test_ewma_jump_starts_to_first_observation(self):
        controller = DispatchController(fast=False)
        controller.observe(40)
        assert controller.ewma == 40.0

    def test_first_switch_is_dwell_free(self):
        controller = DispatchController(
            fast=False, dense_threshold=10.0, min_dwell=16
        )
        assert controller.observe(50) is True

    def test_dwell_blocks_consecutive_switches(self):
        controller = DispatchController(
            fast=False, dense_threshold=10.0, sparse_threshold=5.0,
            alpha=1.0, min_dwell=3,
        )
        assert controller.observe(50) is True  # first switch: free
        # Immediately sparse again — but dwell pins the engine.
        assert controller.observe(0) is True
        assert controller.observe(0) is True
        assert controller.observe(0) is True
        # Dwell served; the EWMA (alpha=1 tracks the last bag) releases it.
        assert controller.observe(0) is False

    def test_hysteresis_band_holds_the_engine(self):
        controller = DispatchController(
            fast=True, dense_threshold=10.0, sparse_threshold=5.0,
            alpha=1.0, min_dwell=0,
        )
        # In the band [5, 10): no switch either way.
        assert controller.observe(7) is True
        controller.fast = False
        assert controller.observe(7) is False


class TestAutoEquivalence:
    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    @pytest.mark.parametrize("preemptive", [True, False])
    @pytest.mark.parametrize("regime", [SPARSE, DENSE])
    def test_matches_both_engines(self, policy_name, preemptive, regime):
        epoch, profiles = _poisson_instance(*regime)
        budget = BudgetVector.constant(2, len(epoch))
        results = _three_way(
            profiles, epoch, budget, policy_name, preemptive,
            arena=compile_arena(profiles),
        )
        assert (
            results["reference"].schedule.probes
            == results["vectorized"].schedule.probes
            == results["auto"].schedule.probes
        )
        assert (
            results["reference"].completeness == results["auto"].completeness
        )

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_matches_without_arena(self, policy_name):
        # No arena: auto starts on reference and dispatches from observed
        # bags alone.
        epoch, profiles = _poisson_instance(*DENSE)
        budget = BudgetVector.constant(1, len(epoch))
        ref = simulate(profiles, epoch, budget, policy_name,
                       config=MonitorConfig(engine="reference"))
        auto = simulate(profiles, epoch, budget, policy_name,
                        config=MonitorConfig(engine="auto"))
        assert ref.schedule.probes == auto.schedule.probes

    def test_kernel_less_policy_degrades_to_pure_reference(self):
        # use_profile_rank MRSF has no kernel, so auto cannot host it on
        # the fast pool: the run is plain reference, no dispatch ticks.
        epoch, profiles = _poisson_instance(*SPARSE)
        budget = BudgetVector.constant(2, len(epoch))
        policy = MRSF(use_profile_rank=True)
        ref = simulate(profiles, epoch, budget, MRSF(use_profile_rank=True),
                       config=MonitorConfig(engine="reference"))
        auto = simulate(profiles, epoch, budget, policy,
                        config=MonitorConfig(engine="auto"))
        assert ref.schedule.probes == auto.schedule.probes

    def test_auto_with_faults_matches_reference(self):
        # Fault verdicts are pure functions of (resource, chronon,
        # attempt), so the equivalence extends to failing runs.
        epoch, profiles = _poisson_instance(*SPARSE)
        budget = BudgetVector.constant(2, len(epoch))
        outcomes = {}
        for engine in ("reference", "auto"):
            outcomes[engine] = simulate(
                profiles, epoch, budget, "MRSF",
                config=MonitorConfig(
                    engine=engine,
                    faults=FailureModel(rate=0.3, seed=11),
                    retry=RetryPolicy(max_retries=1),
                ),
            )
        assert (
            outcomes["reference"].schedule.probes
            == outcomes["auto"].schedule.probes
        )
        assert (
            outcomes["reference"].probes_failed == outcomes["auto"].probes_failed
        )


class TestMidRunSwitches:
    """Forced migrations: thresholds squeezed around the observed bags."""

    @staticmethod
    def _straddle_thresholds(epoch, profiles, budget, policy_name, monkeypatch):
        """Pin the thresholds around the run's own bag trajectory so the
        EWMA crosses them repeatedly, whatever the instance looks like."""
        monitor = OnlineMonitor(
            make_policy(policy_name), budget,
            config=MonitorConfig(engine="reference"),
        )
        arrivals = arrivals_from_profiles(profiles)
        bags = []
        for chronon in epoch:
            monitor.step(chronon, arrivals.get(chronon, ()))
            bags.append(monitor.pool.num_active())
        positive = [bag for bag in bags if bag > 0]
        assert positive, "degenerate instance: no non-empty bags"
        dense = float(np.percentile(positive, 60))
        sparse = min(float(np.percentile(positive, 40)), dense - 0.5)
        monkeypatch.setattr(dispatch, "DENSE_THRESHOLD", dense)
        monkeypatch.setattr(dispatch, "SPARSE_THRESHOLD", sparse)
        monkeypatch.setattr(dispatch, "MIN_DWELL", 2)

    def _run_auto(self, epoch, profiles, budget, policy_name, arena=None):
        monitor = OnlineMonitor(
            make_policy(policy_name),
            budget,
            config=MonitorConfig(engine="auto"),
            arena=arena,
        )
        monitor.run(
            epoch,
            arena.arrivals if arena is not None
            else arrivals_from_profiles(profiles),
        )
        return monitor

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_forced_switches_keep_schedules_identical(
        self, policy_name, monkeypatch
    ):
        epoch, profiles = _poisson_instance(*SPARSE)
        budget = BudgetVector.constant(2, len(epoch))
        reference = simulate(profiles, epoch, budget, policy_name,
                             config=MonitorConfig(engine="reference"))
        self._straddle_thresholds(epoch, profiles, budget, policy_name,
                                  monkeypatch)
        monitor = self._run_auto(epoch, profiles, budget, policy_name)
        assert monitor.dispatch_stats.switches > 0
        assert monitor.schedule.probes == reference.schedule.probes

    def test_switches_happen_in_both_directions(self, monkeypatch):
        epoch, profiles = _poisson_instance(*SPARSE)
        budget = BudgetVector.constant(2, len(epoch))
        self._straddle_thresholds(epoch, profiles, budget, "S-EDF",
                                  monkeypatch)
        monitor = self._run_auto(epoch, profiles, budget, "S-EDF")
        stats = monitor.dispatch_stats
        # At least one promotion and one demotion: more switches than a
        # single one-way migration.
        assert stats.switches >= 2
        assert stats.reference_chronons > 0
        assert stats.vectorized_chronons > 0

    def test_dense_arena_starts_vectorized(self):
        epoch, profiles = _poisson_instance(*DENSE)
        arena = compile_arena(profiles)
        assert arena.mean_bag >= dispatch.DENSE_THRESHOLD
        budget = BudgetVector.constant(1, len(epoch))
        monitor = self._run_auto(epoch, profiles, budget, "MRSF", arena=arena)
        assert monitor.dispatch_stats.initial_engine == "vectorized"

    def test_sparse_arena_starts_reference(self):
        epoch, profiles = _poisson_instance(*SPARSE)
        arena = compile_arena(profiles)
        assert arena.mean_bag < dispatch.DENSE_THRESHOLD
        budget = BudgetVector.constant(2, len(epoch))
        monitor = self._run_auto(epoch, profiles, budget, "MRSF", arena=arena)
        assert monitor.dispatch_stats.initial_engine == "reference"


class TestMigrations:
    """The exact pool rebuilds behind a switch."""

    def _reference_pool_mid_run(self, chronons_run=40):
        epoch, profiles = _poisson_instance(*SPARSE)
        monitor = OnlineMonitor(
            make_policy("MRSF"),
            BudgetVector.constant(2, len(epoch)),
            config=MonitorConfig(engine="reference"),
        )
        arrivals = arrivals_from_profiles(profiles)
        for chronon in range(chronons_run):
            monitor.step(chronon, arrivals.get(chronon, ()))
        return monitor.pool, chronons_run - 1

    def test_round_trip_preserves_observable_state(self):
        ref, now = self._reference_pool_mid_run()
        back = reference_pool_from_fast(fast_pool_from_reference(ref, now), now)
        assert set(back._states) == set(ref._states)
        for cid, st in ref._states.items():
            assert back._states[cid].captured == st.captured
            assert back._states[cid].satisfied == st.satisfied
            assert back._states[cid].failed == st.failed
        assert (
            {ei.seq for ei in back._active.values()}
            == {ei.seq for ei in ref._active.values()}
        )
        assert back._num_registered == ref._num_registered
        assert back._num_satisfied == ref._num_satisfied
        assert back._num_failed == ref._num_failed

    def test_fast_rebuild_matches_bag_and_counters(self):
        ref, now = self._reference_pool_mid_run()
        fast = fast_pool_from_reference(ref, now)
        assert fast.num_active() == ref.num_active()
        assert (
            {fast.row_seq[row] for row in fast.bag().tolist()}
            == {ei.seq for ei in ref._active.values()}
        )
        assert fast.num_registered == ref.num_registered
        assert fast.num_satisfied == ref.num_satisfied

    def test_rebuilt_fast_pool_accepts_new_registrations(self):
        ref, now = self._reference_pool_mid_run()
        fast = fast_pool_from_reference(ref, now)
        before = fast.num_registered
        fast.register(make_cei((0, now + 2, now + 6)), now + 1)
        assert fast.num_registered == before + 1


class TestEntryPoints:
    EPOCH = Epoch(15)

    @staticmethod
    def _factory(rng):
        return random_general_instance(
            rng, num_resources=4, num_chronons=15, num_ceis=10,
            max_rank=2, max_width=3,
        )

    def test_run_suite_auto_matches_reference(self):
        budget = BudgetVector.constant(1, 15)
        outcomes = {
            engine: run_suite(
                self._factory, self.EPOCH, budget, [("MRSF", True)],
                repetitions=3, config=MonitorConfig(engine=engine),
            )["MRSF(P)"]
            for engine in ("reference", "auto")
        }
        assert (
            outcomes["reference"].completeness_mean
            == outcomes["auto"].completeness_mean
        )
        assert outcomes["reference"].probes_mean == outcomes["auto"].probes_mean

    def test_sweep_auto_matches_reference(self):
        kwargs = dict(
            make_instance_for=lambda value: self._factory,
            epoch_for=lambda value: self.EPOCH,
            budget_for=lambda value: BudgetVector.constant(value, 15),
            policies=[("S-EDF", True)],
            repetitions=2,
        )
        via_auto = sweep([1, 2], config=MonitorConfig(engine="auto"), **kwargs)
        via_ref = sweep([1, 2], config=MonitorConfig(engine="reference"), **kwargs)
        for value in (1, 2):
            assert (
                via_auto[value]["S-EDF(P)"].completeness_mean
                == via_ref[value]["S-EDF(P)"].completeness_mean
            )

    def test_proxy_auto_matches_reference(self):
        pool = ResourcePool.from_names(["A", "B", "C"])
        proxy = MonitoringProxy(
            Epoch(20), pool, budget=1.0, policy="MRSF",
            config=MonitorConfig(engine="auto"),
        )
        assert proxy.engine == "auto"
        proxy.registry.register("ana")
        proxy.submit_ceis(
            "ana",
            [make_cei((0, 0, 5), (1, 3, 9)), make_cei((2, 6, 12))],
        )
        via_auto = proxy.run()
        via_ref = proxy.run(config=MonitorConfig(engine="reference"))
        assert via_auto.schedule.probes == via_ref.schedule.probes

    def test_proxy_legacy_engine_keyword_raises(self):
        pool = ResourcePool.from_names(["A", "B"])
        with pytest.raises(TypeError, match=r"MonitoringProxy: the engine="):
            MonitoringProxy(Epoch(10), pool, budget=1.0, engine="auto")


class TestBoundaries:
    def test_grow_rows_from_zero_capacity_terminates(self):
        # A consistent zero-capacity state (what an arena of zero rows
        # would produce without the max(n, 1) floor): the doubling loop
        # must not stall at zero.
        pool = FastCandidatePool()
        pool._row_cap = 0
        for name in ("npr_seq", "npr_finish", "npr_finish_f",
                     "npr_resource", "npr_cidx", "npr_static"):
            setattr(pool, name, np.zeros(0, getattr(pool, name).dtype))
        pool.np_active = np.zeros(0, bool)
        pool._grow_rows(5)
        assert pool._row_cap >= 5
        assert pool.npr_seq.size >= 5

    def test_grow_ceis_from_zero_capacity_terminates(self):
        pool = FastCandidatePool()
        pool._cei_cap = 0
        for name in ("npc_rank_f", "npc_captured_f", "npc_weight",
                     "npc_medf_s_f", "npc_medf_open_f"):
            setattr(pool, name, np.zeros(0, np.float64))
        pool._grow_ceis(3)
        assert pool._cei_cap >= 3
        assert pool.npc_rank_f.size >= 3

    def test_empty_arena_pool_has_unit_caps(self):
        # The constructor floors arena-sized caps at one, so the doubling
        # loop in _grow_rows always makes progress.
        pool = FastCandidatePool(arena=compile_arena(ProfileSet()))
        assert pool._row_cap >= 1
        assert pool._cei_cap >= 1

    def test_empty_arena_runs_on_auto(self):
        arena = compile_arena(ProfileSet())
        assert arena.mean_bag == 0.0
        monitor = OnlineMonitor(
            make_policy("MRSF"),
            BudgetVector.constant(1, 10),
            config=MonitorConfig(engine="auto"),
            arena=arena,
        )
        monitor.run(Epoch(10), arena.arrivals)
        assert monitor.probes_used == 0
        assert monitor.dispatch_stats.idle_skipped == 10

    def test_single_row_instance_all_engines(self):
        profiles = ProfileSet.from_ceis([make_cei((0, 2, 6))])
        epoch = Epoch(10)
        budget = BudgetVector.constant(1, 10)
        results = _three_way(
            profiles, epoch, budget, "S-EDF", arena=compile_arena(profiles)
        )
        probes = results["reference"].schedule.probes
        assert probes == results["vectorized"].schedule.probes
        assert probes == results["auto"].schedule.probes
        assert results["auto"].probes_used == 1


class TestBatchedRun:
    """run() batching/skipping is invisible in every observable."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "auto"])
    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_run_equals_step_loop(self, engine, policy_name):
        epoch, profiles = _poisson_instance(*SPARSE)
        budget = BudgetVector.constant(2, len(epoch))
        arrivals = arrivals_from_profiles(profiles)

        stepped = OnlineMonitor(
            make_policy(policy_name), budget, config=MonitorConfig(engine=engine)
        )
        for chronon in epoch:
            stepped.step(chronon, arrivals.get(chronon, ()))

        batched = OnlineMonitor(
            make_policy(policy_name), budget, config=MonitorConfig(engine=engine)
        )
        batched.run(epoch, arrivals)

        assert batched.schedule.probes == stepped.schedule.probes
        assert batched.probes_used == stepped.probes_used
        assert batched.believed_completeness == stepped.believed_completeness

    def test_idle_chronons_are_skipped(self):
        # A gap between two windows: the run loop must hop over it.
        profiles = ProfileSet.from_ceis(
            [make_cei((0, 0, 2)), make_cei((1, 40, 44))]
        )
        monitor = OnlineMonitor(
            make_policy("S-EDF"),
            BudgetVector.constant(1, 50),
            config=MonitorConfig(engine="auto"),
        )
        monitor.run(Epoch(50), arrivals_from_profiles(profiles))
        assert monitor.dispatch_stats.idle_skipped > 20
        assert monitor.probes_used == 2

    def test_custom_chronon_hooks_disable_batching(self):
        # A policy overriding on_chronon_start must see every chronon.
        seen = []

        class Spy(type(make_policy("S-EDF"))):
            def on_chronon_start(self, chronon):
                seen.append(chronon)

        monitor = OnlineMonitor(
            Spy(), BudgetVector.constant(1, 12),
            config=MonitorConfig(engine="auto"),
        )
        monitor.run(Epoch(12), {})
        assert seen == list(range(12))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_mixed_density_equivalence(seed):
    """Random mixed instances: all three engines, one schedule."""
    rng = np.random.default_rng(seed)
    # Sparse scatter plus a dense clump in the same instance, so the
    # dispatch EWMA crosses regimes within a run once thresholds allow.
    sparse_part = random_general_instance(
        rng, num_resources=6, num_chronons=40, num_ceis=8,
        max_rank=2, max_width=4,
    )
    dense_part = random_general_instance(
        rng, num_resources=6, num_chronons=18, num_ceis=30,
        max_rank=3, max_width=12,
    )
    ceis = [cei for part in (sparse_part, dense_part)
            for profile in part for cei in profile.ceis]
    profiles = ProfileSet.from_ceis(ceis)
    epoch = Epoch(40)
    budget = BudgetVector.constant(2, 40)
    old = (dispatch.DENSE_THRESHOLD, dispatch.SPARSE_THRESHOLD, dispatch.MIN_DWELL)
    dispatch.DENSE_THRESHOLD, dispatch.SPARSE_THRESHOLD = 12.0, 6.0
    dispatch.MIN_DWELL = 3
    try:
        results = _three_way(
            profiles, epoch, budget, "MRSF", arena=compile_arena(profiles)
        )
    finally:
        (dispatch.DENSE_THRESHOLD, dispatch.SPARSE_THRESHOLD,
         dispatch.MIN_DWELL) = old
    assert (
        results["reference"].schedule.probes
        == results["vectorized"].schedule.probes
        == results["auto"].schedule.probes
    )
