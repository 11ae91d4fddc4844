"""Vectorized fast path for the online monitor.

The reference engine (:class:`repro.online.candidates.CandidatePool` plus
the heap in ``OnlineMonitor._probe_phase``) pays the paper's ``O(A log A)``
chronon bound in pure-Python ``sort_key`` calls.  This module provides the
``engine="vectorized"`` alternative:

* :class:`FastCandidatePool` — a columnar candidate table.  Every usable
  execution interval of every CEI occupies one row (rows of one CEI are
  contiguous).  The *static* columns come from a compiled
  :class:`repro.sim.arena.InstanceArena` — shared with every other pool
  of that arena — or from the pool's own private arena, which
  registration extends one CEI at a time.  The *per-run* state has
  exactly one representation, NumPy columns: the row state
  (``npr_state``: live / captured / released / expired), the candidate
  bag mask (``np_active``), the CEI status (``npc_status``), the
  captured counts and M-EDF aggregates the kernels read
  (``npc_captured_f``, ``npc_medf_s_f``, ``npc_medf_open_f``) and the
  reachable-capture counts the expiry check reads (``npc_usable_f``).
  Per-resource bag counts are derived from the bag when asked for, not
  kept as a second copy of the mask.  Window events and captures are
  mask writes over the rows they touch, with the aggregates updated by
  ``np.add.at`` — a fixed number of NumPy calls per event, whatever its
  size.
* :func:`run_fast_phases` — the vectorized ``probeEIs`` loop.  Each phase
  batch-scores the whole candidate bag with one
  :class:`repro.policies.kernels.ScoreKernel` call, then *selects* rather
  than sorts: a budget-aware ``np.argpartition`` extracts the ``~C_j +
  overflow`` smallest keys and only that slice is exact-sorted into the
  probe stream.  The partition boundary key is remembered as a strict
  lower bound on every unmaterialized candidate; whenever the walk would
  pick an overlay-heap re-rank at or past that bound — or drains the
  slice with budget left — the cut widens geometrically and the next
  slice materializes.  The probe walk consumes the stream re-ranking
  siblings of captured EIs through an overlay heap with stale-entry
  invalidation — the same invariant the reference heap maintains, at
  ``O(A + k log k)`` per phase instead of ``O(A log A)``.

Some static columns are also kept as the arena's Python lists, because
code reads them one scalar at a time and a list index is several times
cheaper than a NumPy scalar read: ``row_finish``, ``row_seq`` and
``row_resource`` (the probe walk's tie-break key and probed-resource
check per candidate it inspects), ``cei_row_begin``/``cei_row_end``
(the sibling refresh walks a touched CEI's rows), ``cei_weight`` (the
weighted kernels' scalar re-score), ``row_cidx`` (single-row lookups),
and ``row_ei``/``cei_obj`` (the objects the pool API hands out).  None
of them is run state: nothing a run does writes them.

The two engines are interchangeable: for any deterministic policy they
produce bit-for-bit identical schedules, probe counts and completeness
(``tests/test_fastpath_equivalence.py`` enforces this across policies,
execution modes, cost models, push resources and capture semantics).  The
only exception is RANDOM, whose priority draws depend on candidate
iteration order; it stays seeded-reproducible per engine but the two
engines consume the RNG in different orders.  Policies without a batched
kernel run unchanged against this pool through the reference probe loop
(it only uses the public ``CandidatePool`` surface, which this class
implements in full).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.resource import ResourceId, ResourcePool
from repro.core.timebase import Chronon
from repro.policies.kernels import pack_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.monitor import OnlineMonitor
    from repro.sim.arena import InstanceArena

_EPS = 1e-9

# Top-k phase selection knobs (module-level so tests and the speedup gate
# can force tiny cuts or disable selection wholesale).  The initial cut
# covers the picks the budget can possibly consume (each probe attempt
# costs at least the cheapest resource) plus TOPK_OVERFLOW extra rows to
# absorb walk skips — captured siblings, already-probed or backed-off
# resources — without widening; each widening multiplies the cut by
# TOPK_GROWTH.
TOPK_ENABLED = True
TOPK_OVERFLOW = 32
TOPK_GROWTH = 4

# CEI status codes (``npc_status``).  PENDING marks a CEI compiled into
# the arena but not yet revealed to this run.
PENDING, OPEN, SATISFIED, FAILED, CANCELLED = range(5)

# Row state codes (``npr_state``).  A LIVE row is uncaptured and still
# capturable — pending or in the bag; bag membership is ``np_active``.
LIVE, CAPTURED, RELEASED, EXPIRED = range(4)

# Static NumPy columns (arena-shared, or owned and grown with a private
# arena) and per-run state columns, per row and per CEI.
_STATIC_ROW = (
    "npr_seq", "npr_start_f", "npr_finish", "npr_finish_f", "npr_resource",
    "npr_cidx", "npr_static",
)
_STATIC_CEI = (
    "npc_rank_f", "npc_weight", "npc_required_f", "npc_row_begin", "npc_row_end",
)
_RUN_ROW = (("np_active", bool), ("npr_state", np.int8))
_RUN_CEI = (
    ("npc_status", np.int8),
    ("npc_captured_f", np.float64),
    ("npc_medf_s_f", np.float64),
    ("npc_medf_open_f", np.float64),
    ("npc_usable_f", np.float64),
)


def _distinct(values: np.ndarray) -> np.ndarray:
    """``values`` without repeats (in no particular order)."""
    if values.size < 2:
        return values
    return np.array(list(set(values.tolist())), np.int64)


def _ranges(begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(b, e)`` over the (at least one) pairs."""
    if begin.size == 1:
        return np.arange(begin[0], end[0])
    lens = end - begin
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(begin - ends + lens, lens)


class FastCEIView:
    """Read-only capture state of one CEI (``state_of`` compatibility)."""

    __slots__ = ("cei", "captured_count", "satisfied", "failed", "cancelled")

    def __init__(
        self,
        cei: ComplexExecutionInterval,
        captured_count: int,
        satisfied: bool,
        failed: bool,
        cancelled: bool = False,
    ) -> None:
        self.cei = cei
        self.captured_count = captured_count
        self.satisfied = satisfied
        self.failed = failed
        self.cancelled = cancelled

    @property
    def residual(self) -> int:
        return max(0, self.cei.required - self.captured_count)

    @property
    def closed(self) -> bool:
        return self.failed or self.satisfied or self.cancelled


class FastCandidatePool:
    """Columnar implementation of the candidate pool.

    Implements the same public surface as
    :class:`repro.online.candidates.CandidatePool` (including the
    :class:`repro.policies.base.MonitorView` protocol), so reference-path
    policies and the monitor's fallback ranking loop run against it
    unchanged, while the vectorized probe loop reads the columns directly.

    Invariants (``tests/pool_audit.py`` recomputes each from the row
    states and the arena): a row is in the bag iff it is LIVE, its window
    has opened and its CEI is OPEN; ``npc_captured_f`` counts CAPTURED
    rows; ``npc_medf_s_f``/``npc_medf_open_f`` are the M-EDF ``S`` and
    ``n_open`` of the CEI's uncaptured siblings; ``npc_usable_f`` is the
    captured count plus the LIVE rows.
    """

    def __init__(self, arena: Optional["InstanceArena"] = None) -> None:
        #: Column reallocations performed so far.  Growth is geometric
        #: (capacity doubling), so this stays O(log rows) for any
        #: registration stream — bench_micro's growth bench and
        #: tests/test_fastpath_equivalence.py guard the bound.
        self.mirror_reallocs = 0
        self._owns_arena = arena is None
        if arena is None:
            from repro.sim.arena import empty_arena  # lazy: import cycle

            arena = empty_arena()
            self._row_cap, self._cei_cap = 256, 64
        else:
            self._row_cap = max(len(arena.row_seq), 1)
            self._cei_cap = max(len(arena.cei_rank), 1)
        for name, dtype in _RUN_ROW:
            setattr(self, name, np.zeros(self._row_cap, dtype))
        for name, dtype in _RUN_CEI:
            setattr(self, name, np.zeros(self._cei_cap, dtype))
        if self._owns_arena:
            for name in _STATIC_ROW:
                setattr(self, name, np.zeros(self._row_cap, getattr(arena, name).dtype))
            for name in _STATIC_CEI:
                setattr(self, name, np.zeros(self._cei_cap, getattr(arena, name).dtype))
            self._max_seq = 0
            self._max_finish = 0
            self._packable = True
        self._n_rows = 0  # rows / CEIs the columns cover
        self._n_ceis = 0
        # The bag as sorted row ids, plus the rows' resources: rebuilt
        # after activations, filtered through np_active after removals.
        self._bag: Optional[np.ndarray] = None
        self._bag_res: Optional[np.ndarray] = None
        self._bag_stale = False
        self._num_active = 0
        self._num_registered = 0
        self._num_satisfied = 0
        self._num_failed = 0
        self._num_cancelled = 0
        self._num_released = 0
        self._bind(arena)

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------

    def _bind(self, arena: "InstanceArena") -> None:
        """Point the static columns at ``arena`` and cover its rows/CEIs."""
        self._arena = arena
        self.row_seq = arena.row_seq
        self.row_finish = arena.row_finish
        self.row_resource = arena.row_resource
        self.row_cidx = arena.row_cidx
        self._row_ei = arena.row_ei
        self.cei_rank = arena.cei_rank
        self.cei_weight = arena.cei_weight
        self.cei_row_begin = arena.cei_row_begin
        self.cei_row_end = arena.cei_row_end
        self._cei_obj = arena.cei_obj
        self._row_of_seq = arena.row_of_seq
        self._cidx_of_cid = arena.cidx_of_cid
        if not self._owns_arena:
            for name in _STATIC_ROW + _STATIC_CEI:
                setattr(self, name, getattr(arena, name))
            self._max_seq = arena.max_seq
            self._max_finish = arena.max_finish
            self._packable = arena.packable
        self._extend()

    def _extend(self) -> None:
        """Cover rows/CEIs the arena's lists gained since the last call.

        New CEIs start PENDING with their compiled M-EDF aggregates; new
        rows start LIVE and outside the bag.  A private arena's static
        NumPy columns are written here too.
        """
        from repro.sim.arena import _cei_columns, _key_bounds, _row_columns

        arena = self._arena
        a, b = self._n_rows, self._n_ceis
        n, m = len(arena.row_seq), len(arena.cei_rank)
        if n > self._row_cap:
            self._grow_rows(n)
        if m > self._cei_cap:
            self._grow_ceis(m)
        if self._owns_arena:
            if n > a:
                rows = _row_columns(arena, a)
                for name, column in rows.items():
                    getattr(self, name)[a:n] = column
                seq, finish = _key_bounds(rows["npr_seq"], rows["npr_finish"])
                self._max_seq = max(self._max_seq, seq)
                self._max_finish = max(self._max_finish, finish)
                self._packable = (
                    self._max_seq < (1 << 21) and self._max_finish < (1 << 21)
                )
            if m > b:
                for name, column in _cei_columns(arena, b).items():
                    getattr(self, name)[b:m] = column
        if m > b:
            self.npc_medf_s_f[b:m] = arena.cei_medf_s0[b:]
            self.npc_medf_open_f[b:m] = arena.cei_medf_open0[b:]
            self.npc_usable_f[b:m] = self.npc_row_end[b:m] - self.npc_row_begin[b:m]
        self._n_rows, self._n_ceis = n, m

    def _grow_rows(self, needed: int) -> None:
        # Guard the doubling loop against a zero starting capacity: 0 * 2
        # never reaches `needed`.
        cap = max(self._row_cap, 1)
        while cap < needed:
            cap *= 2
        names = [name for name, _ in _RUN_ROW]
        if self._owns_arena:
            names.extend(_STATIC_ROW)
        self._regrow(names, cap, self._n_rows)
        self._row_cap = cap

    def _grow_ceis(self, needed: int) -> None:
        cap = max(self._cei_cap, 1)
        while cap < needed:
            cap *= 2
        names = [name for name, _ in _RUN_CEI]
        if self._owns_arena:
            names.extend(_STATIC_CEI)
        self._regrow(names, cap, self._n_ceis)
        self._cei_cap = cap

    def _regrow(self, names: Sequence[str], cap: int, filled: int) -> None:
        for name in names:
            old = getattr(self, name)
            new = np.zeros(cap, old.dtype)
            kept = min(filled, old.size)
            new[:kept] = old[:kept]
            setattr(self, name, new)
        self.mirror_reallocs += 1

    def adopt_arena(self, arena: "InstanceArena") -> None:
        """Absorb a patched generation of this pool's arena mid-run.

        ``apply_patch`` has already extended the shared Python containers
        in place and built extended NumPy columns on the returned arena;
        this re-points the static columns at them and extends the
        per-run columns (fresh CEIs start PENDING from their compiled
        aggregates).  All run state accumulated so far (captures, bag,
        counters, releases) is untouched: adopting a patch is invisible
        to the schedule until the patched CEIs' arrival chronons are
        stepped.
        """
        if self._owns_arena:
            raise ModelError("only arena-backed pools can adopt a patched arena")
        if arena.cidx_of_cid is not self._arena.cidx_of_cid:
            raise ModelError(
                "adopt_arena requires a patched generation of this pool's own "
                "arena (shared containers must be identical)"
            )
        self._bind(arena)

    # ------------------------------------------------------------------
    # Bag maintenance
    # ------------------------------------------------------------------

    def _activate(self, rows: np.ndarray) -> None:
        """Add LIVE, currently inactive ``rows`` to the bag."""
        self.np_active[rows] = True
        self._num_active += rows.size
        self._bag = None

    def _deactivate(self, rows: np.ndarray) -> None:
        """Remove active ``rows`` (no repeats) from the bag."""
        self.np_active[rows] = False
        self._num_active -= rows.size
        self._bag_stale = True

    def _drop_rows(self, cidx: np.ndarray) -> None:
        """Remove every bag row of the (just closed) CEIs ``cidx``."""
        rows = _ranges(self.npc_row_begin[cidx], self.npc_row_end[cidx])
        self._deactivate(rows[self.np_active[rows]])

    def bag(self) -> np.ndarray:
        """Row ids of the candidate bag, ascending."""
        bag = self._bag
        if bag is None:
            bag = np.flatnonzero(self.np_active[: self._n_rows])
        elif self._bag_stale:
            bag = bag[self.np_active[bag]]
        else:
            return bag
        self._bag = bag
        self._bag_res = None
        self._bag_stale = False
        return bag

    def _active_on(self, resource: ResourceId) -> np.ndarray:
        """Bag rows on ``resource``, ascending."""
        bag = self._bag
        if bag is None:
            bag = self.bag()
        res = self._bag_res
        if res is None:
            res = self._bag_res = self.npr_resource[bag]
        rows = bag[res == resource]
        return rows[self.np_active[rows]] if self._bag_stale else rows

    def _events(self, timeline: dict, now: Chronon) -> Optional[np.ndarray]:
        """Rows a window-event timeline lists at ``now``.

        A shared arena's timelines are read without popping (sibling
        pools replay them too); a private one's are consumed.
        """
        if self._owns_arena:
            rows = timeline.pop(now, None)
        else:
            rows = timeline.get(now)
        return None if rows is None else np.array(rows, np.int64)

    # ------------------------------------------------------------------
    # MonitorView protocol
    # ------------------------------------------------------------------

    def is_ei_captured(self, ei: ExecutionInterval) -> bool:
        """Has this EI been captured (proxy belief)?"""
        row = self._row_of_seq.get(ei.seq)
        return row is not None and bool(self.npr_state[row] == CAPTURED)

    def captured_count(self, cei: ComplexExecutionInterval) -> int:
        """Captured-EI count of a candidate CEI (0 if unknown)."""
        cidx = self._cidx_of_cid.get(cei.cid)
        return int(self.npc_captured_f[cidx]) if cidx is not None else 0

    def active_uncaptured_on(self, resource: ResourceId) -> int:
        """Number of active uncaptured candidate EIs on ``resource``."""
        return int(self._active_on(resource).size)

    # ------------------------------------------------------------------
    # Registration and window events
    # ------------------------------------------------------------------

    def register(
        self, cei: ComplexExecutionInterval, now: Chronon, collect: bool = True
    ) -> list[ExecutionInterval]:
        """Add a newly-revealed CEI; returns the EIs active immediately."""
        return self.register_all((cei,), now, collect)

    def register_all(
        self,
        ceis: Sequence[ComplexExecutionInterval],
        now: Chronon,
        collect: bool = True,
    ) -> list[ExecutionInterval]:
        """Reveal CEIs arriving at ``now``; returns the EIs active immediately.

        With ``collect=False`` the returned list is always empty (the
        vectorized engine skips building it when no activation hook needs
        the objects).  Semantics match
        :meth:`repro.online.candidates.CandidatePool.register` exactly,
        including the dead-on-arrival rule for late submissions.

        A pool with a private arena first compiles the CEIs into it at
        ``now``; an arena-backed pool only accepts the CEIs (and arrival
        chronons) its arena was compiled for.  Either way registration
        then replays the compiled result: the CEI opens (or fails dead on
        arrival) and its immediate rows join the bag.
        """
        ceis = tuple(ceis)
        arena = self._arena
        cidx_of_cid = arena.cidx_of_cid
        if self._owns_arena:
            from repro.sim.arena import _register_cei  # lazy: import cycle

            for cei in ceis:
                if cei.cid in cidx_of_cid:
                    raise ModelError(f"CEI {cei.cid} registered twice")
                _register_cei(arena, cei, now)
            self._extend()
        status = self.npc_status
        rows: list[int] = []
        for cei in ceis:
            cidx = cidx_of_cid.get(cei.cid)
            if cidx is None:
                raise ModelError(
                    f"CEI {cei.cid} is not part of this pool's compiled arena"
                )
            if status[cidx] != PENDING:
                raise ModelError(f"CEI {cei.cid} registered twice")
            if now != arena.cei_release[cidx]:
                raise ModelError(
                    "arena-backed pools compile registration at the CEI's "
                    f"arrival chronon {arena.cei_release[cidx]}, got {now}"
                )
            self._num_registered += 1
            if arena.cei_failed0[cidx]:
                status[cidx] = FAILED
                self._num_failed += 1
            else:
                status[cidx] = OPEN
                rows.extend(arena.immediate_rows[cidx])
        if not rows:
            return []
        self._activate(np.array(rows, np.int64))
        if collect:
            row_ei = self._row_ei
            return [row_ei[row] for row in rows]
        return []

    def open_windows(self, now: Chronon, collect: bool = True) -> list[ExecutionInterval]:
        """Activate every EI whose window opens at ``now``; returns them."""
        rows = self._events(self._arena.activate_at, now)
        if rows is None:
            return []
        cidx = self.npr_cidx[rows]
        # Rows of never-revealed or closed CEIs stay out.  A pending row
        # is never captured: captures only take bag rows.
        keep = self.npc_status[cidx] == OPEN
        rows, cidx = rows[keep], cidx[keep]
        if not rows.size:
            return []
        # M-EDF bucket move, future -> open: the sibling's width |I|
        # becomes finish + 1 (the -T term arrives via n_open).  Released
        # rows move too — the reference sibling walk counts them — but
        # never join the bag.
        np.add.at(self.npc_medf_s_f, cidx, self.npr_start_f[rows])
        np.add.at(self.npc_medf_open_f, cidx, 1.0)
        if self._num_released:
            rows = rows[self.npr_state[rows] == LIVE]
        self._activate(rows)
        if collect:
            row_ei = self._row_ei
            return [row_ei[row] for row in rows.tolist()]
        return []

    def close_windows(self, now: Chronon, collect: bool = True) -> list[ExecutionInterval]:
        """End-of-chronon expiry (Algorithm 1, lines 20-27).

        Every LIVE row of an open CEI whose window closes at ``now``
        expires; a CEI whose captures plus remaining LIVE rows fall short
        of ``required`` fails and leaves the bag.  Released rows are
        silent.  The returned EIs match the reference pool's sequential
        walk: after a CEI fails, its later rows in this chronon's list are
        not reported.
        """
        rows = self._events(self._arena.expire_at, now)
        if rows is None:
            return []
        cidx = self.npr_cidx[rows]
        keep = (self.npc_status[cidx] == OPEN) & (self.npr_state[rows] == LIVE)
        rows, cidx = rows[keep], cidx[keep]
        if not rows.size:
            return []
        # LIVE rows of open CEIs are in the bag once their window opened.
        self.npr_state[rows] = EXPIRED
        self._deactivate(rows)
        np.subtract.at(self.npc_usable_f, cidx, 1.0)
        dead = cidx[self.npc_usable_f[cidx] < self.npc_required_f[cidx]]
        expired: list[ExecutionInterval] = []
        if collect:
            failed = set(dead.tolist())
            reported: set[int] = set()
            row_ei = self._row_ei
            for row, c in zip(rows.tolist(), cidx.tolist()):
                if c in failed:
                    if c in reported:
                        continue
                    reported.add(c)
                expired.append(row_ei[row])
        if dead.size:
            dead = _distinct(dead)
            self.npc_status[dead] = FAILED
            self._num_failed += dead.size
            self._drop_rows(dead)
        return expired

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def _capture(self, rows: np.ndarray) -> list[int]:
        """Capture bag ``rows``; returns their CEI indexes (with repeats)."""
        cidx = self.npr_cidx[rows]
        self.npr_state[rows] = CAPTURED
        self._deactivate(rows)
        np.add.at(self.npc_captured_f, cidx, 1.0)
        np.subtract.at(self.npc_medf_s_f, cidx, self.npr_finish_f[rows] + 1.0)
        np.subtract.at(self.npc_medf_open_f, cidx, 1.0)
        done = cidx[self.npc_captured_f[cidx] >= self.npc_required_f[cidx]]
        if done.size:
            done = _distinct(done)
            self.npc_status[done] = SATISFIED
            self._num_satisfied += done.size
            # Only a CEI with LIVE rows left (usable > captured) can still
            # hold bag rows; under ALL semantics a satisfied CEI never does.
            done = done[self.npc_usable_f[done] > self.npc_captured_f[done]]
            if done.size:
                self._drop_rows(done)
        return cidx.tolist()

    def _probe_rows(self, resource: ResourceId, skip: frozenset[int]) -> np.ndarray:
        """Bag rows a probe of ``resource`` captures: all but ``skip`` seqs."""
        rows = self._active_on(resource)
        if skip:
            rows = rows[~np.isin(self.npr_seq[rows], list(skip))]
        return rows

    def capture_resource_rows(
        self, resource: ResourceId, skip: frozenset[int] = frozenset()
    ) -> list[int]:
        """Vectorized-engine capture: probe ``resource``, return touched CEIs.

        ``skip`` holds EI *seqs* dropped by a partial per-EI fault verdict:
        their rows stay active and uncaptured.  The return value lists the
        CEI *index* of every captured row (with repeats, matching the
        reference's touched list) so the probe loop can re-rank siblings
        without materializing objects.
        """
        rows = self._probe_rows(resource, skip)
        return self._capture(rows) if rows.size else []

    def capture_single_row(self, row: int) -> list[int]:
        """Overlap-ablation capture of exactly one row; returns touched CEIs."""
        if not self.np_active[row]:
            return []
        return self._capture(np.array([row], np.int64))

    def capture_resource(
        self,
        resource: ResourceId,
        now: Chronon,
        skip: frozenset[int] = frozenset(),
    ) -> tuple[list[ExecutionInterval], list[ComplexExecutionInterval]]:
        """Object-level capture API (reference-path compatibility)."""
        rows = self._probe_rows(resource, skip)
        if not rows.size:
            return [], []
        row_ei = self._row_ei
        cei_obj = self._cei_obj
        captured = [row_ei[row] for row in rows.tolist()]
        return captured, [cei_obj[cidx] for cidx in self._capture(rows)]

    def capture_single(
        self, ei: ExecutionInterval
    ) -> tuple[list[ExecutionInterval], list[ComplexExecutionInterval]]:
        """Capture exactly one EI (the overlap-exploitation ablation)."""
        row = self._row_of_seq.get(ei.seq)
        if row is None or not self.np_active[row]:
            return [], []
        touched = [self._cei_obj[cidx] for cidx in self.capture_single_row(row)]
        return [ei], touched

    # ------------------------------------------------------------------
    # Load shedding (repro.online.shedding) and churn
    # ------------------------------------------------------------------

    def is_ei_released(self, ei: ExecutionInterval) -> bool:
        """Was this EI withdrawn by load shedding?"""
        row = self._row_of_seq.get(ei.seq)
        return row is not None and bool(self.npr_state[row] == RELEASED)

    def release_ei(self, ei: ExecutionInterval) -> bool:
        """Withdraw one uncaptured EI from the probe-able bag for good.

        Pure deactivation: the M-EDF aggregates are *not* adjusted,
        because the reference sibling walk keeps counting a released
        sibling exactly like an uncaptured one (only captures subtract).
        Pending released rows get their future->open aggregate move at
        window opening without activating.  Semantics otherwise match
        :meth:`repro.online.candidates.CandidatePool.release_ei`.
        """
        row = self._row_of_seq.get(ei.seq)
        if row is None:
            return False  # expired on arrival: never materialized
        cidx = self.row_cidx[row]
        if self.npc_status[cidx] != OPEN:
            return False
        state = self.npr_state[row]
        if state == CAPTURED or state == RELEASED:
            return False
        self.npr_state[row] = RELEASED
        self._num_released += 1
        if state == LIVE:
            self.npc_usable_f[cidx] -= 1
        if self.np_active[row]:
            self._deactivate(np.array([row], np.int64))
        return True

    def _close(self, cei: ComplexExecutionInterval, status: int) -> bool:
        """Close one open CEI with ``status``; its rows leave the bag."""
        cidx = self._cidx_of_cid.get(cei.cid)
        if cidx is None or self.npc_status[cidx] != OPEN:
            return False
        self.npc_status[cidx] = status
        self._drop_rows(np.array([cidx], np.int64))
        return True

    def shed_cei(self, cei: ComplexExecutionInterval) -> bool:
        """Evict one whole open CEI (counted as failed; rows dropped)."""
        if not self._close(cei, FAILED):
            return False
        self._num_failed += 1
        return True

    def cancel_cei(self, cei: ComplexExecutionInterval) -> bool:
        """Withdraw one open CEI at its client's request (mid-flight churn).

        Like :meth:`shed_cei` the remaining rows leave the candidate bag
        for good, but the CEI is accounted as *cancelled*, not failed:
        it leaves ``num_open`` without touching the failure counters, so
        completeness over the surviving workload is unaffected by clients
        walking away.  Returns False when the CEI is unknown, never
        registered, or already closed.
        """
        if not self._close(cei, CANCELLED):
            return False
        self._num_cancelled += 1
        return True

    def open_cei_objects(self) -> list[ComplexExecutionInterval]:
        """Open (registered, not closed) CEIs in registration order."""
        cei_obj = self._cei_obj
        opened = np.flatnonzero(self.npc_status[: self._n_ceis] == OPEN)
        return [cei_obj[cidx] for cidx in opened.tolist()]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def pushable_resources(self, resources: ResourcePool) -> list[ResourceId]:
        """Push-enabled resources currently holding active candidate EIs."""
        return [
            rid
            for rid in np.unique(self.npr_resource[self.bag()]).tolist()
            if rid in resources and resources[rid].push_enabled
        ]

    def active_seqs_on(self, resource: ResourceId) -> list[int]:
        """Sorted seqs of the active candidate EIs on ``resource``.

        Sorted so per-EI fault verdicts (one uniform draw per seq, in
        order) match the reference pool's regardless of row order.
        """
        return np.sort(self.npr_seq[self._active_on(resource)]).tolist()

    def active_eis(self) -> Iterator[ExecutionInterval]:
        """All currently active, uncaptured candidate EIs (the probe pool)."""
        row_ei = self._row_ei
        for row in self.bag().tolist():
            yield row_ei[row]

    def num_active(self) -> int:
        """Size of the active candidate EI bag."""
        return self._num_active

    def is_active(self, ei: ExecutionInterval) -> bool:
        """Is this exact EI currently probe-able?"""
        row = self._row_of_seq.get(ei.seq)
        return row is not None and bool(self.np_active[row])

    def state_of(self, cei: ComplexExecutionInterval) -> Optional[FastCEIView]:
        """Capture state of a registered CEI (None if never registered)."""
        cidx = self._cidx_of_cid.get(cei.cid)
        if cidx is None:
            return None
        status = int(self.npc_status[cidx])
        return FastCEIView(
            cei=cei,
            captured_count=int(self.npc_captured_f[cidx]),
            satisfied=status == SATISFIED,
            failed=status == FAILED,
            cancelled=status == CANCELLED,
        )

    def split_by_prior_capture(
        self, eis: Iterable[ExecutionInterval]
    ) -> tuple[list[ExecutionInterval], list[ExecutionInterval]]:
        """Partition candidates into ``cands+`` / ``cands-`` (Algorithm 1)."""
        plus: list[ExecutionInterval] = []
        minus: list[ExecutionInterval] = []
        captured = self.npc_captured_f
        cidx_of_cid = self._cidx_of_cid
        for ei in eis:
            cei = ei.parent
            assert cei is not None
            if captured[cidx_of_cid[cei.cid]] > 0:
                plus.append(ei)
            else:
                minus.append(ei)
        return plus, minus

    @property
    def num_registered(self) -> int:
        """CEIs ever revealed to the monitor."""
        return self._num_registered

    @property
    def num_satisfied(self) -> int:
        """CEIs the proxy believes it fully captured."""
        return self._num_satisfied

    @property
    def num_failed(self) -> int:
        """CEIs that expired before satisfaction."""
        return self._num_failed

    @property
    def num_cancelled(self) -> int:
        """CEIs withdrawn by their clients mid-flight."""
        return self._num_cancelled

    @property
    def num_open(self) -> int:
        """CEIs still in play (registered and not yet closed)."""
        return (
            self._num_registered
            - self._num_satisfied
            - self._num_failed
            - self._num_cancelled
        )


# ----------------------------------------------------------------------
# The vectorized probeEIs loop
# ----------------------------------------------------------------------


def run_fast_phases(
    monitor: "OnlineMonitor",
    chronon: Chronon,
    budget_left: float,
    probed: set[ResourceId],
) -> float:
    """Spend one chronon's budget on the candidate bag, vectorized.

    Handles both execution modes: preemptive ranks the whole bag at once;
    non-preemptive splits it into ``cands+`` / ``cands-`` by prior capture
    and spends leftover budget on the minus partition, exactly like the
    reference path.
    """
    pool: FastCandidatePool = monitor.pool
    if not pool.num_active():
        return budget_left
    rows = pool.bag()
    if monitor.preemptive:
        # One phase over the whole bag: sibling refreshes never need a
        # phase-membership check (any active sibling is in the phase).
        return _fast_phase(monitor, rows, chronon, budget_left, probed, whole_bag=True)
    in_plus = pool.npc_captured_f[pool.npr_cidx[rows]] > 0
    plus = rows[in_plus]
    if plus.size:
        budget_left = _fast_phase(monitor, plus, chronon, budget_left, probed)
    if budget_left > _EPS:
        minus = rows[~in_plus]
        # Plus-phase overlap captures may have consumed minus rows.
        minus = minus[pool.np_active[minus]]
        if minus.size:
            budget_left = _fast_phase(monitor, minus, chronon, budget_left, probed)
    return budget_left


class _LocalStream:
    """Lazily-materialized sorted key stream over one phase partition.

    The stream plays the role of the reference heap's initial contents:
    ``sp``/``sr`` hold the materialized ``(priority, row)`` prefix in
    exact ``(priority, finish, seq)`` order, ``bound`` is a lower bound
    on every unmaterialized key (materialized keys lie strictly below
    it), and :meth:`widen` materializes the next geometric slice.  The
    concatenated slices are element-for-element the full lexsorted
    stream — keys never tie across a cut: packed keys are unique, float
    cuts absorb all boundary-priority ties — so the probe walk is
    oblivious to how much of it exists.

    :func:`_fast_phase` walks it through the ``sp``/``sr``/``bound``/
    ``exhausted``/``widen`` surface, which hides the top-k algorithm.
    """

    __slots__ = (
        "sp",
        "sr",
        "bound",
        "_pool",
        "_rows",
        "_prio",
        "_packed_keys",
        "_static",
        "_remaining",
        "_next_cut",
    )

    def __init__(
        self,
        pool: FastCandidatePool,
        kernel,
        rows: np.ndarray,
        chronon: Chronon,
        budget_left: float,
        min_probe_cost: float,
    ) -> None:
        self._pool = pool
        self._rows = rows
        cidx = pool.npr_cidx[rows]
        prio = kernel.score_rows(pool, rows, cidx, chronon)
        self._prio = prio
        packed_keys = None
        static = None
        if pool._packable:
            static = pool.npr_static[rows]
            if kernel.integer_valued and float(np.abs(prio).max()) < float(1 << 20):
                # Integer priorities small enough to share an int64 with
                # the static key: keys are then unique (seq is), so any
                # slice is ordered by one plain argsort.
                packed_keys = pack_keys(prio, static)
        self._packed_keys = packed_keys
        self._static = static

        n = int(rows.size)
        self.sp: list[float] = []  # materialized priorities, sorted
        self.sr: list[int] = []  # materialized rows, sorted
        self._remaining: Optional[np.ndarray] = np.arange(n)
        self.bound: Optional[tuple] = None
        if TOPK_ENABLED:
            # Picks this phase can make: every probe attempt costs at
            # least the cheapest resource; the overflow absorbs walk
            # skips (captured siblings, probed or backed-off resources).
            cut = int(budget_left / min_probe_cost) + 1 + TOPK_OVERFLOW
            if 2 * cut >= n:
                cut = n  # partitioning would not pay for itself
        else:
            cut = n
        self._materialize(cut)
        self._next_cut = max(cut, 1) * TOPK_GROWTH

    @property
    def exhausted(self) -> bool:
        """Is every key of the partition materialized into ``sp``/``sr``?"""
        return self._remaining is None

    def widen(self) -> None:
        """Materialize the next geometric slice of the stream."""
        self._materialize(self._next_cut)
        self._next_cut *= TOPK_GROWTH

    def _slice_order(self, sel: np.ndarray) -> np.ndarray:
        """Exact (priority, finish, seq) order of one selected slice."""
        if self._packed_keys is not None:
            return sel[np.argsort(self._packed_keys[sel])]
        prio = self._prio
        if self._static is not None:
            return sel[np.lexsort((self._static[sel], prio[sel]))]
        pool = self._pool
        sub = self._rows[sel]
        return sel[np.lexsort((pool.npr_seq[sub], pool.npr_finish[sub], prio[sel]))]

    def _materialize(self, count: int) -> None:
        """Append the ``count`` smallest unmaterialized keys to the stream."""
        rem = self._remaining
        assert rem is not None
        prio = self._prio
        rows = self._rows
        if count >= rem.size:
            chosen = self._slice_order(rem)
            self._remaining = None
            self.bound = None
        elif self._packed_keys is not None:
            part = np.argpartition(self._packed_keys[rem], count)
            chosen = self._slice_order(rem[part[:count]])
            # Unique keys: the boundary element is the exact minimum of
            # the remainder, and every selected key is strictly below it.
            b = int(rem[part[count]])
            brow = int(rows[b])
            pool = self._pool
            self.bound = (float(prio[b]), pool.row_finish[brow], pool.row_seq[brow])
            self._remaining = rem[part[count:]]
        else:
            # Float keys may tie on priority: absorb every row tied with
            # the boundary value into the slice so the priority-only
            # bound stays a *strict* lower bound on the remainder.
            rem_prio = prio[rem]
            part = np.argpartition(rem_prio, count)
            cut_value = rem_prio[part[count]]
            mask = rem_prio <= cut_value
            chosen = self._slice_order(rem[mask])
            rest = rem[~mask]
            if rest.size:
                self.bound = (float(prio[rest].min()),)
                self._remaining = rest
            else:
                self.bound = None
                self._remaining = None
        self.sp.extend(prio[chosen].tolist())
        self.sr.extend(rows[chosen].tolist())


def _fast_phase(
    monitor: "OnlineMonitor",
    rows: np.ndarray,
    chronon: Chronon,
    budget_left: float,
    probed: set[ResourceId],
    whole_bag: bool = False,
) -> float:
    """One candidate partition: batch-score, top-k select, walk, refresh.

    The walk consumes the partition's sorted :class:`_LocalStream`.
    Sibling refreshes push fresh keys onto a small overlay heap and
    invalidate the row's stream entry (the ``dirty`` set), so at every
    pick the chosen EI minimizes the *current* ``(priority, finish,
    seq)`` key over eligible candidates — the same invariant the
    reference heap maintains with stale-entry skipping.  The widening
    invariant: a pick is only trusted when its key is provably below
    ``stream.bound``; stream keys always are, overlay keys at or past
    the bound force the cut to widen geometrically until the comparison
    is decisive.
    """
    if rows.size == 0:
        return budget_left
    pool: FastCandidatePool = monitor.pool
    kernel = monitor._kernel
    assert kernel is not None
    stream = _LocalStream(
        pool, kernel, rows, chronon, budget_left, monitor._min_probe_cost
    )
    policy = monitor.policy
    resources = monitor.resources
    schedule = monitor.schedule

    faults = monitor._faults
    retry_partials = monitor._retry_partials
    reprobe = monitor._partial_retry_ok
    row_finish = pool.row_finish
    row_seq = pool.row_seq
    sp = stream.sp  # aliases: widen() extends these lists in place
    sr = stream.sr

    active = pool.np_active
    row_resource = pool.row_resource
    uniform = resources is None
    sensitive = monitor._sibling_sensitive
    probe_hook = monitor._wants_probe_hook
    exploit_overlap = monitor.exploit_overlap
    si = 0
    overlay: list[tuple] = []  # (priority, finish, seq, row, resource)
    cur: dict[int, tuple] = {}  # row -> freshest key among refreshed rows
    dirty: set[int] = set()  # rows whose stream entry was superseded
    # Phase membership for sibling refreshes covers the *whole*
    # partition, not just the materialized slice — an unmaterialized
    # row's fresh key must reach the overlay like any other sibling's.
    # Built on the first refresh; stays None when the phase spans the
    # whole bag, where active implies in-phase.
    in_phase: Optional[set[int]] = None

    while budget_left > _EPS:
        # Advance past permanently-invalid stream entries (captured or
        # expired rows, resources already probed or fault-ineligible,
        # refreshed rows whose fresh key lives in the overlay), widening
        # the cut whenever the materialized slice drains with rows left.
        row = -1
        rid = -1
        stream_ready = False
        while True:
            while si < len(sr):
                row = sr[si]
                if row in dirty or not active[row]:
                    si += 1
                    continue
                rid = row_resource[row]
                if rid in probed and rid not in reprobe:
                    si += 1
                    continue
                if faults is not None and not faults.available(rid, chronon):
                    si += 1
                    continue
                stream_ready = True
                break
            if stream_ready or stream.exhausted:
                break
            stream.widen()
        # Drop stale / ineligible overlay entries.
        while overlay:
            entry = overlay[0]
            orow = entry[3]
            if (
                cur.get(orow) != (entry[0], entry[1], entry[2])
                or not active[orow]
                or (entry[4] in probed and entry[4] not in reprobe)
                or (faults is not None and not faults.available(entry[4], chronon))
            ):
                heapq.heappop(overlay)
                continue
            break
        key = None
        if stream_ready and (
            not overlay
            or (sp[si], row_finish[row], row_seq[row]) <= overlay[0][:3]
        ):
            # Stream picks are always safe: materialized keys lie
            # strictly below `bound`, hence below every key not yet seen.
            from_stream = True
            if faults is not None:
                key = (sp[si], row_finish[row], row_seq[row])
        elif overlay:
            entry = overlay[0]
            bound = stream.bound
            if bound is not None and not (entry[:3] < bound):
                # A not-yet-materialized candidate may beat this
                # re-ranked key: widen until the comparison is decisive.
                stream.widen()
                continue
            row, rid = entry[3], entry[4]
            key = entry[:3]
            from_stream = False
        else:
            break  # phase exhausted

        cost = 1.0 if uniform else resources.probe_cost(rid)
        if cost > budget_left + _EPS:
            if uniform:
                # Unit costs: the budget is spent for this phase.
                break
            # Heterogeneous costs: cheaper candidates may still fit; this
            # entry can never fit later (budget only shrinks), drop it.
            if from_stream:
                si += 1
            else:
                heapq.heappop(overlay)
            continue

        if from_stream:
            si += 1
        else:
            heapq.heappop(overlay)
        budget_left -= cost
        monitor._probes_used += 1
        monitor._charge(rid, chronon, cost)
        if faults is not None and not faults.attempt(rid, chronon):
            # Failed probe: budget spent, nothing captured, no schedule
            # entry.  A permitted retry re-enters via the overlay with its
            # unchanged key — the same re-ranked-retry the reference heap
            # performs.
            if faults.can_retry(rid):
                cur[row] = key
                dirty.add(row)
                heapq.heappush(overlay, key + (row, rid))
            continue
        schedule.add_probe(rid, chronon)
        probed.add(rid)
        if probe_hook:
            policy.on_probe(rid, chronon)
        skip = monitor._partial_drops(rid, chronon)
        if exploit_overlap:
            touched = pool.capture_resource_rows(rid, skip)
        elif row_seq[row] in skip:
            # Per-EI verdict dropped exactly the selected EI.
            touched = []
        else:
            touched = pool.capture_single_row(row)
        retry_partial = (
            retry_partials and skip and faults is not None and faults.can_retry(rid)
        )
        if retry_partial:
            reprobe.add(rid)
        else:
            reprobe.discard(rid)
        pre = cur.get(row)
        if sensitive and touched and budget_left > _EPS:
            # (Skipped once the budget is spent: the refresh only feeds
            # later picks of this same phase, so it cannot change the
            # schedule — the reference loop does the work and discards it.)
            if in_phase is None and not whole_bag:
                in_phase = set(rows.tolist())
            _refresh_siblings_fast(
                pool, kernel, touched, chronon, in_phase, probed, overlay, cur,
                dirty, reprobe,
            )
        if retry_partial and active[row]:
            post = cur.get(row)
            if post is None or post == pre:
                # The chosen row itself was dropped and the sibling
                # refresh left its key unchanged: re-arm the consumed
                # entry via the overlay so it competes for a re-probe —
                # mirroring the reference heap's re-push.
                cur[row] = key
                dirty.add(row)
                heapq.heappush(overlay, key + (row, rid))
    return budget_left


def _refresh_siblings_fast(
    pool: FastCandidatePool,
    kernel,
    touched: list[int],
    chronon: Chronon,
    in_phase,
    probed: set[ResourceId],
    overlay: list[tuple],
    cur: dict[int, tuple],
    dirty: set[int],
    reprobe: set[ResourceId] = frozenset(),
) -> None:
    """Re-rank still-active siblings of CEIs whose state just changed.

    ``in_phase`` is None when the phase spans the whole bag (preemptive
    mode): there, membership needs no check because active implies
    in-phase.
    """
    active = pool.np_active
    status = pool.npc_status
    row_finish = pool.row_finish
    row_seq = pool.row_seq
    row_resource = pool.row_resource
    row_dependent = kernel.row_dependent
    # A CEI touched by several captured rows is refreshed once: its state
    # no longer changes within this refresh.
    for cidx in dict.fromkeys(touched):
        if status[cidx] != OPEN:
            continue  # closed CEIs left the candidate bag entirely
        # Row-dependent kernels (expected-gain: sibling rows on different
        # resources score differently) re-score per row; the rest score
        # once per CEI.
        fresh = None if row_dependent else kernel.score_cei(pool, cidx, chronon)
        for row in range(pool.cei_row_begin[cidx], pool.cei_row_end[cidx]):
            if not active[row]:
                continue
            if in_phase is not None and row not in in_phase:
                continue
            rid = row_resource[row]
            if rid in probed and rid not in reprobe:
                continue
            score = (
                kernel.score_row(pool, row, cidx, chronon) if row_dependent else fresh
            )
            key = (score, row_finish[row], row_seq[row])
            if cur.get(row) != key:
                cur[row] = key
                dirty.add(row)
                heapq.heappush(overlay, key + (row, rid))


def run_fast_span(monitor: "OnlineMonitor", t0: Chronon, t1: Chronon) -> None:
    """Probe every chronon of the event-free span ``[t0, t1)`` in one call.

    The batched-stepping fast path for ``monitor.run``: when no window
    opens, no window expires and no CEI arrives anywhere in ``[t0, t1)``,
    the candidate bag only changes through this walk's own captures — so
    the whole span can be scored *once* at ``t0`` and consumed chronon by
    chronon from the same sorted stream.  The caller guarantees the gates
    (see ``OnlineMonitor._run_batched``): preemptive mode, overlap
    exploitation on, uniform probe costs, no faults, no probe hook, and a
    :attr:`repro.policies.kernels.ScoreKernel.shift_invariant` kernel.
    That last gate is what licenses cross-chronon key reuse: either the
    scores are chronon-free (MRSF family — so re-ranked sibling keys from
    a later slot compare exactly against span-start stream keys), or the
    policy is not sibling-sensitive and every score shifts by the same
    per-chronon constant (S-EDF), preserving the stream order.

    Per slot the walk replays the exact single-chronon semantics: a fresh
    budget and probed set, the stream rescanned from the top (entries
    skipped only because their resource was probed *this* slot become
    eligible again), and overlay entries blocked only by the probed set
    are *deferred* to the next slot instead of dropped.  Sibling
    refreshes run even with the slot's budget spent — unlike the
    single-phase walk, their fresh keys feed the later slots of the span.
    """
    pool: FastCandidatePool = monitor.pool
    kernel = monitor._kernel
    schedule = monitor.schedule
    budget = monitor.budget
    assert kernel is not None and kernel.shift_invariant
    rows = pool.bag()
    if rows.size == 0:
        monitor._clock = t1 - 1
        return
    cidx = pool.npr_cidx[rows]
    prio = kernel.score_rows(pool, rows, cidx, t0)
    # Materialize the full sorted stream up front (no top-k cut: the span
    # replays it once per slot, and a budget-sized cut would have to be
    # sized for the whole span anyway).
    if pool._packable:
        static = pool.npr_static[rows]
        if kernel.integer_valued and float(np.abs(prio).max()) < float(1 << 20):
            order = np.argsort(pack_keys(prio, static))
        else:
            order = np.lexsort((static, prio))
    else:
        order = np.lexsort((pool.npr_seq[rows], pool.npr_finish[rows], prio))
    sp = prio[order].tolist()
    sr = rows[order].tolist()

    active = pool.np_active
    row_finish = pool.row_finish
    row_seq = pool.row_seq
    row_resource = pool.row_resource
    sensitive = monitor._sibling_sensitive
    no_probed: frozenset[ResourceId] = frozenset()
    overlay: list[tuple] = []  # (priority, finish, seq, row, resource)
    cur: dict[int, tuple] = {}  # row -> freshest key among refreshed rows
    dirty: set[int] = set()  # rows whose stream entry was superseded
    deferred: list[tuple] = []  # overlay entries blocked only by `probed`

    for t in range(t0, t1):
        if not pool.num_active():
            break
        monitor._clock = t
        budget_left = budget.at(t)
        probed: set[ResourceId] = set()
        si = 0
        if deferred:
            # Their resources are probe-able again now the slot rolled.
            for entry in deferred:
                heapq.heappush(overlay, entry)
            deferred = []
        while budget_left > _EPS:
            if 1.0 > budget_left + _EPS:
                break  # uniform costs: the slot's budget is spent
            row = -1
            rid = -1
            stream_ready = False
            while si < len(sr):
                row = sr[si]
                if row in dirty or not active[row]:
                    si += 1
                    continue
                rid = row_resource[row]
                if rid in probed:
                    si += 1  # per-slot skip; si resets at the next slot
                    continue
                stream_ready = True
                break
            while overlay:
                entry = overlay[0]
                orow = entry[3]
                if (
                    cur.get(orow) != (entry[0], entry[1], entry[2])
                    or not active[orow]
                ):
                    heapq.heappop(overlay)
                    continue
                if entry[4] in probed:
                    # Ineligible only this slot: defer, don't drop.
                    deferred.append(heapq.heappop(overlay))
                    continue
                break
            if stream_ready and (
                not overlay
                or (sp[si], row_finish[row], row_seq[row]) <= overlay[0][:3]
            ):
                si += 1
            elif overlay:
                entry = heapq.heappop(overlay)
                row, rid = entry[3], entry[4]
            else:
                break  # bag exhausted for this slot
            budget_left -= 1.0
            monitor._probes_used += 1
            monitor._charge(rid, t, 1.0)
            schedule.add_probe(rid, t)
            probed.add(rid)
            touched = pool.capture_resource_rows(rid)
            if sensitive and touched:
                # Empty probed set on purpose: a probed-resource sibling
                # still needs its fresh key, or its stale stream entry
                # would rank it wrongly at the next slot.
                _refresh_siblings_fast(
                    pool, kernel, touched, t, None, no_probed, overlay, cur, dirty
                )
    monitor._clock = t1 - 1
