"""Bag-size-aware engine dispatch for ``engine="auto"``.

The two fixed engines trade places at a measurable candidate-bag size:
the vectorized engine amortizes NumPy call overhead over the bag and wins
big once bags reach the hundreds, while the reference pool (driven by the
inlined scalar walk of :mod:`repro.online.scalarpath`) wins on the sparse
bags where array overhead dominates.  ``engine="auto"`` hosts the run on
whichever side of that crossover the workload currently sits:

* the **initial engine** comes from the compiled arena's capture-free
  :attr:`~repro.sim.arena.InstanceArena.mean_bag` when one is available
  (an upper bound on what the run will see), else defaults to reference —
  a dense run without an arena pays at most the dwell-free first switch,
  one reference chronon;
* every subsequent chronon, :class:`DispatchController` folds the
  observed bag size into an EWMA and compares it against *two*
  thresholds with a minimum dwell between switches — plain hysteresis,
  so bag noise around the crossover cannot thrash migrations;
* a switch migrates the candidate pool **exactly** —
  :func:`fast_pool_from_reference` / :func:`reference_pool_from_fast`
  rebuild the destination representation from the source's state so the
  continuation is bit-for-bit the run the destination engine would have
  produced from the same history.  Schedules therefore stay identical to
  both fixed engines at every chronon, mid-run switches included
  (``tests/test_auto_dispatch.py`` forces switches both ways).

The thresholds are calibrated by ``benchmarks/calibrate_dispatch.py``,
which measures per-chronon cost of both engines against controlled bag
sizes and prints the crossover; the defaults below bake in its container
measurement.  They are module constants (looked up at call time, not
bound at construction) so tests can monkeypatch them to force switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.timebase import Chronon
from repro.online import fastpath
from repro.online.candidates import CandidatePool, CEIState
from repro.online.fastpath import FastCandidatePool

#: Smoothing factor of the bag-size EWMA (jump-started to the first
#: observation).  0.25 follows the observed bag autocorrelation: window
#: lengths of tens of chronons mean regime shifts unfold over ~10
#: chronons, and 0.25 reaches 95% of a level shift in that time.
EWMA_ALPHA = 0.25

#: Bag-size EWMA at or above which the run migrates to (or starts on) the
#: vectorized engine.  Calibrated by ``benchmarks/calibrate_dispatch.py``:
#: the container measurement put the break-even bag at ~117 EIs for
#: S-EDF, ~98 for MRSF and ~17 for M-EDF (its O(rank) scalar values are
#: the costliest); the thresholds bracket the median crossover (98) with
#: an asymmetric band, since a wrong engine near break-even costs a few
#: percent while a migration costs a pool rebuild.
DENSE_THRESHOLD = 146.0

#: Bag-size EWMA strictly below which a vectorized run migrates back to
#: the reference engine.  Kept well under DENSE_THRESHOLD: the gap is the
#: hysteresis band where either engine is acceptable and switching is not
#: worth a migration.
SPARSE_THRESHOLD = 59.0

#: Minimum chronons between consecutive switches.  The *first* switch is
#: exempt (the controller starts with a full dwell credit), bounding the
#: cost of a mispredicted initial engine to one chronon.
MIN_DWELL = 16


@dataclass
class DispatchStats:
    """Per-run dispatch accounting, exposed as ``monitor.dispatch_stats``."""

    #: Engine the run started on ("reference" or "vectorized").
    initial_engine: str = "reference"
    #: Chronons individually stepped on each engine.
    reference_chronons: int = 0
    vectorized_chronons: int = 0
    #: Pool migrations performed.
    switches: int = 0
    #: Chronons skipped entirely (empty bag, no events) by the batched
    #: run loop, and event-free spans stepped in one vectorized call.
    idle_skipped: int = 0
    batched_spans: int = 0

    @property
    def final_engine(self) -> str:
        """Engine after the last switch."""
        flip = self.switches % 2 == 1
        if self.initial_engine == "vectorized":
            return "reference" if flip else "vectorized"
        return "vectorized" if flip else "reference"


class DispatchController:
    """Hysteresis over the bag-size EWMA: decides which engine hosts a step.

    ``observe(bag)`` folds one observation in and returns the desired
    engine as a flag (True = vectorized).  Thresholds, smoothing and
    dwell default to the module constants *at call time* — constructor
    arguments are only for explicit overrides.
    """

    def __init__(
        self,
        fast: bool,
        *,
        dense_threshold: Optional[float] = None,
        sparse_threshold: Optional[float] = None,
        alpha: Optional[float] = None,
        min_dwell: Optional[int] = None,
    ) -> None:
        self.fast = fast
        self._dense = dense_threshold
        self._sparse = sparse_threshold
        self._alpha = alpha
        self._dwell = min_dwell
        self.ewma: Optional[float] = None
        # Full dwell credit up front: the first switch is always allowed,
        # so a wrong initial-engine guess costs at most one chronon.
        self._since_switch = min_dwell if min_dwell is not None else MIN_DWELL

    def observe(self, bag: int) -> bool:
        """Fold one bag-size observation; return the desired engine flag."""
        alpha = self._alpha if self._alpha is not None else EWMA_ALPHA
        if self.ewma is None:
            self.ewma = float(bag)
        else:
            self.ewma += alpha * (bag - self.ewma)
        dwell = self._dwell if self._dwell is not None else MIN_DWELL
        if self._since_switch < dwell:
            self._since_switch += 1
            return self.fast
        if self.fast:
            sparse = self._sparse if self._sparse is not None else SPARSE_THRESHOLD
            if self.ewma < sparse:
                self.fast = False
                self._since_switch = 0
        else:
            dense = self._dense if self._dense is not None else DENSE_THRESHOLD
            if self.ewma >= dense:
                self.fast = True
                self._since_switch = 0
        return self.fast


# ----------------------------------------------------------------------
# Exact pool migrations
# ----------------------------------------------------------------------
#
# Both directions rebuild the destination pool so that every observable
# it will ever produce — active bag, capture state, priorities, window
# events, counters — matches what the destination engine would hold had
# it run the whole history itself.  `now` is the last *completed*
# chronon (migration happens between steps, before the clock advances).


def fast_pool_from_reference(pool: CandidatePool, now: Chronon) -> FastCandidatePool:
    """Rebuild a reference pool's state as an incremental fast pool.

    CEIs are walked in registration order (dict insertion order), so row
    and CEI indexes come out exactly as an all-along fast pool's would
    modulo rows that can no longer matter.  Per CEI:

    * the M-EDF aggregates follow the time-invariant form rule — an
      *uncaptured* sibling of an open CEI contributes the open form
      ``(finish + 1, 1)`` iff its window has started (``start <= now``,
      which covers active siblings, siblings that expired mid-run *and*
      siblings already expired on arrival — all of them entered the open
      form at or before activation and nothing moves them back), else
      the future form ``(width, 0)``; captured siblings contribute
      nothing; closed CEIs keep zero aggregates (never scored);
    * captured rows always materialize (``is_ei_captured`` must keep
      answering), uncaptured rows of open CEIs materialize while their
      window can still matter (``finish > now``) — active now, or
      pending on the activation timeline; uncaptured rows of closed CEIs
      and expired-uncaptured rows are provably unobservable and are
      skipped;
    * every materialized row with ``finish > now`` joins the expiry
      timeline (captured entries are pop-time no-ops, exactly as in an
      all-along pool);
    * shed-released EIs (``pool._released_seqs``) materialize like any
      uncaptured row and keep the aggregate forms above, but never join
      the active bag — pending ones stay on the activation timeline so
      the future->open aggregate move still fires at their ``start``.

    The result is always an *incremental* pool (built on a private
    arena written here directly), so later registrations keep working.
    """
    fast = FastCandidatePool()
    arena = fast._arena
    released = pool._released_seqs
    status: list[int] = []
    captured_counts: list[int] = []
    usable: list[int] = []
    captured_rows: list[int] = []
    released_rows: list[int] = []
    active_rows: list[int] = []
    for st in pool._states.values():
        cei = st.cei
        captured = st.captured
        closed = st.closed
        cidx = len(arena.cei_rank)
        arena.cidx_of_cid[cei.cid] = cidx
        arena.cei_obj.append(cei)
        arena.cei_release.append(now)
        arena.cei_rank.append(len(cei.eis))
        arena.cei_required.append(cei.required)
        arena.cei_weight.append(cei.weight)
        arena.cei_failed0.append(False)
        arena.cei_row_begin.append(len(arena.row_seq))
        arena.immediate_rows.append([])
        medf_s = 0
        medf_open = 0
        live = 0
        for ei in cei.eis:
            is_captured = ei.seq in captured
            if not closed and not is_captured:
                if ei.start <= now:
                    medf_s += ei.finish + 1
                    medf_open += 1
                else:
                    medf_s += ei.finish - ei.start + 1
            if not (is_captured or (not closed and ei.finish > now)):
                continue
            row = len(arena.row_seq)
            arena.row_seq.append(ei.seq)
            arena.row_start.append(ei.start)
            arena.row_finish.append(ei.finish)
            arena.row_resource.append(ei.resource)
            arena.row_cidx.append(cidx)
            arena.row_ei.append(ei)
            arena.row_of_seq[ei.seq] = row
            if is_captured:
                captured_rows.append(row)
            elif ei.seq in released:
                released_rows.append(row)
            else:
                live += 1
            if not is_captured:
                if ei.start > now:
                    arena.activate_at.setdefault(ei.start, []).append(row)
                elif ei.seq not in released:
                    active_rows.append(row)
            if ei.finish > now:
                arena.expire_at.setdefault(ei.finish, []).append(row)
        arena.cei_row_end.append(len(arena.row_seq))
        arena.cei_medf_s0.append(medf_s)
        arena.cei_medf_open0.append(medf_open)
        status.append(
            fastpath.SATISFIED if st.satisfied
            else fastpath.FAILED if st.failed
            else fastpath.CANCELLED if st.cancelled
            else fastpath.OPEN
        )
        captured_counts.append(len(captured))
        usable.append(len(captured) + live)

    fast._extend()
    m = len(status)
    fast.npc_status[:m] = status
    fast.npc_captured_f[:m] = captured_counts
    fast.npc_usable_f[:m] = usable
    fast.npr_state[captured_rows] = fastpath.CAPTURED
    fast.npr_state[released_rows] = fastpath.RELEASED
    fast._num_released = len(released_rows)
    fast._activate(np.array(active_rows, np.int64))
    fast._num_registered = pool._num_registered
    fast._num_satisfied = pool._num_satisfied
    fast._num_failed = pool._num_failed
    fast._num_cancelled = pool._num_cancelled
    return fast


def reference_pool_from_fast(pool: FastCandidatePool, now: Chronon) -> CandidatePool:
    """Rebuild a fast pool's state as a reference pool.

    Activation order of the rebuilt active set is sorted by row index
    (registration order) — deterministic, and only observable to
    iteration-order-sensitive policies, which have no kernel and
    therefore never dispatch.  Timelines come from the pool's arena
    (a shared arena's or its private one), filtered to *registered*
    CEIs and chronons still ahead; entries of closed or captured rows
    are kept — the reference pool pop-skips them exactly like the fast
    pool does.
    """
    ref = CandidatePool()
    row_seq = pool.row_seq
    row_cidx = pool.row_cidx
    row_ei = pool._row_ei
    states = pool.npr_state[: pool._n_rows]
    ref._released_seqs = {
        row_seq[row] for row in np.flatnonzero(states == fastpath.RELEASED).tolist()
    }
    captured_rows = set(np.flatnonzero(states == fastpath.CAPTURED).tolist())
    status = pool.npc_status[: pool._n_ceis].tolist()
    for cidx, code in enumerate(status):
        if code == fastpath.PENDING:
            continue
        cei = pool._cei_obj[cidx]
        st = CEIState(cei=cei)
        st.satisfied = code == fastpath.SATISFIED
        st.failed = code == fastpath.FAILED
        st.cancelled = code == fastpath.CANCELLED
        for row in range(pool.cei_row_begin[cidx], pool.cei_row_end[cidx]):
            if row in captured_rows:
                st.captured.add(row_seq[row])
        ref._states[cei.cid] = st
    for row in pool.bag().tolist():
        ref._activate(row_ei[row])
    arena = pool._arena
    for timeline, target in (
        (arena.activate_at, ref._to_activate),
        (arena.expire_at, ref._to_expire),
    ):
        for chronon, rows in timeline.items():
            if chronon <= now:
                continue
            eis = [
                row_ei[r] for r in rows if status[row_cidx[r]] != fastpath.PENDING
            ]
            if eis:
                target[chronon] = eis
    ref._num_registered = pool._num_registered
    ref._num_satisfied = pool._num_satisfied
    ref._num_failed = pool._num_failed
    ref._num_cancelled = pool._num_cancelled
    return ref
