"""Compiled problem-instance arenas: build candidate state once per instance.

The suite methodology (paper Section V-A.3) runs *every* policy on the
identical problem instance of each repetition.  Without help, each of
those runs pays the same pure-Python setup walk: registering every EI of
every CEI, computing the initial M-EDF aggregates and building the
window-event timelines — identically, once per *(repetition, policy)*
cell.

:func:`compile_arena` performs that walk once and freezes the result into
an :class:`InstanceArena`: a structure-of-arrays snapshot of the instance
holding the static per-row and per-CEI columns (as Python lists for the
probe walk's scalar reads, and as NumPy columns for the vectorized event
and scoring code), the initial M-EDF aggregates and the
activation/expiry timelines, plus the arrival map the monitor consumes.
``FastCandidatePool(arena=...)`` then starts a run by *sharing* the
static columns and allocating only the per-run NumPy state (row state,
active mask, CEI status and aggregates), which turns per-policy setup
from O(total EIs) of Python bookkeeping into a handful of array
allocations.

The arena is strictly a cache: a monitor run against an arena-backed pool
is bit-for-bit identical to one that registers the same CEIs
incrementally (``tests/test_arena.py`` enforces this, and
``tests/test_fastpath_equivalence.py`` closes the loop against the
reference engine).  Registration semantics are compiled for arrival at
each CEI's release chronon by default — the arrival rule ``simulate`` /
``run_suite`` use — or at explicit arrival chronons for streaming
workloads, and the arena-backed pool rejects registrations that disagree
with the compiled schedule.  An incremental pool is itself built on a
private arena that it extends one registration at a time through the
same compile walk (:func:`_register_cei`).

**Delta layer.**  A long-lived proxy cannot afford a full recompile per
churn event.  :class:`ArenaPatch` describes one churn batch (CEIs to
register at given arrival chronons, cids to cancel, a horizon to expire)
and :func:`apply_patch` applies it *incrementally*: the shared Python
columns are extended in place through the same per-CEI compile walk
``compile_arena`` uses, the NumPy columns are extended by one
concatenate each, and live arena-backed pools adopt the result without
losing any run state (``FastCandidatePool.adopt_arena``).  Because the
probe loop's selection keys are ``(priority, finish, seq)`` — and seqs
are process-unique — appended rows rank exactly as they would in a
from-scratch compile, so a patched run stays bit-identical to one whose
profiles were known in advance (``tests/test_churn_equivalence.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.profile import ProfileSet
from repro.core.timebase import Chronon
from repro.online.arrivals import arrivals_from_profiles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.fastpath import FastCandidatePool


@dataclass(frozen=True, slots=True)
class InstanceArena:
    """Frozen structure-of-arrays snapshot of one problem instance.

    The scalar fields and NumPy columns are immutable for the lifetime of
    *this arena object*; pools built from it share the Python containers
    and the NumPy columns and never write to them.  Rows appear in registration order (CEIs
    sorted by arrival, EIs in CEI order), exactly the order an
    incremental pool would build.

    :func:`apply_patch` extends the shared containers in place and
    returns a *new* ``InstanceArena`` with fresh scalars and columns; the
    patched-out object must not be used to build new pools afterwards
    (its scalar fields undercount the shared containers).  Live pools
    migrate via :meth:`repro.online.fastpath.FastCandidatePool.adopt_arena`.
    """

    profiles: ProfileSet
    #: The arrival map ``simulate`` consumes (arrival chronon -> CEIs).
    arrivals: dict[Chronon, list[ComplexExecutionInterval]]

    n_rows: int
    n_ceis: int

    # Row-level columns (one row per usable EI).
    row_seq: list[int]
    row_start: list[int]
    row_finish: list[int]
    row_resource: list[int]
    row_cidx: list[int]
    row_ei: list[ExecutionInterval]

    # The same row columns in NumPy form, for the vectorized window
    # events, captures and scoring kernels (see :func:`_row_columns`).
    npr_seq: np.ndarray
    npr_start_f: np.ndarray
    npr_finish: np.ndarray
    npr_finish_f: np.ndarray
    npr_resource: np.ndarray
    npr_cidx: np.ndarray
    npr_static: np.ndarray
    max_seq: int
    max_finish: int
    packable: bool

    # CEI-level columns.
    cei_rank: list[int]
    cei_required: list[int]
    cei_weight: list[float]
    cei_failed0: list[bool]
    cei_medf_s0: list[int]
    cei_medf_open0: list[int]
    cei_row_begin: list[int]
    cei_row_end: list[int]
    cei_release: list[Chronon]
    cei_obj: list[ComplexExecutionInterval]
    # NumPy CEI columns (see :func:`_cei_columns`).
    npc_rank_f: np.ndarray
    npc_weight: np.ndarray
    npc_required_f: np.ndarray
    npc_row_begin: np.ndarray
    npc_row_end: np.ndarray

    #: Rows active immediately at registration, per CEI index.
    immediate_rows: list[list[int]]
    #: Window-event timelines: chronon -> rows opening / expiring there.
    activate_at: dict[Chronon, list[int]]
    expire_at: dict[Chronon, list[int]]

    row_of_seq: dict[int, int]
    cidx_of_cid: dict[int, int]

    #: Capture-free mean candidate-bag size over the instance's horizon:
    #: sum of row window lengths (clipped to the arrival) divided by
    #: ``max_finish + 1``.  An upper-bound predictor of the bag the
    #: monitor will see (captures only shrink it) — ``engine="auto"``
    #: uses it to pick the starting engine before the first chronon.
    mean_bag: float = 0.0

    #: Integer numerator of :attr:`mean_bag`, kept so patches update the
    #: mean exactly (no float roundtrip drift vs. a from-scratch compile).
    active_chronons: int = 0

    #: cids withdrawn by :func:`apply_patch` cancellations (shared across
    #: patch generations).  Informational: registration replay of a
    #: cancelled cid still works — the streaming layer consults this to
    #: keep cancelled CEIs out of future registrations.
    cancelled_cids: set[int] = field(default_factory=set)


@dataclass(frozen=True, slots=True)
class ArenaPatch:
    """One churn batch against a compiled arena.

    Parameters
    ----------
    register:
        ``(cei, arrival_chronon)`` pairs to compile into the arena.  The
        arrival chronon is where the CEI will be revealed to the monitor
        (``register(cei, arrival)``); late arrivals (past the CEI's
        release) compile with the incremental pool's exact late-submission
        semantics, dead-on-arrival included.
    cancel:
        cids to withdraw: pending arrivals are unscheduled, already
        registered CEIs are closed in every live pool the patch is
        applied to (see :func:`apply_patch`).
    expire_before:
        Optional horizon: arrival and window-event timeline entries at
        chronons strictly below it are pruned (they are in the past for
        any monitor that already stepped there).  Bounds the event-dict
        growth of a long-running stream; rows are never re-indexed.
    """

    register: tuple[tuple[ComplexExecutionInterval, Chronon], ...] = ()
    cancel: tuple[int, ...] = ()
    expire_before: Optional[Chronon] = None

    @classmethod
    def registrations(
        cls,
        ceis: Sequence[ComplexExecutionInterval],
        at: Optional[Chronon] = None,
    ) -> "ArenaPatch":
        """A register-only patch; ``at=None`` uses each CEI's release."""
        return cls(
            register=tuple(
                (cei, cei.release if at is None else max(at, cei.release))
                for cei in ceis
            )
        )

    def __bool__(self) -> bool:
        return bool(self.register or self.cancel or self.expire_before is not None)


def _register_cei(cols, cei: ComplexExecutionInterval, at: Chronon) -> int:
    """Compile one CEI's registration at arrival chronon ``at``.

    ``cols`` is an arena whose Python containers are extended in place.
    Matches ``CandidatePool.register`` exactly:
    EIs already expired at arrival contribute the open M-EDF form
    ``(finish + 1, 1)`` without materializing a row, and a CEI whose
    surviving EIs cannot reach ``required`` is dead on arrival (no rows).
    Returns the chronons the materialized rows contribute to
    :attr:`InstanceArena.active_chronons`.
    """
    cidx = len(cols.cei_rank)
    cols.cidx_of_cid[cei.cid] = cidx
    cols.cei_obj.append(cei)
    cols.cei_release.append(at)
    eis = cei.eis
    cols.cei_rank.append(len(eis))
    cols.cei_required.append(cei.required)
    cols.cei_weight.append(cei.weight)
    expired_on_arrival = sum(1 for ei in eis if ei.finish < at)
    failed = len(eis) - expired_on_arrival < cei.required
    cols.cei_failed0.append(failed)
    cols.cei_row_begin.append(len(cols.row_seq))
    immediate: list[int] = []
    medf_s = 0
    medf_open = 0
    active_chronons = 0
    if not failed:
        for ei in eis:
            finish = ei.finish
            if finish < at:
                # Unusable, but an uncaptured sibling for M-EDF purposes:
                # contributes finish - T + 1 like any open-window sibling.
                medf_s += finish + 1
                medf_open += 1
                continue
            row = len(cols.row_seq)
            cols.row_seq.append(ei.seq)
            cols.row_start.append(ei.start)
            cols.row_finish.append(finish)
            cols.row_resource.append(ei.resource)
            cols.row_cidx.append(cidx)
            cols.row_ei.append(ei)
            cols.row_of_seq[ei.seq] = row
            active_chronons += finish - max(ei.start, at) + 1
            if ei.start <= at:
                immediate.append(row)
                medf_s += finish + 1
                medf_open += 1
            else:
                medf_s += finish - ei.start + 1
                cols.activate_at.setdefault(ei.start, []).append(row)
            cols.expire_at.setdefault(finish, []).append(row)
    cols.cei_row_end.append(len(cols.row_seq))
    cols.cei_medf_s0.append(medf_s)
    cols.cei_medf_open0.append(medf_open)
    cols.immediate_rows.append(immediate)
    return active_chronons


def _row_columns(arena: InstanceArena, begin: int) -> dict:
    """NumPy row columns for rows ``begin:`` of the arena's lists."""
    npr_seq = np.asarray(arena.row_seq[begin:], np.int64)
    npr_finish = np.asarray(arena.row_finish[begin:], np.int64)
    return dict(
        npr_seq=npr_seq,
        npr_start_f=np.asarray(arena.row_start[begin:], np.float64),
        npr_finish=npr_finish,
        npr_finish_f=npr_finish.astype(np.float64),
        npr_resource=np.asarray(arena.row_resource[begin:], np.int64),
        npr_cidx=np.asarray(arena.row_cidx[begin:], np.int64),
        # Packed tie-break key: finish * 2^21 + seq orders rows exactly
        # like the (finish, seq) pair while both fit in 21 bits (see
        # ``packable``); one int64 column then replaces two lexsort keys.
        npr_static=npr_finish * (1 << 21) + npr_seq,
    )


def _cei_columns(arena: InstanceArena, begin: int) -> dict:
    """NumPy CEI columns for CEIs ``begin:`` of the arena's lists."""
    return dict(
        npc_rank_f=np.asarray(arena.cei_rank[begin:], np.float64),
        npc_weight=np.asarray(arena.cei_weight[begin:], np.float64),
        npc_required_f=np.asarray(arena.cei_required[begin:], np.float64),
        npc_row_begin=np.asarray(arena.cei_row_begin[begin:], np.int64),
        npc_row_end=np.asarray(arena.cei_row_end[begin:], np.int64),
    )


def _key_bounds(npr_seq: np.ndarray, npr_finish: np.ndarray) -> tuple[int, int]:
    """Largest seq and finish of a row slice (0 when empty)."""
    if not npr_seq.size:
        return 0, 0
    return int(npr_seq.max()), int(npr_finish.max())


def empty_arena(
    profiles: Optional[ProfileSet] = None,
    arrivals: Optional[dict[Chronon, list[ComplexExecutionInterval]]] = None,
) -> InstanceArena:
    """An arena with no CEIs, ready for :func:`_register_cei` to extend."""
    rows = np.empty(0, np.int64)
    return InstanceArena(
        profiles=ProfileSet() if profiles is None else profiles,
        arrivals={} if arrivals is None else arrivals,
        n_rows=0,
        n_ceis=0,
        row_seq=[],
        row_start=[],
        row_finish=[],
        row_resource=[],
        row_cidx=[],
        row_ei=[],
        npr_seq=rows,
        npr_start_f=np.empty(0, np.float64),
        npr_finish=rows,
        npr_finish_f=np.empty(0, np.float64),
        npr_resource=rows,
        npr_cidx=rows,
        npr_static=rows,
        max_seq=0,
        max_finish=0,
        packable=True,
        cei_rank=[],
        cei_required=[],
        cei_weight=[],
        cei_failed0=[],
        cei_medf_s0=[],
        cei_medf_open0=[],
        cei_row_begin=[],
        cei_row_end=[],
        cei_release=[],
        cei_obj=[],
        npc_rank_f=np.empty(0, np.float64),
        npc_weight=np.empty(0, np.float64),
        npc_required_f=np.empty(0, np.float64),
        npc_row_begin=rows,
        npc_row_end=rows,
        immediate_rows=[],
        activate_at={},
        expire_at={},
        row_of_seq={},
        cidx_of_cid={},
    )


def compile_arena(
    profiles: ProfileSet,
    *,
    arrivals: Optional[dict[Chronon, list[ComplexExecutionInterval]]] = None,
) -> InstanceArena:
    """Compile a profile set into a reusable :class:`InstanceArena`.

    Performs the registration walk of every CEI exactly once, with
    ``CandidatePool.register`` semantics: the dead-on-arrival rule,
    the immediate-vs-deferred activation split and the initial M-EDF
    aggregates (``S`` and ``n_open`` right after registration).  The cost
    is O(total EIs) — amortized over every policy run that reuses the
    arena.

    By default every CEI registers at its release chronon (the only
    arrival rule ``simulate`` / ``run_suite`` use).  An explicit
    ``arrivals`` map compiles each CEI at the chronon it appears under
    instead — the from-scratch baseline for a streaming run whose churn
    timeline is known in advance.
    """
    if arrivals is None:
        arrivals = arrivals_from_profiles(profiles)

    arena = empty_arena(profiles, arrivals)
    active_chronons = 0
    for arrival in sorted(arrivals):
        for cei in arrivals[arrival]:
            active_chronons += _register_cei(arena, cei, arrival)

    rows = _row_columns(arena, 0)
    max_seq, max_finish = _key_bounds(rows["npr_seq"], rows["npr_finish"])
    mean_bag = active_chronons / (max_finish + 1) if arena.row_seq else 0.0
    return dataclasses.replace(
        arena,
        n_rows=len(arena.row_seq),
        n_ceis=len(arena.cei_rank),
        max_seq=max_seq,
        max_finish=max_finish,
        packable=max_seq < (1 << 21) and max_finish < (1 << 21),
        mean_bag=mean_bag,
        active_chronons=active_chronons,
        **rows,
        **_cei_columns(arena, 0),
    )


def apply_patch(
    arena: InstanceArena,
    patch: ArenaPatch,
    pools: "Sequence[FastCandidatePool]" = (),
) -> InstanceArena:
    """Apply one churn batch incrementally; returns the patched arena.

    The shared Python containers are extended **in place** (so every
    structure a live pool already shares keeps working), and a new
    ``InstanceArena`` carrying extended NumPy columns and corrected
    scalars is returned.  Cost is O(new EIs) Python work plus one
    O(total rows) NumPy concatenate per column — no recompile.

    ``pools`` lists the live arena-backed pools sharing ``arena``; each
    one adopts the patched arena (static columns re-pointed, per-run
    columns extended) and has the patch's cancellations applied to its
    open CEIs.  **Every** live pool of the arena must be listed — a pool left
    out would observe the grown shared columns without the matching
    per-run state.  Registered CEIs are *not* revealed here: they enter
    each pool when the monitor steps their arrival chronon, exactly like
    a compiled-in arrival.

    The patched-out ``arena`` object must not build new pools afterwards;
    use the returned arena.
    """
    for pool in pools:
        if pool._arena is None or pool._arena.cidx_of_cid is not arena.cidx_of_cid:
            raise ModelError(
                "apply_patch pools must be live pools of the patched arena"
            )

    old_rows = len(arena.row_seq)
    old_ceis = len(arena.cei_rank)
    if old_rows != arena.n_rows or old_ceis != arena.n_ceis:
        raise ModelError(
            "apply_patch must run against the arena's newest generation "
            f"(arena records {arena.n_ceis} CEIs, containers hold {old_ceis})"
        )

    active_chronons = arena.active_chronons
    for cei, at in patch.register:
        if cei.cid in arena.cidx_of_cid:
            raise ModelError(f"CEI {cei.cid} is already compiled into this arena")
        if at < 0:
            raise ModelError(f"arrival chronon must be >= 0, got {at}")
        active_chronons += _register_cei(arena, cei, at)
        arena.arrivals.setdefault(at, []).append(cei)

    for cid in patch.cancel:
        cidx = arena.cidx_of_cid.get(cid)
        if cidx is None:
            raise ModelError(f"cannot cancel CEI {cid}: not in this arena")
        if cid in arena.cancelled_cids:
            continue
        arena.cancelled_cids.add(cid)
        cei = arena.cei_obj[cidx]
        # Unschedule a still-pending arrival so no pool ever registers it.
        pending = arena.arrivals.get(arena.cei_release[cidx])
        if pending is not None and cei in pending:
            pending.remove(cei)

    if patch.expire_before is not None:
        horizon = patch.expire_before
        for timeline in (arena.arrivals, arena.activate_at, arena.expire_at):
            for chronon in [t for t in timeline if t < horizon]:
                del timeline[chronon]

    # Extend the NumPy columns by one concatenate each (exact-size, never
    # written afterwards — same contract as a fresh compile).
    rows = _row_columns(arena, old_rows)
    new_seq, new_finish = _key_bounds(rows["npr_seq"], rows["npr_finish"])
    max_seq = max(arena.max_seq, new_seq)
    max_finish = max(arena.max_finish, new_finish)
    columns = {
        name: np.concatenate([getattr(arena, name), fresh])
        for name, fresh in (*rows.items(), *_cei_columns(arena, old_ceis).items())
    }
    patched = dataclasses.replace(
        arena,
        n_rows=len(arena.row_seq),
        n_ceis=len(arena.cei_rank),
        max_seq=max_seq,
        max_finish=max_finish,
        packable=max_seq < (1 << 21) and max_finish < (1 << 21),
        mean_bag=(
            active_chronons / (max_finish + 1) if arena.row_seq else 0.0
        ),
        active_chronons=active_chronons,
        **columns,
    )

    for pool in pools:
        pool.adopt_arena(patched)
        for cid in patch.cancel:
            # A no-op for CEIs the pool has not registered yet.
            pool.cancel_cei(patched.cei_obj[patched.cidx_of_cid[cid]])
    return patched

