"""Invariant audit of the vectorized candidate pool's per-run columns.

:func:`audit_pool` recomputes the pool's incremental state — captured
counts, the M-EDF ``S``/``n_open`` aggregates, the reachable-capture
counts, the candidate bag and its per-resource counts — from the row
states (the captured flags), the CEI statuses and the arena's static
columns alone, and asserts every recomputed value equals what the pool
maintains event by event.  :func:`audited` wraps a monitor so the audit
runs after every stepped chronon.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.online import fastpath
from repro.online.fastpath import FastCandidatePool


def audit_pool(pool: FastCandidatePool, now: int) -> None:
    """Assert the pool's columns match a recomputation after chronon ``now``."""
    n, m = pool._n_rows, pool._n_ceis
    state = pool.npr_state[:n].tolist()
    status = pool.npc_status[:m].tolist()
    active = pool.np_active[: pool._row_cap].tolist()
    assert not any(active[n:]), "bag rows past the covered rows"
    expected_active = [False] * n
    for cidx, code in enumerate(status):
        cei = pool._cei_obj[cidx]
        rows = range(pool.cei_row_begin[cidx], pool.cei_row_end[cidx])
        captured = sum(state[row] == fastpath.CAPTURED for row in rows)
        assert pool.npc_captured_f[cidx] == captured, f"captured count of CEI {cidx}"
        if code == fastpath.PENDING:
            assert captured == 0 and all(state[row] == fastpath.LIVE for row in rows)
            continue
        assert (captured >= cei.required) == (code == fastpath.SATISFIED), (
            f"CEI {cidx}: {captured} captured of {cei.required} but status {code}"
        )
        if code != fastpath.OPEN:
            continue
        live = 0
        for row in rows:
            if state[row] == fastpath.LIVE:
                live += 1
                assert pool.row_finish[row] > now, f"row {row} outlived its window"
                expected_active[row] = pool._row_ei[row].start <= now
        assert pool.npc_usable_f[cidx] == captured + live, f"usable of CEI {cidx}"
        medf_s = 0
        medf_open = 0
        for ei in cei.eis:
            row = pool._row_of_seq.get(ei.seq)
            if row is not None and state[row] == fastpath.CAPTURED:
                continue
            if ei.start <= now:
                medf_s += ei.finish + 1
                medf_open += 1
            else:
                medf_s += ei.finish - ei.start + 1
        assert pool.npc_medf_s_f[cidx] == medf_s, f"M-EDF S of CEI {cidx}"
        assert pool.npc_medf_open_f[cidx] == medf_open, f"M-EDF n_open of CEI {cidx}"
    assert active[:n] == expected_active, "candidate bag"
    assert pool.num_active() == sum(expected_active)
    assert sorted(pool.bag().tolist()) == np.flatnonzero(expected_active).tolist()
    per_resource = Counter(
        pool.row_resource[row] for row in range(n) if expected_active[row]
    )
    for resource in set(pool.row_resource[:n]):
        assert pool.active_uncaptured_on(resource) == per_resource[resource], (
            f"bag count of resource {resource}"
        )
    codes = Counter(status)
    assert pool.num_registered == m - codes[fastpath.PENDING]
    assert pool.num_satisfied == codes[fastpath.SATISFIED]
    assert pool.num_failed == codes[fastpath.FAILED]
    assert pool.num_cancelled == codes[fastpath.CANCELLED]


def audited(monitor):
    """``monitor``, auditing its pool after every stepped chronon.

    The audit runs whenever the pool is the vectorized one (auto-dispatch
    may hold a reference pool for a while).  Returns the monitor.
    """
    step = monitor.step

    def audited_step(chronon, new_ceis=()):
        probed = step(chronon, new_ceis)
        if isinstance(monitor.pool, FastCandidatePool):
            audit_pool(monitor.pool, chronon)
        return probed

    monitor.step = audited_step
    return monitor
