"""The service leg: a durable streaming proxy driven open-loop over HTTP.

The proxy is built the way ``python -m repro.proxy serve --wal-dir
--fsync never`` builds it (``recovery="exact"``, the default engine),
plus a seeded failure model, retries and a circuit breaker, and is served
with :func:`repro.proxy.service.serve` on loopback.

A seeded *script* lists, per chronon, the writer's operations (every
fifth chronon a churn burst: submissions from 8 clients with windows
relative to ``now`` and cancels of recent submissions; one tick) and the
reader's (one GET cycling ``/healthz``, ``/stats`` and
``/clients/<name>/stats``; a periodic ``POST /snapshot``).
Every step replays the script from its start on a fresh proxy: two
replays at the nominal pace in chronons per second, closed-loop replays
of the writer's operations (each sent as soon as the one before it ends,
on one thread) whose throughput is the write path's capacity and whose
directories are then restarted, and a ladder of paces.  Two threads of
this process send the paced load — the writer calls the proxy
in-process, the reader over HTTP — and each operation is timed from when
it was due, so a stall also counts against the operations queued behind
it.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.resource import ResourcePool
from repro.online.config import MonitorConfig
from repro.online.faults import FailureModel, RetryPolicy
from repro.online.health import HealthConfig
from repro.proxy.durability import (
    DurabilityConfig,
    DurableStreamingProxy,
    SnapshotStore,
    decode_frames,
)
from repro.proxy.service import serve

from speed import scale, unit_s
from tracing import median, quantile

# The churn is the repository's churn experiment (E9 in EXPERIMENTS.md,
# repro.experiments.churn) at its highest rate: 60 resources, a budget of
# one probe per chronon, and every 5 chronons a batch of 32 new CEIs of
# 1-2 EIs, each window opening 1-11 chronons ahead and 3-17 long, while a
# quarter of the batch's size is cancelled.  Here the batch arrives as one
# submission of 4 CEIs from each of 8 clients, and the cancels are drawn
# from the latest two batches.  The initial bag holds about one
# stationary bag (6.4 CEIs per chronon living ~15 chronons).
RESOURCES = 60
CLIENTS = tuple(f"client-{i}" for i in range(8))
BUDGET = 1.0  # starved: believed completeness sits well inside (0, 1)
FAILURE_RATE = 0.15
RANK = (1, 2)
LEAD = (1, 11)  # chronons from now to a window's start
LENGTH = (3, 17)  # chronons
CHURN_PERIOD = 5  # chronons between bursts
BURST_CEIS = len(CLIENTS) * 4
CANCELS_PER_BURST = BURST_CEIS // 4
INITIAL_CEIS_PER_CLIENT = 12
# The reads are an assumption: one GET per chronon, and a checkpoint as
# often as the serve CLI's documented example (--snapshot-every 100).
READS_PER_CHRONON = 1
SNAPSHOT_EVERY = 100  # chronons between POST /snapshot
READ_PATHS = ("/healthz", "/stats", "/clients/{}/stats")

# Every step replays the same script from its start on a fresh proxy,
# compressed in time to the step's pace, so each holds the same history
# and the same checkpoint stalls.
NOMINAL_PACE = 100.0  # chronons per second
NOMINAL_CHRONONS = 300  # per nominal replay: 3 snapshots, 3 s
NOMINAL_REPLAYS = 2  # 600 ticks: six beyond the pooled p99
# A closed-loop replay has every write due at its start, so the writer
# never waits: its throughput is the write path's capacity, whatever the
# offered load.  Its directory is then restarted.  The caller runs as many
# as its time allows, at least ``closed_loop_min``, and the figures are
# medians at reference speed (``speed.py``).  The ladder replays the
# script's first chronons, reads included, without its snapshot requests
# at faster paces: it prices the request path between checkpoints (the
# nominal replays price the stalls).
CLOSED_LOOP = math.inf  # the pace at which every operation is due at once
CLOSED_LOOP_MIN = 4
CLOSED_LOOP_CHUNK = 128  # ops between readings of the host's speed
CLOSED_LOOP_CHRONONS = 300
LADDER = (150.0, 300.0, 600.0)  # chronons per second
LADDER_CHRONONS = 100


@dataclass
class StepResult:
    pace: float
    chronons: int
    latency: dict[str, list[float]] = field(default_factory=dict)
    lag: list[float] = field(default_factory=list)  # writer start - due, in order
    wait: list[float] = field(default_factory=list)  # start - due, every op
    open_start: int = 0
    open_end: int = 0
    ops: int = 0
    wall_s: float = 0.0  # closed loop: the ops' own durations, summed
    ref_s: float = 0.0  # closed loop: wall_s at reference speed
    open_samples: list[int] = field(default_factory=list)


def _cei_spec(rng: random.Random, now: int) -> tuple:
    """One CEI as ``((resource, start, finish), ...)``, windows after ``now``."""
    spec = []
    for resource in rng.sample(range(RESOURCES), rng.randint(*RANK)):
        start = now + rng.randint(*LEAD)
        spec.append((resource, start, start + rng.randint(*LENGTH)))
    return tuple(spec)


def make_cei(spec: tuple) -> ComplexExecutionInterval:
    return ComplexExecutionInterval(
        eis=tuple(
            ExecutionInterval(resource=r, start=s, finish=f) for r, s, f in spec
        )
    )


def build_script(seed: int, chronons: int) -> tuple[list, list[tuple], list[tuple]]:
    """The initial bag and, per chronon, the writer's and reader's ops.

    An op is a plain tuple ``(kind, chronon, frac, arg)``: ``kind`` is one
    of submit, cancel, tick, get and snapshot, and ``frac`` places its due
    time inside the chronon.  Tuples of numbers and strings drop out of
    the garbage collector's tracking, and the writer builds each CEI just
    before its operation is due, so the load generator adds nothing to the
    heap the collector scans beside the proxy's own objects.
    """
    rng = random.Random(seed)
    initial = [
        (client, [_cei_spec(rng, 0) for _ in range(INITIAL_CEIS_PER_CLIENT)])
        for client in CLIENTS
    ]
    owners: list[str] = []  # client of each scripted CEI, by submission ordinal
    cancelled: set[int] = set()
    writer, reader = [], []
    for chronon in range(chronons):
        ops = []
        if chronon % CHURN_PERIOD == 0:
            per_client = BURST_CEIS // len(CLIENTS)
            for client in CLIENTS:
                specs = tuple(_cei_spec(rng, chronon) for _ in range(per_client))
                ops.append(("submit", (client, specs)))
                owners.extend([client] * per_client)
            # Recent submissions, most still pending or open; each once.
            recent = [o for o in range(max(0, len(owners) - 2 * BURST_CEIS), len(owners))
                      if o not in cancelled]
            for ordinal in rng.sample(recent, CANCELS_PER_BURST):
                cancelled.add(ordinal)
                ops.append(("cancel", (owners[ordinal], ordinal)))
        ops.append(("tick", None))
        writer.append(tuple(
            (kind, chronon, k / len(ops), arg) for k, (kind, arg) in enumerate(ops)
        ))
        reads = []
        for k in range(READS_PER_CHRONON):
            index = chronon * READS_PER_CHRONON + k
            path = READ_PATHS[index % len(READ_PATHS)].format(
                CLIENTS[(index // len(READ_PATHS)) % len(CLIENTS)]
            )
            reads.append(("get", chronon, (k + 0.5) / READS_PER_CHRONON, path))
        if chronon % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
            reads.append(("snapshot", chronon, 0.9, None))
        reader.append(tuple(reads))
    return initial, writer, reader


def proxy_config(root: Path, seed: int) -> dict:
    # Every append is written and flushed but not fsynced: on a shared disk
    # an fsync swings from ~0.25 ms to over 7 ms for minutes at a time, and
    # one held under the proxy lock makes every latency a measure of the
    # neighbours.  Checkpoints still commit to SQLite with its own fsyncs.
    return dict(
        durability=DurabilityConfig(root=root, fsync="never", recovery="exact"),
        resources=ResourcePool.uniform(RESOURCES),
        budget=BUDGET,
        policy="MRSF",
        config=MonitorConfig(
            faults=FailureModel(rate=FAILURE_RATE, seed=seed),
            retry=RetryPolicy(max_retries=1, backoff_base=1.0, backoff_cap=8),
            health=HealthConfig(breaker=True),
        ),
    )


class Plan(NamedTuple):
    """How many replays of which length."""

    nominal_replays: int
    nominal_chronons: int
    closed_loop_min: int
    closed_loop_chronons: int
    ladder_chronons: int

    @property
    def chronons(self) -> int:
        """The script's length: the longest replay."""
        return max(self.nominal_chronons, self.closed_loop_chronons, self.ladder_chronons)


def plan(seconds: float) -> Plan:
    """The service leg's replay lengths and least counts, fixed so that
    every replay of every seed does the same work."""
    if seconds < 10:  # a smoke-test size
        return Plan(2, SNAPSHOT_EVERY + 10, 2, 40, 20)
    return Plan(NOMINAL_REPLAYS, NOMINAL_CHRONONS, CLOSED_LOOP_MIN,
                CLOSED_LOOP_CHRONONS, LADDER_CHRONONS)


class Service:
    """A fresh proxy + HTTP endpoint holding the script's initial bag."""

    def __init__(self, root: Path, seed: int, initial: list) -> None:
        self.root = root
        self.seed = seed
        self.proxy = DurableStreamingProxy(**proxy_config(root, seed))
        self.http = serve(self.proxy)
        for client in CLIENTS:
            self.proxy.register_client(client)
        for client, specs in initial:
            self.proxy.submit_ceis(client, [make_cei(spec) for spec in specs])

    def shutdown(self) -> None:
        self.http.shutdown()
        self.proxy.close()


class _Failures:
    """Failed operations, counted from both load threads."""

    def __init__(self) -> None:
        self.count = 0
        self.first: str | None = None
        self._lock = threading.Lock()

    def note(self, message: str) -> None:
        with self._lock:
            self.count += 1
            if self.first is None:
                self.first = message


def _run_ops(ops, t0, pace, prepare, execute, settle, records, tracer, op_ids,
             failures):
    """Send ``ops`` open-loop from ``t0``; one record per op, in order.

    ``prepare`` runs before an op is due and ``settle`` after its end is
    taken, so neither counts in its latency.
    """
    for op in ops:
        kind, chronon, frac, _ = op
        due = t0 + (chronon + frac) / pace
        arg = prepare(op)  # before the due time: not part of the operation
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        start = time.perf_counter()
        op_id = next(op_ids)
        try:
            with tracer.span(f"stream.{kind}", op=op_id):
                execute(op, arg, op_id)
            ok = True
        except Exception as error:  # the load generator keeps going and counts it
            failures.note(f"{kind}: {type(error).__name__}: {error}")
            ok = False
        end = time.perf_counter()
        records.append((kind, due, start, end, ok))
        settle(op)


class Replayer:
    """Replays the script against one :class:`Service` (one replay each)."""

    def __init__(self, service: Service, script: tuple, tracer) -> None:
        self.script = script
        self.proxy = service.proxy
        self.tracer = tracer
        self.failures = _Failures()
        self.attempted = 0
        self.checks = 0
        self._op_ids = itertools.count(1)
        self._wal = service.root / "wal.log"
        self._wal_before = 0
        self.wal_bytes: list[int] = []
        self.checkpoint_s: list[float] = []
        self._conn = http.client.HTTPConnection(
            service.http.host, service.http.port, timeout=30
        )
        self._open_samples: list[int] = []
        self._submitted: list[ComplexExecutionInterval] = []  # by script ordinal

    # -- operations -------------------------------------------------------

    def _prepare_write(self, op: tuple):
        kind, _, _, arg = op
        if self.tracer.enabled:
            self._wal_before = self._wal.stat().st_size
        if kind == "submit":
            ceis = [make_cei(spec) for spec in arg[1]]
            self._submitted.extend(ceis)
            return ceis
        if kind == "cancel":
            return [self._submitted[arg[1]]]
        return None

    def _write(self, op: tuple, ceis, op_id: int) -> None:
        tracer = self.tracer
        kind, _, _, arg = op
        if kind == "submit":
            with tracer.span("proxy.submit_ceis", op=op_id):
                self.proxy.submit_ceis(arg[0], ceis)
        elif kind == "cancel":
            with tracer.span("proxy.cancel_ceis", op=op_id):
                self.proxy.cancel_ceis(arg[0], ceis)
        else:
            with tracer.span("proxy.tick", op=op_id):
                self.proxy.tick()

    def _settle_write(self, op: tuple) -> None:
        if self.tracer.enabled:
            grew = self._wal.stat().st_size - self._wal_before
            if grew > 0:  # a checkpoint may truncate the journal meanwhile
                self.wal_bytes.append(grew)

    def _request(self, method: str, path: str) -> dict:
        self._conn.request(method, path)
        response = self._conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"{method} {path} -> HTTP {response.status}")
        return json.loads(body)

    def _read(self, op: tuple, _prepared, op_id: int) -> None:
        tracer = self.tracer
        kind, _, _, path = op
        if kind == "snapshot":
            started = time.perf_counter()
            with tracer.span("http.post_snapshot", op=op_id):
                payload = self._request("POST", "/snapshot")
            self.checkpoint_s.append(time.perf_counter() - started)
            if payload.get("snapshot_id") is None:
                raise RuntimeError(f"snapshot refused: {payload}")
            self.checks += 1
            return
        with tracer.span("http.get", op=op_id):
            payload = self._request("GET", path)
        if path == "/healthz" and payload.get("status") != "ok":
            raise RuntimeError(f"/healthz reports {payload.get('status')!r}")
        if "open_ceis" in payload:
            self._open_samples.append(int(payload["open_ceis"]))
        self.checks += 1

    # -- steps -------------------------------------------------------------

    def run_step(self, pace: float, chronons: int, snapshots: bool) -> StepResult:
        """Replay the script's first ``chronons`` at ``pace`` chronons/s.

        At ``CLOSED_LOOP`` pace every write is due at the start, and there
        are no reads.
        """
        _, writer_ops, reader_ops = self.script
        writer = [op for ops in writer_ops[:chronons] for op in ops]
        reader = [
            op for ops in reader_ops[:chronons] for op in ops
            if snapshots or op[0] != "snapshot"
        ]
        result = StepResult(pace=pace, chronons=chronons)
        result.open_start = int(self.proxy.stats()["open_ceis"])
        self._open_samples = result.open_samples
        w_records: list = []
        r_records: list = []
        t0 = time.perf_counter() + 0.005
        with self.tracer.span("stream.step"):
            if pace == CLOSED_LOOP:
                # Capacity of the write path: the writer's stream on this
                # thread, each op as soon as the one before it ends, and no
                # reader (see ``closed_loop_replay``).  The host's speed
                # changes within a replay, so it is read between chunks of
                # ops (``speed.py``); the open bag is sampled there too.
                reading = unit_s()
                for first in range(0, len(writer), CLOSED_LOOP_CHUNK):
                    done = len(w_records)
                    _run_ops(writer[first:first + CLOSED_LOOP_CHUNK], t0, pace,
                             self._prepare_write, self._write, self._settle_write,
                             w_records, self.tracer, self._op_ids, self.failures)
                    after = unit_s()
                    busy = sum(end - start for _, _, start, end, _ in w_records[done:])
                    result.wall_s += busy
                    result.ref_s += scale(busy, reading, after)
                    reading = after
                    result.open_samples.append(int(self.proxy.stats()["open_ceis"]))
            else:
                reader_thread = threading.Thread(
                    target=_run_ops,
                    args=(reader, t0, pace, lambda op: None, self._read, lambda op: None,
                          r_records, self.tracer, self._op_ids, self.failures),
                    name="perfbench-reader",
                )
                reader_thread.start()
                _run_ops(writer, t0, pace, self._prepare_write, self._write,
                         self._settle_write, w_records, self.tracer, self._op_ids,
                         self.failures)
                reader_thread.join()
        records = w_records + r_records
        if pace != CLOSED_LOOP:
            result.wall_s = max(end for _, _, _, end, _ in records) - t0
        result.open_end = int(self.proxy.stats()["open_ceis"])
        result.ops = len(records)
        self.attempted += len(records)
        groups = {"tick": ("tick",), "write": ("submit", "cancel"),
                  "read": ("get",), "snapshot": ("snapshot",)}
        for name, kinds in groups.items():
            result.latency[name] = [
                (end - due) if ok else float("inf")
                for kind, due, _, end, ok in records if kind in kinds
            ]
        result.lag = [start - due for _, due, start, _, _ in w_records]
        result.wait = [start - due for _, due, start, _, _ in records]
        return result

    def close(self) -> None:
        self._conn.close()


def backlog_grows(step: StepResult) -> bool:
    """Is the writer later in the last quarter than in the first half?"""
    lag = step.lag
    quarter = max(1, len(lag) // 4)
    return median(lag[-quarter:]) > median(lag[: 2 * quarter]) + 1.0 / step.pace


def sustained(step: StepResult) -> bool:
    """Tick p99 within the tick interval and a backlog that does not grow."""
    return quantile(step.latency["tick"], 0.99) <= 1.0 / step.pace and not backlog_grows(step)


def run_step(service: Service, script: tuple, pace: float, chronons: int,
             tracer, counts: dict, snapshots: bool = True) -> tuple[StepResult, Replayer]:
    """One replay on ``service``, then its budget check; closes nothing."""
    gc.collect()  # garbage of earlier steps is not this step's cost
    replayer = Replayer(service, script, tracer)
    try:
        step = replayer.run_step(pace, chronons, snapshots)
    finally:
        replayer.close()
    service.proxy.monitor.monitor.check_budget_feasible()
    counts["budget_feasible"] += 1
    counts["http_reply_ok"] += replayer.checks
    return step, replayer


def _pooled(steps: list[StepResult]) -> StepResult:
    """The nominal replays' samples as one step (lag and samples in order)."""
    pooled = StepResult(pace=steps[0].pace, chronons=sum(s.chronons for s in steps))
    for step in steps:
        for name, values in step.latency.items():
            pooled.latency.setdefault(name, []).extend(values)
        pooled.lag.extend(step.lag)
        pooled.wait.extend(step.wait)
        pooled.open_samples.extend(step.open_samples)
        pooled.ops += step.ops
        pooled.wall_s += step.wall_s
    pooled.open_start, pooled.open_end = steps[0].open_start, steps[-1].open_end
    return pooled


class Leg:
    """The service leg, driven one replay at a time, then finished.

    The caller interleaves :meth:`nominal_replay` and
    :meth:`closed_loop_replay` calls with its other work, so a stall of the
    host that lasts seconds lands in few replays; :meth:`finish` then
    climbs the ladder.  Every replay runs the same script from its start on
    a fresh proxy; the first nominal replay uses the proxy built during
    set-up.
    """

    def __init__(self, service: Service, script: tuple, seconds: float, tracer,
                 run_dir: Path) -> None:
        self.plan = plan(seconds)
        self._service: Service | None = service
        self._seed = service.seed
        self._script = script
        self._tracer = tracer
        self._run_dir = run_dir
        self.counts = {"budget_feasible": 0, "http_reply_ok": 0,
                       "replay_stats_equal": 0, "recovered_stats_equal": 0}
        self._mismatches: list[str] = []
        self._nominal: list[StepResult] = []
        self._closed_loop: list[StepResult] = []
        self._ladder: list[StepResult] = []
        self._rates: list[tuple[float, float]] = []  # closed loop: (raw, reference) ops/s
        self._recover_s: list[tuple[float, float]] = []  # (raw, reference) s
        self._replay_records = 0
        self._replayers: list[Replayer] = []
        self._live: dict | None = None
        self._close_s = 0.0

    def _replay(self, service: Service, pace: float, chronons: int,
                snapshots: bool) -> StepResult:
        try:
            step, replayer = run_step(service, self._script, pace, chronons,
                                      self._tracer, self.counts, snapshots)
        except BaseException:
            service.shutdown()
            raise
        self._replayers.append(replayer)
        return step

    def _fresh(self) -> Service:
        index = len(self._nominal) + len(self._closed_loop) + len(self._ladder)
        return Service(self._run_dir / f"replay-{index}", self._seed, self._script[0])

    def nominal_replay(self) -> None:
        """One replay at the nominal pace; its proxy is then closed."""
        service = self._service or self._fresh()
        self._service = None
        self._nominal.append(
            self._replay(service, NOMINAL_PACE, self.plan.nominal_chronons, True)
        )
        stats = service.proxy.stats()
        if self._live is not None:
            if stats == self._live:
                self.counts["replay_stats_equal"] += 1
            else:
                self._mismatches.append(
                    f"replay {len(self._nominal) - 1} stats {stats} != first {self._live}"
                )
        else:
            self._live = stats
        if self._tracer.enabled:
            self._price_reads(service.proxy)
        started = time.perf_counter()
        service.shutdown()  # stops HTTP, then a final checkpoint
        self._close_s = time.perf_counter() - started

    def _price_reads(self, proxy) -> None:
        """The in-process cost of the HTTP reads, apart from the paced load."""
        for client in CLIENTS:
            with self._tracer.span("service.stats"):
                proxy.stats()
            with self._tracer.span("service.client_stats"):
                proxy.client_stats(client)

    @property
    def nominal_replays(self) -> int:
        return len(self._nominal)

    @property
    def closed_loop_replays(self) -> int:
        return len(self._closed_loop)

    def closed_loop_replay(self) -> None:
        """One closed-loop replay, then a restart of its directory, both
        timed at reference speed (``speed.py``).

        The closed loop drives the write path alone.  A loopback GET here
        costs a TCP connection and a server thread per request, and its
        time swung twice as far as any calibration loop tracked, so
        with reads the throughput measured the host's wake-ups; the reads
        are priced at the nominal pace instead.
        """
        fresh = self._fresh()
        step = self._replay(fresh, CLOSED_LOOP, self.plan.closed_loop_chronons, False)
        self._closed_loop.append(step)
        self._rates.append((step.ops / step.wall_s, step.ops / step.ref_s))
        live = fresh.proxy.stats()
        fresh.shutdown()
        self._replay_records = _journal_records(fresh.root)
        gc.collect()
        before = unit_s()
        started = time.perf_counter()
        with self._tracer.span("durability.recover"):
            recovered = DurableStreamingProxy(**proxy_config(fresh.root, self._seed))
        raw = time.perf_counter() - started
        self._recover_s.append((raw, scale(raw, before, unit_s())))
        try:
            if recovered.stats() == live:
                self.counts["recovered_stats_equal"] += 1
            else:
                self._mismatches.append(f"recovered stats {recovered.stats()} != live {live}")
        finally:
            recovered.close()

    def close(self) -> None:
        """Release the set-up proxy if no replay used it."""
        if self._service is not None:
            self._service.shutdown()
            self._service = None

    def finish(self) -> dict:
        """Climb the ladder and report."""
        for pace in LADDER:
            fresh = self._fresh()
            self._ladder.append(self._replay(fresh, pace, self.plan.ladder_chronons, False))
            fresh.shutdown()
        return self._report()

    def _report(self) -> dict:
        nominal_steps, live, replayers = self._nominal, self._live, self._replayers

        nominal = _pooled(nominal_steps)

        def latency_ms(name: str, q: float) -> float:
            """The median over nominal replays of each replay's quantile."""
            return median([quantile(step.latency[name], q) for step in nominal_steps]) * 1e3

        figures = {
            "tick_p50_ms": latency_ms("tick", 0.5),
            "write_p50_ms": latency_ms("write", 0.5),
            "read_p50_ms": latency_ms("read", 0.5),
            # Tails pool every nominal sample (at least six beyond the p99).
            "tick_p99_ms": quantile(nominal.latency["tick"], 0.99) * 1e3,
            "write_p99_ms": quantile(nominal.latency["write"], 0.99) * 1e3,
            "read_p99_ms": quantile(nominal.latency["read"], 0.99) * 1e3,
            # Medians over the closed-loop replays and their restarts, at
            # reference speed; the raw medians beside them.
            "sustained_ops_s": median([ref for _, ref in self._rates]),
            "recover_s": median([ref for _, ref in self._recover_s]),
            "sustained_ops_s_raw": median([raw for raw, _ in self._rates]),
            "recover_s_raw": median([raw for raw, _ in self._recover_s]),
            "believed_completeness": live["believed_completeness"],
        }
        validity = [
            {
                "step": step_name,
                "pace_chronons_s": step.pace,
                "chronons": step.chronons,
                "ops": step.ops,
                "achieved_ops_s": round(step.ops / step.wall_s, 1),
                "tick_p99_ms": round(quantile(step.latency["tick"], 0.99) * 1e3, 3),
                "lag_end_ms": round(step.lag[-1] * 1e3, 3),
                "lag_max_ms": round(max(step.lag) * 1e3, 3),
                "open_ceis_start": step.open_start,
                "open_ceis_mean": round(
                    sum(step.open_samples) / max(1, len(step.open_samples)), 1
                ),
                "open_ceis_end": step.open_end,
                "backlog_grows": backlog_grows(step),
                "sustained": sustained(step),
            }
            for step_name, step in [("nominal", s) for s in nominal_steps]
            + [("ladder", s) for s in self._ladder]
        ]
        # Closed loop, every operation is late but the first: only the
        # throughput and the bag mean anything.
        validity += [
            {
                "step": "closed_loop",
                "chronons": step.chronons,
                "ops": step.ops,
                "achieved_ops_s": round(step.ops / step.wall_s, 1),
                "achieved_chronons_s": round(step.chronons / step.wall_s, 1),
                "open_ceis_start": step.open_start,
                "open_ceis_mean": round(
                    sum(step.open_samples) / max(1, len(step.open_samples)), 1
                ),
                "open_ceis_end": step.open_end,
            }
            for step in self._closed_loop
        ]
        layers = None
        if self._tracer.enabled:
            layers = _layer_metrics(self._tracer, replayers, nominal, live,
                                    self._replay_records, self._close_s)
        return {
            "figures": figures,
            "validity": validity,
            "nominal_samples": {name: len(v) for name, v in nominal.latency.items()},
            "attempted": sum(d.attempted for d in replayers) + len(self._recover_s),
            "failed": sum(d.failures.count for d in replayers),
            "first_failure": next((d.failures.first for d in replayers if d.failures.first), None),
            "checks": self.counts,
            "check_failures": self._mismatches,
            "layers": layers,
        }


def _journal_records(root: Path) -> int:
    """Records a recovery of ``root`` replays: snapshot oplog + journal tail."""
    config = DurabilityConfig(root=root)
    store = SnapshotStore(config.snapshot_path)
    try:
        latest = store.latest()
        replay = len(latest.payload.get("oplog", [])) if latest else 0
    finally:
        store.close()
    if config.wal_path.exists():
        records, _, _ = decode_frames(config.wal_path.read_bytes())
        replay += len(records)
    return replay


def _layer_metrics(tracer, replayers, nominal, live, replay, close_s) -> dict:
    """Per-layer figures of a traced service leg, as (value, unit)."""
    probes = live["probes_used"]
    wal_bytes = [size for d in replayers for size in d.wal_bytes]
    checkpoint_s = [s for d in replayers for s in d.checkpoint_s] + [close_s]
    writes = tracer.durations("proxy.submit_ceis") + tracer.durations("proxy.cancel_ceis")
    return {
        "proxy.tick_service_ms": (median(tracer.durations("proxy.tick")) * 1e3, "ms"),
        "proxy.write_service_ms": (median(writes) * 1e3, "ms"),
        "proxy.wait_ms": (median(nominal.wait) * 1e3, "ms"),
        "proxy.open_ceis": (
            sum(nominal.open_samples) / max(1, len(nominal.open_samples)), "count"
        ),
        "proxy.probe_success_ratio": (
            (probes - live["probes_failed"]) / max(1, probes), "ratio"
        ),
        "wal.records": (float(live["wal_seq"]), "count"),
        "wal.bytes_per_write": (median(wal_bytes), "bytes"),
        "durability.checkpoint_ms": (median(checkpoint_s) * 1e3, "ms"),
        "durability.replay_records": (float(replay), "count"),
        "service.stats_ms": (median(tracer.durations("service.stats")) * 1e3, "ms"),
        "service.client_stats_ms": (
            median(tracer.durations("service.client_stats")) * 1e3, "ms"
        ),
        "service.http_get_ms": (median(tracer.durations("http.get")) * 1e3, "ms"),
        "loadgen.lag_ms": (max(nominal.lag) * 1e3, "ms"),
        "loadgen.ops": (float(nominal.ops), "count"),
    }
