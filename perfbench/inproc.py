"""The in-process workloads, ``churn-delta`` and ``plan-full``.

The service core runs in the benchmark's own process on a
:class:`~common.VirtualClock`, driven through ``AllocationService.handle``
exactly as a transport would drive it: every command is encoded to its
wire line and decoded again before ``handle``, and every reply and push
is encoded, with the codec of ``repro.serve.protocol``.  A run repeats
whole rounds of one seeded script; each round starts a fresh journaled
service, applies the script's membership changes with every session
reporting between them, then crashes the service and recovers it from
its journal.
"""

from __future__ import annotations

import time

from checker import to_spec
from common import VirtualClock, fresh_dir, recover_copies

#: Virtual seconds between two consecutive reports of a cycle.  With
#: ten sessions a cycle spans 0.02 + 10 x 0.004 = 0.06 s, well inside the
#: 0.15 s staleness window.
REPORT_STEP = 0.004
#: The journal settings of the churn replays: compaction every 16
#: records, no fsync.
COMPACT_EVERY = 16


class RoundFailure(AssertionError):
    """The service answered a command of the script wrongly."""


class _Session:
    """What the benchmark knows of one session: its last push."""

    __slots__ = ("app", "epoch", "per_node", "score", "degraded", "epochs")

    def __init__(self, app: tuple) -> None:
        self.app = app
        self.epoch = None
        self.per_node = None
        self.score = None
        self.degraded = None
        self.epochs: list[int] = []


def run_round(
    script: dict, mode: str, workers: int, trace=None, *, recoveries: int = 1
) -> dict:
    """Run one round of ``script``; returns its measurements and records.

    ``trace`` (a :class:`layers.LayerTrace` already installed) is reset
    after the cold start and snapshotted after recovery, so per-layer
    figures cover the script and the recovery but not the set-up.  The
    crashed service's journal is recovered ``recoveries`` times, each
    from its own copy.
    """
    from repro.machine.presets import model_machine
    from repro.serve import protocol
    from repro.serve.persist import Journal
    from repro.serve.protocol import (
        Ack, AllocationUpdate, Deregister, ProgressReport, QueryAllocation,
        Register,
    )
    from repro.serve.service import AllocationService, ServiceConfig


    machine = model_machine()
    config = ServiceConfig(machine=machine, mode=mode, workers=workers)
    debounce = config.debounce
    journal_dir = fresh_dir("journal-inproc")
    vc = VirtualClock()
    service = AllocationService(
        config,
        clock=vc.clock,
        call_later=vc.call_later,
        journal=Journal.open(
            journal_dir, fsync=False, compact_every=COMPACT_EVERY
        ),
    )
    live: dict[str, _Session] = {}
    order: list[str] = []
    counts = {"sent": 0, "replied": 0, "errors": 0}
    records = []

    def on_push(message) -> None:
        protocol.encode_message(message)
        session = live.get(message.name)
        if session is None or not isinstance(message, AllocationUpdate):
            raise RoundFailure(f"unexpected push {message!r}")
        session.epoch = message.epoch
        session.per_node = message.per_node
        session.score = message.score
        session.degraded = message.degraded
        session.epochs.append(message.epoch)

    def send(message):
        counts["sent"] += 1
        line = protocol.encode_message(message)
        reply = service.handle(protocol.decode_message(line))
        if reply is not None:
            protocol.encode_message(reply)
            counts["replied"] += 1
        return reply

    def expect(reply, kind, what: str):
        if not isinstance(reply, kind):
            counts["errors"] += 1
            raise RoundFailure(f"{what}: got {reply!r}")
        return reply

    def register(app: tuple) -> int:
        spec = to_spec(app)
        live[app[0]] = _Session(app)
        order.append(app[0])
        ack = expect(send(Register(name=app[0], app=spec)), Ack, f"register {app[0]}")
        service.subscribe(app[0], on_push)
        return ack.epoch

    def deregister(name: str) -> None:
        expect(send(Deregister(name=name)), Ack, f"deregister {name}")
        del live[name]
        order.remove(name)

    def settle(target: int) -> None:
        """Fire the debounce and record what every session now holds."""
        vc.advance(debounce)
        first = live[order[0]]
        for name in order:
            session = live[name]
            if session.epoch is None or session.epoch < target:
                raise RoundFailure(
                    f"{name} holds epoch {session.epoch}, expected >= {target}"
                )
        records.append((
            tuple(live[n].app for n in order),
            {n: live[n].per_node for n in order},
            first.score,
            first.degraded,
        ))

    # -- cold start (set-up, not measured) ------------------------------
    target = 0
    for app in script["initial"]:
        target = register(app)
    settle(target)
    if trace is not None:
        trace.reset()

    react: list[float] = []
    commands: list[float] = []
    beat = 0
    cpu0 = time.process_time()
    for step in script["steps"]:
        kind, first, second = step["change"]
        leaving = first if kind == "replace" else first[0]
        start = time.perf_counter()
        deregister(leaving)
        target = register(second)
        settle(target)
        react.append(time.perf_counter() - start)
        beat += 1
        for name in step["reports"]:
            vc.advance(REPORT_STEP)
            session = live[name]
            message = ProgressReport(
                name=name, time=vc.now, progress={"beats": float(beat)},
                cpu_load=1.0, acked_epoch=session.epoch,
            )
            start = time.perf_counter()
            reply = send(message)
            commands.append(time.perf_counter() - start)
            expect(reply, Ack, f"report {name}")
        for name in step["queries"]:
            start = time.perf_counter()
            reply = send(QueryAllocation(name=name))
            commands.append(time.perf_counter() - start)
            reply = expect(reply, AllocationUpdate, f"query {name}")
            session = live[name]
            if (reply.per_node, reply.epoch) != (session.per_node, session.epoch):
                raise RoundFailure(
                    f"query {name}: {reply.per_node}@{reply.epoch} differs "
                    f"from push {session.per_node}@{session.epoch}"
                )
    cpu_s = time.process_time() - cpu0

    # -- crash and recovery ---------------------------------------------
    before = service.snapshot_state()
    service.crash()
    apps = tuple(live[n].app for n in order)

    def recover(path: str):
        rvc = VirtualClock()
        rvc.now = vc.now
        start = time.perf_counter()
        recovered = AllocationService.recover(
            path, config, clock=rvc.clock, call_later=rvc.call_later,
            fsync=False, compact_every=COMPACT_EVERY,
        )
        loaded_s = time.perf_counter() - start
        after = recovered.snapshot_state()
        start = time.perf_counter()
        rvc.advance(debounce)
        elapsed = loaded_s + time.perf_counter() - start
        outcome = (
            apps,
            {k: tuple(v) for k, v in recovered.current_allocation().items()},
            recovered.current_score(),
            recovered.snapshot_state()["degraded"],
            before == after,
        )
        recovered.crash()
        return elapsed, outcome

    recovered = recover_copies(journal_dir, recoveries, recover)
    snap = trace.snapshot() if trace is not None else None
    for name in order:
        epochs = live[name].epochs
        if any(b < a for a, b in zip(epochs, epochs[1:])):
            raise RoundFailure(f"{name}: pushed epochs went backwards {epochs}")
    return {
        "react_s": react,
        "cmd_s": commands,
        "cpu_s": cpu_s,
        "recover_s": [elapsed for elapsed, _ in recovered],
        "records": records,
        "recovered": [outcome for _, outcome in recovered],
        "counts": counts,
        "trace": snap,
    }
