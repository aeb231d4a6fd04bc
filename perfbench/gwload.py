"""The ``gateway-open`` workload: the real daemon, driven open-loop.

The daemon is started as operators start it (``python -m repro serve
--tcp 127.0.0.1:0 --journal DIR``: full mode, an fsync per journal
record, no tuning flags).  One single-threaded client in this process
drives it over two TCP connections that multiplex the sessions.  Each
session sends its next command only after the reply to its previous one,
as a runtime does; commands are timed from their scheduled send time, so
a stall also charges the commands it delayed (open-loop accounting).
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque

from checker import to_spec
from common import (
    HERE, ROOT, WORK, VirtualClock, child_env, fresh_dir, recover_copies,
)
from workload_script import gateway_schedule

#: Seconds of schedule per round.  ``cpu_s`` and the command latency
#: percentiles are medians over rounds, so a burst of noise from the
#: host that spans less than half the run does not move them.
ROUND_S = 1.0
#: Give up on a daemon that does not answer within this many seconds.
STARTUP_TIMEOUT = 60.0
QUIESCE_TIMEOUT = 20.0
#: Journal records after the last compaction when the daemon is
#: killed: the client tops the journal up to this many, so that every
#: run's recovery replays the same amount (half a compaction interval,
#: the mean replay length of a kill at a random moment).
REPLAY_RECORDS = 512


class GatewayFailure(AssertionError):
    """The daemon misbehaved: no reply, a wrong reply, or no start-up."""


def launch(journal_dir: str, log_path: str, dump_path: str | None = None):
    """Start the daemon; returns ``(process, port, launch_time)``.

    With ``dump_path`` the daemon starts through ``daemon_boot.py``,
    which installs the per-layer trace first.
    """
    serve = ["serve", "--tcp", "127.0.0.1:0", "--journal", journal_dir]
    if dump_path is None:
        argv = [sys.executable, "-m", "repro", *serve]
    else:
        argv = [
            sys.executable, os.path.join(HERE, "daemon_boot.py"),
            dump_path, *serve,
        ]
    log = open(log_path, "wb")
    started = time.perf_counter()
    try:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=log, stdin=subprocess.DEVNULL,
        )
    finally:
        log.close()
    try:
        line = _read_line(proc, STARTUP_TIMEOUT)
        if not line.startswith("gateway serving"):
            raise GatewayFailure(f"daemon did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
    except BaseException:
        stop(proc)
        raise
    return proc, port, started


def _read_line(proc, timeout: float) -> str:
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            raise GatewayFailure("daemon printed nothing before the timeout")
    finally:
        sel.close()
    return proc.stdout.readline().decode("utf-8", "replace").strip()


def stop(proc) -> None:
    """SIGKILL the daemon and wait for it to end."""
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)
    if proc.stdout is not None:
        proc.stdout.close()


def proc_cpu_s(pid: int) -> float:
    """On-CPU seconds of the main thread of process ``pid``.

    The daemon does all its work on its event-loop thread; schedstat
    counts that thread's user plus system time in nanoseconds, where
    ``/proc/PID/stat`` would round to 10 ms ticks.
    """
    with open(f"/proc/{pid}/schedstat") as fh:
        return int(fh.read().split()[0]) / 1e9


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise GatewayFailure("no VmHWM in /proc status")


class _Conn:
    __slots__ = ("sock", "buf", "fifo")

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        #: commands sent on this connection, awaiting their replies.
        self.fifo: deque = deque()


class _Sess:
    __slots__ = (
        "name", "app", "conn", "queue", "busy", "epoch", "per_node",
        "started", "alive", "successor", "reg_epoch", "end_epoch",
    )

    def __init__(self, name: str, app: tuple, conn: _Conn) -> None:
        self.name = name
        self.app = app
        self.conn = conn
        self.queue: deque = deque()
        self.busy = False
        self.epoch = None
        self.per_node = None
        #: False until the session's register may go out: a successor
        #: waits for its predecessor's deregister.
        self.started = False
        self.alive = True
        self.successor = None
        self.reg_epoch = None
        self.end_epoch = None


class Client:
    """Open-loop load client over two connections to one daemon."""

    def __init__(self, port: int) -> None:
        from repro.serve import protocol

        self.protocol = protocol
        self.conns = [_Conn(port), _Conn(port)]
        # select(2) takes its timeout in microseconds, epoll in whole
        # milliseconds, which would make every scheduled send ~0.5 ms late.
        self.sel = selectors.SelectSelector()
        for conn in self.conns:
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)
        self.sessions: dict[str, _Sess] = {}
        self.sent = 0
        self.replies = 0
        self.errors: list[str] = []
        self.cmd_s: list[float] = []
        self.late_s: list[float] = []
        self.react_s: list[float] = []
        #: changes whose new allocation has not reached every survivor,
        #: as [issued_at, target_epoch, names still to hold it].
        self.pending: list[list] = []
        #: arriving session name -> its change, until the register ack.
        self.arrivals: dict[str, list] = {}
        #: epoch -> {name: (per_node, score, degraded)} of every push.
        self.pushes: dict[int, dict] = {}
        #: name -> (per_node, epoch, score) of the last query reply.
        self.answers: dict[str, tuple] = {}
        self.first_push_at: float | None = None
        #: when the schedule started (``perf_counter``).
        self.t0 = 0.0
        #: the ``time`` field of the last report sent (daemon's clock).
        self.last_report_time = time.monotonic()

    def close(self) -> None:
        self.sel.close()
        for conn in self.conns:
            conn.sock.close()

    # -- sending ----------------------------------------------------------

    def add_session(self, name: str, app: tuple, conn_index: int) -> _Sess:
        sess = _Sess(name, app, self.conns[conn_index])
        self.sessions[name] = sess
        return sess

    def enqueue(self, name: str, kind: str, t_sched: float) -> None:
        """Queue one command of session ``name`` scheduled at ``t_sched``."""
        sess = self.sessions[name]
        sess.queue.append((kind, t_sched))
        self._pump(sess)

    def _send(self, sess: _Sess, kind: str, t_sched: float, message) -> None:
        line = (self.protocol.encode_message(message) + "\n").encode()
        sess.conn.fifo.append((kind, sess, t_sched))
        sess.busy = True
        self.sent += 1
        sess.conn.sock.sendall(line)

    def _pump(self, sess: _Sess) -> None:
        """Send the session's next queued command if it is free to."""
        p = self.protocol
        while sess.started and not sess.busy and sess.queue:
            kind, t_sched = sess.queue[0]
            if kind == "query" and sess.per_node is None:
                return  # resumes on the session's first push
            sess.queue.popleft()
            if kind == "register":
                message = p.Register(name=sess.name, app=to_spec(sess.app))
            elif kind in ("report", "topup"):
                self.last_report_time = time.monotonic()
                message = p.ProgressReport(
                    name=sess.name, time=self.last_report_time,
                    progress={"beats": 1.0}, cpu_load=1.0,
                    acked_epoch=sess.epoch,
                )
            elif kind in ("query", "final"):
                message = p.QueryAllocation(name=sess.name)
            else:
                message = p.Deregister(name=sess.name)
            self._send(sess, kind, t_sched, message)
            if kind == "deregister":
                # The arriving instance registers right behind, on the
                # same connection, so the daemon sees leave then arrive.
                successor = self.sessions[sess.successor]
                change = [t_sched, None, None]
                self.pending.append(change)
                self.arrivals[successor.name] = change
                successor.queue.appendleft(("register", t_sched))
                successor.started = True
                self._pump(successor)

    # -- receiving --------------------------------------------------------

    def poll(self, timeout: float) -> None:
        """Wait up to ``timeout`` for input and handle every full line."""
        for key, _ in self.sel.select(max(timeout, 0.0)):
            conn = key.data
            data = conn.sock.recv(65536)
            if not data:
                raise GatewayFailure("daemon closed a connection")
            conn.buf += data
            *lines, conn.buf = conn.buf.split(b"\n")
            now = time.perf_counter()
            for line in lines:
                if line:
                    self._on_line(conn, line, now)

    def _on_line(self, conn: _Conn, line: bytes, now: float) -> None:
        p = self.protocol
        message = p.decode_message(line.decode("utf-8"))
        if isinstance(message, p.AllocationUpdate) and message.in_reply_to is None:
            self._on_push(message, now)
            return
        if not conn.fifo:
            self.errors.append(f"reply with no command outstanding: {message!r}")
            return
        kind, sess, t_sched = conn.fifo.popleft()
        self.replies += 1
        sess.busy = False
        if isinstance(message, p.ErrorReply) or message.name != sess.name:
            self.errors.append(f"{kind} {sess.name}: {message!r}")
        elif kind in ("report", "query"):
            self.cmd_s.append((t_sched, now - t_sched))
        if isinstance(message, p.AllocationUpdate):
            self.answers[sess.name] = (
                message.per_node, message.epoch, message.score,
            )
            if message.epoch < (sess.epoch or 0):
                self.errors.append(
                    f"query {sess.name}: epoch {message.epoch} older than "
                    f"pushed {sess.epoch}"
                )
        elif kind == "register" and isinstance(message, p.Ack):
            sess.reg_epoch = message.epoch
            change = self.arrivals.pop(sess.name, None)
            if change is not None:
                change[1] = message.epoch
                change[2] = {
                    s.name for s in self.sessions.values()
                    if s.alive and s.reg_epoch is not None
                }
                self._settle(now)
        elif kind == "deregister" and isinstance(message, p.Ack):
            sess.alive = False
            sess.end_epoch = message.epoch
            self._settle(now)
        self._pump(sess)

    def _on_push(self, message, now: float) -> None:
        sess = self.sessions.get(message.name)
        if sess is None or not sess.alive:
            self.errors.append(f"push to a session not alive: {message!r}")
            return
        if sess.epoch is not None and message.epoch < sess.epoch:
            self.errors.append(
                f"{sess.name}: pushed epoch {message.epoch} after {sess.epoch}"
            )
        if self.first_push_at is None:
            self.first_push_at = now
        sess.epoch = message.epoch
        sess.per_node = message.per_node
        self.pushes.setdefault(message.epoch, {})[sess.name] = (
            message.per_node, message.score, message.degraded,
        )
        self._settle(now)
        self._pump(sess)

    def _settle(self, now: float) -> None:
        """Complete every change whose allocation every survivor holds."""
        for change in list(self.pending):
            issued, target, names = change
            if target is None:
                continue
            change[2] = names = {
                n for n in names
                if self.sessions[n].alive
                and (self.sessions[n].epoch or -1) < target
            }
            if not names:
                self.pending.remove(change)
                self.react_s.append(now - issued)

    # -- driving ----------------------------------------------------------

    def idle(self) -> bool:
        """No change unsettled, no command queued or unanswered."""
        return not self.pending and all(
            not s.busy and not (s.started and s.queue)
            for s in self.sessions.values()
        )

    def wait_until(self, predicate, timeout: float) -> None:
        deadline = time.perf_counter() + timeout
        while not predicate():
            left = deadline - time.perf_counter()
            if left <= 0:
                raise GatewayFailure("timed out waiting for the daemon")
            self.poll(min(left, 0.05))

    def cmd_by_round(self, rounds: int) -> list[list[float]]:
        """Report and query latencies in ms, grouped by schedule round."""
        out = [[] for _ in range(rounds)]
        for t_sched, latency in self.cmd_s:
            index = int((t_sched - self.t0) / ROUND_S)
            out[min(index, rounds - 1)].append(latency * 1000.0)
        return out

    def silent_epochs(self) -> int:
        """Epochs no membership change of this client explains.

        Every register and deregister bumps the epoch once; the rest
        were quarantines or reactivations inside the daemon.
        """
        changes = sum(
            (s.reg_epoch is not None) + (s.end_epoch is not None)
            for s in self.sessions.values()
        )
        return max(self.pushes, default=0) - changes if self.pushes else 0

    def degraded_epochs(self) -> int:
        """Re-optimizations whose pushes were flagged degraded."""
        return sum(
            any(d for _, _, d in pushed.values())
            for pushed in self.pushes.values()
        )

    def composition(self, epoch: float) -> tuple:
        """The active applications at ``epoch``, in admission order."""
        live = [
            s for s in self.sessions.values()
            if s.reg_epoch is not None and s.reg_epoch <= epoch
            and (s.end_epoch is None or s.end_epoch > epoch)
        ]
        live.sort(key=lambda s: s.reg_epoch)
        return tuple(s.app for s in live)


def run_schedule(client: Client, schedule: dict, pid: int, seconds: float) -> list:
    """Play ``schedule`` against the daemon; returns CPU seconds per round."""
    for name, info in schedule["sessions"].items():
        if name not in client.sessions:
            client.add_session(name, info["app"], info["conn"])
        client.sessions[name].successor = info["successor"]
    events = schedule["events"]
    marks = [proc_cpu_s(pid)]
    next_mark = ROUND_S
    t0 = client.t0 = time.perf_counter()
    index = 0
    while index < len(events) or next_mark <= seconds:
        now = time.perf_counter() - t0
        while index < len(events) and events[index][0] <= now:
            t, kind, name = events[index]
            index += 1
            client.late_s.append(now - t)
            client.enqueue(name, "deregister" if kind == "change" else kind, t0 + t)
        if now >= next_mark:
            marks.append(proc_cpu_s(pid))
            next_mark += ROUND_S
            continue
        due = events[index][0] if index < len(events) else next_mark
        client.poll(min(due, next_mark) - (time.perf_counter() - t0))
    client.wait_until(client.idle, QUIESCE_TIMEOUT)
    return [b - a for a, b in zip(marks, marks[1:])]


def start_daemon(schedule: dict, tag: str, dump_path: str | None = None):
    """Launch a daemon and register the initial sessions.

    Returns ``(process, client, journal_dir, setup_s)`` where
    ``setup_s`` runs from launching the process to the first
    allocation the client receives.
    """
    journal_dir = fresh_dir(f"journal-gw-{tag}")
    proc, port, launched = launch(
        journal_dir, os.path.join(WORK, f"daemon-{tag}.log"), dump_path
    )
    client = None
    try:
        client = Client(port)
        initial = schedule["initial"]
        for name in initial:
            info = schedule["sessions"][name]
            client.add_session(name, info["app"], info["conn"]).started = True
            client.enqueue(name, "register", time.perf_counter())
        client.wait_until(
            lambda: client.first_push_at is not None, STARTUP_TIMEOUT
        )
        setup_s = client.first_push_at - launched
        client.wait_until(
            lambda: client.idle() and all(
                client.sessions[n].epoch is not None for n in initial
            ),
            STARTUP_TIMEOUT,
        )
    except BaseException:
        if client is not None:
            client.close()
        stop(proc)
        raise
    return proc, client, journal_dir, setup_s


def segment_records(journal_dir: str) -> int:
    """Records in the newest journal segment: those since the last compaction."""
    from repro.serve.persist import latest_journal_segment

    with open(latest_journal_segment(journal_dir), "rb") as fh:
        return fh.read().count(b"\n")


def top_up_journal(client: Client, journal_dir: str) -> int:
    """Send reports until :data:`REPLAY_RECORDS` records await replay.

    Each report with a current ``acked_epoch`` appends exactly one
    record and nothing else, so the count is exact.  Returns the number
    of reports sent.
    """
    import inspect

    from repro.serve.service import AllocationService

    every = inspect.signature(AllocationService.recover).parameters[
        "compact_every"
    ].default
    needed = (REPLAY_RECORDS - segment_records(journal_dir)) % every
    live = [s.name for s in client.sessions.values() if s.alive and s.reg_epoch]
    now = time.perf_counter()
    for index in range(needed):
        client.enqueue(live[index % len(live)], "topup", now)
    client.wait_until(client.idle, QUIESCE_TIMEOUT)
    if segment_records(journal_dir) != REPLAY_RECORDS:
        raise GatewayFailure(
            f"journal top-up left {segment_records(journal_dir)} records, "
            f"expected {REPLAY_RECORDS}"
        )
    return needed


def _signal_and_wait(pid: int, signum: int, path: str) -> None:
    """Send ``signum`` to the traced daemon; wait for it to write ``path``."""
    if os.path.exists(path):
        os.remove(path)
    os.kill(pid, signum)
    deadline = time.perf_counter() + 10.0
    while not os.path.exists(path):
        if time.perf_counter() > deadline:
            raise GatewayFailure(f"traced daemon did not write {path}")
        time.sleep(0.01)


def run_gateway(
    seed: int, seconds: float, trace, setup_runs: int, *, recoveries: int
) -> dict:
    """One ``gateway-open`` run: set-up, the schedule, kill, recovery.

    The daemon is started ``setup_runs`` times in all (the last start
    runs the schedule), and its journal is recovered ``recoveries``
    times, each from its own copy.
    """
    from repro.machine.presets import model_machine
    from repro.serve.service import AllocationService, ServiceConfig

    schedule = gateway_schedule(seed, seconds)
    setups = []
    for probe in range(setup_runs - 1):
        proc, client, _, setup_s = start_daemon(schedule, f"probe{probe}")
        client.close()
        stop(proc)
        setups.append(setup_s)
    dump = os.path.join(WORK, "daemon-trace.json") if trace else None
    proc, client, journal_dir, setup_s = start_daemon(schedule, "main", dump)
    setups.append(setup_s)
    daemon_trace = None
    try:
        if trace is not None:
            _signal_and_wait(proc.pid, signal.SIGUSR2, dump + ".reset")
        cpu_rounds = run_schedule(client, schedule, proc.pid, seconds)
        now = time.perf_counter()
        for sess in client.sessions.values():
            if sess.alive and sess.reg_epoch is not None:
                client.enqueue(sess.name, "final", now)
        client.wait_until(client.idle, QUIESCE_TIMEOUT)
        topup = top_up_journal(client, journal_dir)
        rss_mb = proc_peak_rss_mb(proc.pid)
        if trace is not None:
            _signal_and_wait(proc.pid, signal.SIGUSR1, dump)
            with open(dump) as fh:
                daemon_trace = json.load(fh)
    finally:
        client.close()
        stop(proc)

    # Recovery from the journal the SIGKILLed daemon left behind, on a
    # virtual clock that resumes at the last report's time.  As in the
    # in-process workloads the recovered journal does not fsync, so
    # recover_s measures the rebuild and not the disk.
    config = ServiceConfig(machine=model_machine())

    def recover(path: str):
        vc = VirtualClock()
        vc.now = client.last_report_time
        start = time.perf_counter()
        recovered = AllocationService.recover(
            path, config, clock=vc.clock, call_later=vc.call_later,
            fsync=False,
        )
        loaded_s = time.perf_counter() - start
        state = recovered.snapshot_state()
        start = time.perf_counter()
        vc.advance(config.debounce)
        elapsed = loaded_s + time.perf_counter() - start
        outcome = (
            state,
            {k: tuple(v) for k, v in recovered.current_allocation().items()},
            recovered.current_score(),
            recovered.snapshot_state()["degraded"],
        )
        recovered.crash()
        return elapsed, outcome

    if trace is not None:
        trace.reset()
    recovered = recover_copies(journal_dir, recoveries, recover)
    bench_trace = trace.snapshot() if trace is not None else None
    return {
        "client": client,
        "topup": topup,
        "setups": setups,
        "cpu_rounds": cpu_rounds,
        "rss_mb": rss_mb,
        "recover_s": [elapsed for elapsed, _ in recovered],
        "recovered": [outcome for _, outcome in recovered],
        "daemon_trace": daemon_trace,
        "bench_trace": bench_trace,
    }


def check_gateway(run: dict, oracle) -> tuple[list[str], list[bool]]:
    """Checks (a)-(c), (e) and (f) of one ``gateway-open`` run.

    Returns the failures and, per checked re-optimization, whether its
    score is within rounding of the exhaustive optimum.  The scalar half
    of (c) runs apart, in :class:`checker.ScalarChecks`.
    """
    from checker import check_step

    client = run["client"]
    errors = list(client.errors)
    if client.sent != client.replies:
        errors.append(f"{client.sent} commands sent, {client.replies} replies")
    epochs = sorted(client.pushes)
    optimal: list[bool] = []
    for epoch in epochs:
        pushed = client.pushes[epoch]
        apps = client.composition(epoch)
        scores = {score for _, score, _ in pushed.values()}
        if len(scores) != 1 or any(d for _, _, d in pushed.values()):
            errors.append(f"epoch {epoch}: scores {scores}, degraded pushes")
            continue
        allocation = {name: per_node for name, (per_node, _, _) in pushed.items()}
        failures, opt = check_step(
            oracle, "full", apps, allocation, scores.pop(),
            compare_optimum=True,
        )
        optimal.append(opt)
        errors.extend(f"epoch {epoch}: {f}" for f in failures)
    # (f) after quiescence every session's allocation is the optimum.
    final = client.composition(float("inf"))
    best, best_score = oracle.optimum(final)
    for app in final:
        per_node, _, score = client.answers.get(app[0], (None, None, None))
        if per_node != best[app[0]] or score != best_score:
            errors.append(
                f"final {app[0]}: {per_node} @ {score} != optimum "
                f"{best[app[0]]} @ {best_score}"
            )
    # (e) the journal of the killed daemon rebuilds exactly that state.
    from repro.serve.protocol import app_spec_to_dict

    expected = [app_spec_to_dict(to_spec(a)) for a in final]
    for state, allocation, score, degraded in run["recovered"]:
        live = [
            s["app"] for s in state["registry"]["sessions"]
            if s["state"] != "closed"
        ]
        if live != expected:
            errors.append("recovered sessions differ from the client's")
        if state["allocation"] != {a[0]: list(best[a[0]]) for a in final}:
            errors.append("recovered allocation differs from the final one")
        failures, _ = check_step(
            oracle, "full", final, allocation, score, compare_optimum=True
        )
        if degraded:
            failures.append("reconciled allocation is degraded")
        errors.extend(f"reconciled: {f}" for f in failures)
    return errors, optimal
