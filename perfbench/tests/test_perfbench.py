"""Tests of the benchmark itself: seeded inputs and the output checker.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import socket
import threading

import pytest

from checker import REL_SLACK, Oracle, ScalarChecks, check_step, check_valid
from common import VirtualClock, percentile
from gwload import Client, GatewayFailure
from workload_script import (
    CHANGE_RATE, FULL_CHANGES, gateway_schedule, inproc_script,
)


@pytest.fixture(scope="module")
def machine():
    from repro.machine.presets import model_machine

    return model_machine()


@pytest.fixture(scope="module")
def oracle(machine):
    return Oracle(machine)


APPS = (
    ("a", 0.5, "single-node", 0),
    ("b", 1.25, "interleaved", None),
    ("c", 0.2, "numa-perfect", None),
)


# -- seeded inputs --------------------------------------------------------


@pytest.mark.parametrize("mode", ["delta", "full"])
def test_same_seed_same_inproc_script(mode):
    assert inproc_script(7, mode) == inproc_script(7, mode)
    assert inproc_script(7, mode) != inproc_script(8, mode)


def test_same_seed_same_gateway_schedule():
    assert gateway_schedule(7, 5.0) == gateway_schedule(7, 5.0)
    assert gateway_schedule(7, 5.0) != gateway_schedule(8, 5.0)


def test_gateway_schedule_has_a_fixed_number_of_changes():
    for seed in (1, 2, 3):
        events = gateway_schedule(seed, 10.0)["events"]
        assert sum(kind == "change" for _, kind, _ in events) == round(
            CHANGE_RATE * 10.0
        )


def compositions(script: dict) -> list[tuple]:
    """The ordered composition after each step, in admission order."""
    live = list(script["initial"])
    out = []
    for step in script["steps"]:
        kind, first, second = step["change"]
        leaving = first if kind == "replace" else first[0]
        live = [app for app in live if app[0] != leaving] + [second]
        out.append(tuple(live))
    return out


def test_plan_full_returns_to_a_scored_composition_one_change_in_four():
    script = inproc_script(3, "full")
    seen = {tuple(script["initial"])}
    returns = 0
    for composition in compositions(script):
        returns += composition in seen
        seen.add(composition)
    assert returns == FULL_CHANGES // 4


def test_churn_delta_names_are_fresh_on_every_arrival():
    script = inproc_script(4, "delta")
    names = [a[0] for a in script["initial"]]
    for step in script["steps"]:
        kind, _, arriving = step["change"]
        if kind == "replace":
            assert arriving[0] not in names
            names.append(arriving[0])


# -- the checker ----------------------------------------------------------


def test_checker_accepts_the_optimum(oracle):
    best, score = oracle.optimum(APPS)
    errors, optimal = check_step(
        oracle, "full", APPS, best, score, compare_optimum=True
    )
    assert errors == [] and optimal is True


def test_scalar_check_runs_apart_and_rejects_a_wrong_score(oracle):
    _, score = oracle.optimum(APPS)
    with ScalarChecks(
        {"right": (APPS, score), "wrong": (APPS, score * (1 + 1e-12))}
    ) as slow:
        errors = slow.errors()
    assert len(errors) == 1 and errors[0].startswith("wrong:")


def test_scalar_checks_leave_no_process_behind(oracle):
    with ScalarChecks({}) as idle:
        assert idle.errors() == []
    assert idle._proc is None
    _, score = oracle.optimum(APPS)
    slow = ScalarChecks({"unread": (APPS, score)})
    helper = slow._proc
    with slow:
        pass  # answers never read: leaving the block kills the helper
    assert helper.returncode is not None


def test_benchmark_json_names_what_the_runs_print():
    import json
    import os

    from common import ROOT
    from layers import PER_LAYER
    from run import END_TO_END, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_checker_rejects_a_perturbed_allocation(oracle):
    best, _ = oracle.optimum(APPS)
    moved = {name: list(counts) for name, counts in best.items()}
    donor, node = next(
        (name, n) for name, counts in moved.items()
        for n, count in enumerate(counts) if count > 0
    )
    taker = next(name for name in moved if name != donor)
    moved[donor][node] -= 1
    moved[taker][node] += 1
    moved = {name: tuple(counts) for name, counts in moved.items()}
    score = oracle.score_of(APPS, moved)
    errors, _ = check_step(
        oracle, "full", APPS, moved, score, compare_optimum=True
    )
    assert any("exhaustive" in e for e in errors)


def test_checker_rejects_an_oversubscribed_or_partial_allocation(machine):
    full = {"a": (8, 8, 8, 8), "b": (1, 0, 0, 0), "c": (0, 0, 0, 0)}
    assert any("threads on" in e for e in check_valid(machine, APPS, full))
    partial = {"a": (1, 1, 1, 1), "b": (1, 1, 1, 1)}
    assert check_valid(machine, APPS, partial)
    negative = {"a": (-1, 0, 0, 0), "b": (0,) * 4, "c": (0,) * 4}
    assert check_valid(machine, APPS, negative)


def test_checker_rejects_a_score_off_by_more_than_rounding(oracle):
    best, score = oracle.optimum(APPS)
    for mode in ("full", "delta"):
        errors, _ = check_step(
            oracle, mode, APPS, best, score * (1 + 1e-6), compare_optimum=True
        )
        assert any("scalar predict" in e for e in errors)


def test_delta_check_allows_rounding_above_the_optimum_only(oracle):
    best, score = oracle.optimum(APPS)

    class Shifted(Oracle):
        def __init__(self, shift):
            super().__init__(oracle.machine)
            self.shift = shift

        def optimum(self, apps):
            return best, score * (1 - self.shift)

    errors, optimal = check_step(
        Shifted(REL_SLACK / 10), "delta", APPS, best, score,
        compare_optimum=True,
    )
    assert errors == [] and optimal is True
    errors, _ = check_step(
        Shifted(1e-6), "delta", APPS, best, score, compare_optimum=True
    )
    assert any("above optimum" in e for e in errors)


def test_missing_reply_is_caught():
    """A daemon that swallows a command makes the client fail, not hang."""
    from repro.serve.protocol import Ack, decode_message, encode_message

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    stop = threading.Event()

    def serve(conn):
        with conn:
            buf = b""
            seen = 0
            while not stop.is_set():
                try:
                    data = conn.recv(4096)
                except OSError:
                    return
                if not data:
                    return
                buf += data
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    seen += 1
                    message = decode_message(line.decode())
                    if seen == 2:
                        continue  # the swallowed command
                    reply = Ack(name=message.name, epoch=seen, in_reply_to=message.TYPE)
                    conn.sendall((encode_message(reply) + "\n").encode())

    def accept():
        for _ in range(2):
            conn, _ = listener.accept()
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    acceptor = threading.Thread(target=accept, daemon=True)
    acceptor.start()
    client = Client(port)
    try:
        client.add_session("a", APPS[0], 0).started = True
        client.enqueue("a", "register", 0.0)
        client.enqueue("a", "topup", 0.0)
        with pytest.raises(GatewayFailure):
            client.wait_until(client.idle, 0.5)
        assert client.sent == 2 and client.replies == 1
    finally:
        stop.set()
        client.close()
        listener.close()
        acceptor.join(timeout=5)
    assert not acceptor.is_alive()


# -- helpers --------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5.5
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([3.0], 90) == 3.0


def test_virtual_clock_fires_due_timers_in_order():
    clock = VirtualClock()
    fired = []
    clock.call_later(0.02, lambda: fired.append(("b", clock.now)))
    clock.call_later(0.01, lambda: fired.append(("a", clock.now)))
    clock.advance(0.015)
    assert fired == [("a", 0.01)]
    clock.advance(0.01)
    assert [name for name, _ in fired] == ["a", "b"]
    assert clock.now == pytest.approx(0.025)


def test_layer_trace_counts_a_search_and_uninstalls(machine):
    from repro.core.model import NumaPerformanceModel
    from repro.core.optimizer import ExhaustiveSearch

    from checker import to_spec
    from layers import LayerTrace, per_layer_metrics

    original = ExhaustiveSearch.search
    trace = LayerTrace().install()
    try:
        ExhaustiveSearch(NumaPerformanceModel()).search(
            machine, [to_spec(a) for a in APPS]
        )
        metrics = per_layer_metrics(trace.snapshot(), 1, 1.0, None)
    finally:
        trace.uninstall()
    assert ExhaustiveSearch.search is original
    assert metrics["exhaustive.calls"]["value"] == 1
    assert metrics["model.batched_rows"]["value"] == metrics[
        "exhaustive.evaluations"
    ]["value"] > 0
    assert metrics["cache.misses"]["value"] == metrics["cache.put_calls"]["value"]
