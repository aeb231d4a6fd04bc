"""Per-layer tracing: timing wrappers around each layer's entry points.

:class:`LayerTrace` patches the program's classes and module functions
in the current process (the benchmark's own, or the daemon's through
``daemon_boot.py``) with thin wrappers that count calls and time them.
Spans stay in memory as running totals; :meth:`LayerTrace.snapshot`
hands them out once the run is over.  Nothing here runs in an untraced run,
so end-to-end metrics never pay for it.

Nesting is tracked on a stack, so a span's self time can exclude the
time of the spans it caused: ``service.reoptimize_self_ms`` is the
re-optimization minus the search inside it.
"""

from __future__ import annotations

import time
import weakref

from common import median, percentile

#: Spans whose time ``service.reoptimize_self_ms`` leaves out.
_SEARCH_SPANS = ("exhaustive", "delta")


class LayerTrace:
    """Counters and timers for every layer the benchmark reports on."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._services: list = []
        self.reset()

    # -- state ------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (instances stay registered)."""
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {
            "delta.evaluations": [], "gateway.queue_wait_ms": [],
        }

    @staticmethod
    def _live(refs: list) -> list:
        return [obj for obj in (r() for r in refs) if obj is not None]

    def _add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name: str, after=None):
        """Wrapper factory: count, time and nest calls as span ``name``.

        ``after(result, args, kwargs)`` runs on return to take counts
        from the call.
        """
        trace = self

        def make(original):
            def wrapper(*args, **kwargs):
                frame = [0.0]
                trace._stack.append(frame)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    trace._stack.pop()
                    trace.calls[name] = trace.calls.get(name, 0) + 1
                    trace.seconds[name] = trace.seconds.get(name, 0.0) + elapsed
                    if name == "service.reoptimize":
                        self_s = elapsed - frame[0]
                        trace.seconds["service.reoptimize_self"] = (
                            trace.seconds.get("service.reoptimize_self", 0.0)
                            + self_s
                        )
                    if trace._stack and name in _SEARCH_SPANS:
                        trace._stack[-1][0] += elapsed
                if after is not None:
                    after(result, args, kwargs)
                return result

            wrapper.__wrapped__ = original
            return wrapper

        return make

    def install(self) -> "LayerTrace":
        """Patch every layer of the ``repro`` package in this process."""
        from repro.core import model as model_mod
        from repro.core.candidates import CandidateSpace
        from repro.core.delta import DeltaSearch
        from repro.core.fasteval import ScoreCache
        from repro.core.model import NumaPerformanceModel
        from repro.core.optimizer import ExhaustiveSearch
        from repro.serve import gateway as gateway_mod
        from repro.serve import protocol as protocol_mod
        from repro.serve import server as server_mod
        from repro.serve import service as service_mod
        from repro.serve.persist import Journal, encode_record
        from repro.serve.protocol import Ack, Deregister, Register
        from repro.serve.service import AllocationService

        trace = self

        def batched_rows(result, args, kwargs):
            trace._add("model.batched_rows", len(args[1]))

        self._patch(
            model_mod, "batched_app_gflops",
            self._timed("model.batched", batched_rows),
        )
        self._patch(NumaPerformanceModel, "predict", self._timed("model.scalar"))
        self._patch(ScoreCache, "put", self._timed("cache.put"))

        def count_lookups(original):
            # The model's own cache tallies, read around each batch: no
            # wrapper runs per row, so lookups cost what they cost.
            def predict_scores(model, *args, **kwargs):
                cache = model.cache
                if cache is None:
                    return original(model, *args, **kwargs)
                hits, misses = cache.hits, cache.misses
                try:
                    return original(model, *args, **kwargs)
                finally:
                    trace._add("cache.hits", cache.hits - hits)
                    trace._add("cache.misses", cache.misses - misses)

            return predict_scores

        self._patch(NumaPerformanceModel, "predict_scores", count_lookups)
        self._patch(
            CandidateSpace, "symmetric_tensor", self._timed("candidates.tensor")
        )

        def exhaustive_done(result, args, kwargs):
            trace._add("exhaustive.evaluations", result.evaluations)

        self._patch(
            ExhaustiveSearch, "search",
            self._timed("exhaustive", exhaustive_done),
        )

        def delta_done(outcome, args, kwargs):
            trace.samples["delta.evaluations"].append(
                outcome.result.evaluations
            )
            if outcome.mode != "delta":
                trace._add("delta.fallbacks")

        self._patch(DeltaSearch, "search", self._timed("delta", delta_done))

        def handled(reply, args, kwargs):
            if isinstance(args[1], (Register, Deregister)) and isinstance(
                reply, Ack
            ):
                trace._add("service.changes")

        self._patch(
            AllocationService, "handle", self._timed("service.handle", handled)
        )

        def queue_wait(original):
            # The gateway stamps each command with ``received_at`` when it
            # reads it off the wire; the wait ends when handling starts.
            def handle(service, message, *, received_at=None):
                if received_at is not None:
                    trace._add("gateway.commands")
                    trace.samples["gateway.queue_wait_ms"].append(
                        (service.clock() - received_at) * 1000.0
                    )
                return original(service, message, received_at=received_at)

            return handle

        self._patch(AllocationService, "handle", queue_wait)
        self._patch(
            AllocationService, "reoptimize", self._timed("service.reoptimize")
        )

        def count_push(original):
            def push(service, session, update):
                trace._add("service.pushes")
                return original(service, session, update)

            return push

        self._patch(AllocationService, "_push", count_push)

        def track_service(original):
            def init(service, *args, **kwargs):
                original(service, *args, **kwargs)
                trace._services.append(weakref.ref(service))

            return init

        self._patch(AllocationService, "__init__", track_service)

        def appended(seq, args, kwargs):
            event = args[1]
            trace._add("journal.bytes", len(encode_record(seq, event)) + 1)
            # Every state change is journaled, so quarantines and
            # degraded re-optimizations are counted from the records.
            if event["kind"] == "quarantine":
                trace._add("service.quarantines")
            elif event["kind"] == "allocation" and event["degraded"]:
                trace._add("service.degraded")

        self._patch(Journal, "append", self._timed("journal.append", appended))
        self._patch(Journal, "compact", self._timed("journal.compact"))

        def loaded(result, args, kwargs):
            trace._add("recover.replayed", len(result.events))

        self._patch(
            service_mod, "load_journal", self._timed("recover.load", loaded)
        )
        self._patch(
            gateway_mod, "decode_message", self._timed("codec.decode")
        )
        self._patch(
            gateway_mod, "encode_message", self._timed("codec.encode")
        )
        self._patch(server_mod, "encode_message", self._timed("codec.encode"))
        # The in-process workloads call the codec through its module.
        self._patch(
            protocol_mod, "decode_message", self._timed("codec.decode")
        )
        self._patch(
            protocol_mod, "encode_message", self._timed("codec.encode")
        )
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw totals since :meth:`reset`, JSON-safe and mergeable."""
        counts = dict(self.counts)
        counts["registry.sessions_stored"] = max(
            (
                len(service.registry.to_snapshot()["sessions"])
                for service in self._live(self._services)
            ),
            default=0,
        )
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "counts": counts,
            "samples": {k: list(v) for k, v in self.samples.items()},
        }


def merge(*snaps: dict) -> dict:
    """Sum several :meth:`LayerTrace.snapshot` results.

    ``registry.sessions_stored`` is a level, not a flow, so the merge
    keeps the largest.
    """
    out = {"calls": {}, "seconds": {}, "counts": {}, "samples": {}}
    for snap in snaps:
        for section in ("calls", "seconds", "counts"):
            for key, value in snap[section].items():
                if key == "registry.sessions_stored":
                    out[section][key] = max(out[section].get(key, 0), value)
                else:
                    out[section][key] = out[section].get(key, 0) + value
        for key, values in snap["samples"].items():
            out["samples"].setdefault(key, []).extend(values)
    return out


#: The per-layer metrics of every workload, in report order, with units.
PER_LAYER = (
    ("model.batched_calls", "count"),
    ("model.batched_rows", "count"),
    ("model.batched_ms", "ms"),
    ("model.scalar_calls", "count"),
    ("model.scalar_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.put_calls", "count"),
    ("cache.put_ms", "ms"),
    ("candidates.tensor_calls", "count"),
    ("candidates.tensor_ms", "ms"),
    ("exhaustive.calls", "count"),
    ("exhaustive.evaluations", "count"),
    ("exhaustive.ms", "ms"),
    ("delta.calls", "count"),
    ("delta.ms", "ms"),
    ("delta.evaluations_p50", "count"),
    ("delta.fallbacks", "count"),
    ("delta.optimal_ratio", "ratio"),
    ("service.handle_calls", "count"),
    ("service.handle_ms", "ms"),
    ("service.reoptimize_calls", "count"),
    ("service.reoptimize_self_ms", "ms"),
    ("service.pushes", "count"),
    ("service.changes_per_reoptimize", "ratio"),
    ("service.quarantines", "count"),
    ("service.degraded", "count"),
    ("registry.sessions_stored", "count"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("journal.append_ms", "ms"),
    ("journal.compactions", "count"),
    ("journal.compact_ms", "ms"),
    ("recover.load_ms", "ms"),
    ("recover.replayed", "count"),
    ("codec.decode_calls", "count"),
    ("codec.decode_ms", "ms"),
    ("codec.encode_calls", "count"),
    ("codec.encode_ms", "ms"),
)

#: The per-layer metrics only ``gateway-open`` adds: the gateway's
#: dispatcher and the load client.
GATEWAY_LAYER = (
    ("gateway.commands", "count"),
    ("gateway.queue_wait_p50_ms", "ms"),
    ("gateway.queue_wait_p90_ms", "ms"),
    ("client.sent", "count"),
    ("client.replies", "count"),
    ("client.late_p50_ms", "ms"),
    ("client.late_max_ms", "ms"),
)

#: Span behind each per-layer call count.
_CALLS = {
    "model.batched_calls": "model.batched",
    "model.scalar_calls": "model.scalar",
    "cache.put_calls": "cache.put",
    "candidates.tensor_calls": "candidates.tensor",
    "exhaustive.calls": "exhaustive",
    "delta.calls": "delta",
    "service.handle_calls": "service.handle",
    "service.reoptimize_calls": "service.reoptimize",
    "journal.appends": "journal.append",
    "journal.compactions": "journal.compact",
    "codec.decode_calls": "codec.decode",
    "codec.encode_calls": "codec.encode",
}

#: Span behind each per-layer busy time.
_TIMES = {
    "model.batched_ms": "model.batched",
    "model.scalar_ms": "model.scalar",
    "cache.put_ms": "cache.put",
    "candidates.tensor_ms": "candidates.tensor",
    "exhaustive.ms": "exhaustive",
    "delta.ms": "delta",
    "service.handle_ms": "service.handle",
    "service.reoptimize_self_ms": "service.reoptimize_self",
    "journal.append_ms": "journal.append",
    "journal.compact_ms": "journal.compact",
    "recover.load_ms": "recover.load",
    "codec.decode_ms": "codec.decode",
    "codec.encode_ms": "codec.encode",
}

#: Counters reported as flows, under their own names.
_FLOWS = (
    "model.batched_rows", "exhaustive.evaluations", "delta.fallbacks",
    "service.pushes", "service.quarantines", "service.degraded",
    "journal.bytes", "recover.replayed", "cache.hits", "cache.misses",
)


def per_layer_metrics(
    snap: dict, rounds: int, optimal_ratio: float, client: dict | None
) -> dict:
    """Every :data:`PER_LAYER` metric from a merged snapshot.

    Flows (counts and times) are divided by ``rounds`` so that runs of
    different lengths compare per script round; ratios, percentiles
    and levels are not.  ``client`` holds the load client's own
    ``client.*`` figures of a ``gateway-open`` run, which also reports
    :data:`GATEWAY_LAYER`; it is ``None`` in-process.
    """
    calls, seconds, counts = snap["calls"], snap["seconds"], snap["counts"]
    samples = snap["samples"]
    values: dict[str, float] = {}

    def flow(value: float) -> float:
        return value / rounds

    for metric, span in _CALLS.items():
        values[metric] = flow(calls.get(span, 0))
    for metric, span in _TIMES.items():
        values[metric] = flow(seconds.get(span, 0.0) * 1000.0)
    for key in _FLOWS:
        values[key] = flow(counts.get(key, 0))
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    values["cache.hit_ratio"] = (
        counts.get("cache.hits", 0) / lookups if lookups else 0.0
    )
    reopts = calls.get("service.reoptimize", 0)
    values["service.changes_per_reoptimize"] = (
        (counts.get("service.changes", 0) + counts.get("service.quarantines", 0))
        / reopts if reopts else 0.0
    )
    values["registry.sessions_stored"] = counts.get("registry.sessions_stored", 0)
    evals = samples.get("delta.evaluations", [])
    values["delta.evaluations_p50"] = median(evals) if evals else 0.0
    values["delta.optimal_ratio"] = optimal_ratio
    names = PER_LAYER
    if client is not None:
        names = PER_LAYER + GATEWAY_LAYER
        values["gateway.commands"] = flow(counts.get("gateway.commands", 0))
        waits = samples.get("gateway.queue_wait_ms", [])
        values["gateway.queue_wait_p50_ms"] = median(waits) if waits else 0.0
        values["gateway.queue_wait_p90_ms"] = (
            percentile(waits, 90) if waits else 0.0
        )
        for key in ("client.sent", "client.replies"):
            values[key] = flow(client[key])
        for key in ("client.late_p50_ms", "client.late_max_ms"):
            values[key] = client[key]
    units = dict(names)
    missing = set(units) - set(values)
    extra = set(values) - set(units)
    if missing or extra:
        raise AssertionError(f"per-layer metric drift: {missing} {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name, _ in names}
