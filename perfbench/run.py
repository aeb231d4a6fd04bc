"""Run one workload of the allocation-service benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload churn-delta --seed 1 --seconds 25 --trace 0

Prints the host fingerprint, the operations attempted, every metric by
name with its unit, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced
run.  Exits 1 when a check fails and 2 when the program's sources are
missing.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time

from common import (
    HERE, ROOT, WORK, MissingProgram, child_env, fresh_dir, median,
    percentile, use_source_tree,
)

#: ``BENCHMARK.json`` lists the in-process workloads only: the latencies
#: of ``gateway-open`` are set by the host's wake-ups and disk, which
#: moved its figures by more than any usable bound between identical
#: runs (see README.md).  It stays here as a diagnostic of the serve path.
WORKLOADS = ("churn-delta", "plan-full", "gateway-open")

#: Host seconds one in-process round takes on the reference host; a run
#: plays ``round(seconds / NOMINAL_ROUND_S)`` whole rounds, so the work
#: of a run is fixed by ``--seconds`` and never by the host's speed.
NOMINAL_ROUND_S = {"churn-delta": 3.0, "plan-full": 7.0}
#: Times the service is started per run; ``setup_s`` is their median.
SETUP_RUNS = 5
#: Recoveries per in-process round, or per gateway-open run, each from
#: its own copy of the journal.
RECOVERIES = {"churn-delta": 1, "plan-full": 3, "gateway-open": 5}
#: Delta answers per run compared with the exhaustive optimum.
DELTA_SAMPLES = 12
#: Steps per run also checked against the scalar exhaustive optimum.
SCALAR_SAMPLES = {"churn-delta": 0, "plan-full": 1, "gateway-open": 3}

END_TO_END = (
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("react_p50_ms", "ms"),
    ("react_p90_ms", "ms"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p90_ms", "ms"),
    ("recover_s", "s"),
    ("alloc_gflops", "GFLOPS"),
    ("rss_mb", "MiB"),
)


def time_setup_probe(mode: str, seed: int, index: int, workers: int) -> float:
    """Seconds from launching the probe process to its first allocation."""
    journal = fresh_dir(f"journal-setup{index}")
    argv = [
        sys.executable, os.path.join(HERE, "setup_probe.py"),
        mode, str(seed), journal, str(workers),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != b"first-allocation" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, {line!r})")
    return elapsed


def run_inproc(args, trace) -> dict:
    """``churn-delta`` / ``plan-full``: rounds, then checks."""
    from checker import Oracle, ScalarChecks, check_step
    from inproc import run_round
    from workload_script import inproc_script
    from repro.machine.presets import model_machine

    mode = "delta" if args.workload == "churn-delta" else "full"
    script = inproc_script(args.seed, mode)
    setups = [
        time_setup_probe(mode, args.seed, i, args.workers)
        for i in range(SETUP_RUNS)
    ]
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    results = [
        run_round(
            script, mode, args.workers, trace,
            recoveries=RECOVERIES[args.workload],
        )
        for _ in range(rounds)
    ]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace is not None:
        trace.uninstall()

    # -- checks -----------------------------------------------------------
    oracle = Oracle(model_machine())
    errors: list[str] = []
    rng = random.Random(args.seed * 13 + 1)
    steps = len(results[0]["records"])
    if mode == "full":
        compared = set(range(steps))
    else:
        compared = set(rng.sample(range(steps), min(DELTA_SAMPLES, steps)))
    scalar = rng.sample(range(steps), SCALAR_SAMPLES[args.workload])
    first = results[0]["records"]
    optimal: list[bool] = []
    checked = 0
    seen: set = set()
    with ScalarChecks(
        {f"step {i}": (first[i][0], first[i][2]) for i in scalar}
    ) as slow:
        for res in results:
            for index, (apps, alloc, score, degraded) in enumerate(res["records"]):
                key = (apps, tuple(sorted(alloc.items())), score, degraded)
                if key in seen:
                    continue
                seen.add(key)
                checked += 1
                failures, opt = check_step(
                    oracle, mode, apps, alloc, score,
                    compare_optimum=index in compared,
                )
                if degraded:
                    failures.append("degraded re-optimization")
                if opt is not None:
                    optimal.append(opt)
                errors.extend(f"step {index}: {f}" for f in failures)
            for apps, alloc, score, degraded, equal in res["recovered"]:
                if not equal:
                    errors.append("recovered snapshot_state() differs from pre-crash")
                failures, _ = check_step(
                    oracle, mode, apps, alloc, score, compare_optimum=True
                )
                if degraded:
                    failures.append("degraded reconcile")
                errors.extend(f"reconciled: {f}" for f in failures)
        errors.extend(slow.errors())
    counts = {
        key: sum(res["counts"][key] for res in results)
        for key in ("sent", "replied", "errors")
    }
    records = [rec for res in results for rec in res["records"]]
    snap = None
    if trace is not None:
        from layers import merge

        snap = merge(*(res["trace"] for res in results))
    return {
        "errors": errors,
        "attempted": counts["sent"],
        "failed": counts["errors"] + counts["sent"] - counts["replied"],
        "ops": {
            "rounds": rounds,
            "commands_sent": counts["sent"],
            "commands_replied": counts["replied"],
            "error_replies": counts["errors"],
            "reoptimizations": len(records),
            "reoptimizations_checked": checked,
            "compared_with_optimum": len(optimal),
            "scalar_exhaustive_checks": len(scalar),
            "recoveries": sum(len(res["recovered"]) for res in results),
            "setup_samples_s": setups,
        },
        "e2e": {
            "setup_s": median(setups),
            "cpu_s": median([res["cpu_s"] for res in results]),
            "react_ms": [s * 1000 for res in results for s in res["react_s"]],
            "cmd_ms": [[s * 1000 for s in res["cmd_s"]] for res in results],
            "recover_s": median([s for res in results for s in res["recover_s"]]),
            "alloc_gflops": sum(rec[2] for rec in records) / len(records),
            "rss_mb": rss_mb,
        },
        "trace": snap,
        "rounds": rounds,
        "optimal_ratio": sum(optimal) / len(optimal) if optimal else 0.0,
        "client": None,
    }


def run_gateway_open(args, trace) -> dict:
    """``gateway-open``: the daemon over TCP, then checks."""
    from checker import Oracle, ScalarChecks
    from gwload import check_gateway, run_gateway
    from repro.machine.presets import model_machine

    run = run_gateway(
        args.seed, args.seconds, trace, SETUP_RUNS,
        recoveries=RECOVERIES["gateway-open"],
    )
    if trace is not None:
        trace.uninstall()
    client = run["client"]
    oracle = Oracle(model_machine())
    epochs = sorted(client.pushes)
    rng = random.Random(args.seed * 7 + 11)
    sampled = rng.sample(epochs, min(SCALAR_SAMPLES["gateway-open"], len(epochs)))
    with ScalarChecks({
        f"epoch {e}": (
            client.composition(e), next(iter(client.pushes[e].values()))[1]
        )
        for e in sampled
    }) as slow:
        errors, optimal = check_gateway(run, oracle)
        errors.extend(slow.errors())
    pushed = [next(iter(p.values()))[1] for _, p in sorted(client.pushes.items())]
    snap = None
    if trace is not None:
        from layers import merge

        snap = merge(run["daemon_trace"], run["bench_trace"])
    late_ms = [s * 1000 for s in client.late_s]
    return {
        "errors": errors,
        "attempted": client.sent,
        "failed": len(client.errors) + client.sent - client.replies,
        "ops": {
            "rounds": len(run["cpu_rounds"]),
            "commands_sent": client.sent,
            "commands_replied": client.replies,
            "error_replies": len(client.errors),
            "reoptimizations": len(client.pushes),
            "reoptimizations_checked": len(client.pushes),
            "membership_changes": len(client.react_s),
            "late_p50_ms": median(late_ms),
            "late_max_ms": max(late_ms),
            "quarantines_and_reactivations": client.silent_epochs(),
            "degraded": client.degraded_epochs(),
            "recoveries": len(run["recover_s"]),
            "journal_topup_reports": run["topup"],
            "setup_samples_s": run["setups"],
            "recover_samples_s": run["recover_s"],
        },
        "e2e": {
            "setup_s": median(run["setups"]),
            "cpu_s": median(run["cpu_rounds"]),
            "react_ms": [s * 1000 for s in client.react_s],
            "cmd_ms": client.cmd_by_round(len(run["cpu_rounds"])),
            "recover_s": median(run["recover_s"]),
            "alloc_gflops": sum(pushed) / len(pushed),
            "rss_mb": run["rss_mb"],
        },
        "trace": snap,
        "rounds": len(run["cpu_rounds"]),
        "optimal_ratio": sum(optimal) / len(optimal),
        "client": {
            "client.sent": client.sent,
            "client.replies": client.replies,
            "client.late_p50_ms": median(late_ms),
            "client.late_max_ms": max(late_ms),
        },
    }


def end_to_end_metrics(e2e: dict) -> dict:
    """Every end-to-end metric from a run's raw figures."""
    values = {
        "setup_s": e2e["setup_s"],
        "cpu_s": e2e["cpu_s"],
        "react_p50_ms": median(e2e["react_ms"]),
        "react_p90_ms": percentile(e2e["react_ms"], 90),
        "cmd_p50_ms": median([median(r) for r in e2e["cmd_ms"]]),
        "cmd_p90_ms": median([percentile(r, 90) for r in e2e["cmd_ms"]]),
        "recover_s": e2e["recover_s"],
        "alloc_gflops": e2e["alloc_gflops"],
        "rss_mb": e2e["rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workers", type=int, default=0,
        help="ServiceConfig.workers of the in-process workloads "
        "(default 0, serial, as the daemon)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_source_tree()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from hostinfo import cpu_ticks, fingerprint, steal_share
    from layers import LayerTrace, per_layer_metrics

    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("host " + json.dumps(fingerprint(), sort_keys=True))
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ticks = cpu_ticks()
    trace = LayerTrace().install() if args.trace else None
    try:
        if args.workload == "gateway-open":
            result = run_gateway_open(args, trace)
        else:
            result = run_inproc(args, trace)
    finally:
        if trace is not None:
            trace.uninstall()
        shutil.rmtree(WORK, ignore_errors=True)
    result["ops"]["host_steal_share"] = steal_share(ticks)
    print("ops " + json.dumps(result["ops"], sort_keys=True))
    e2e = end_to_end_metrics(result["e2e"])
    print(
        f"samples react={len(result['e2e']['react_ms'])} "
        f"cmd={sum(len(r) for r in result['e2e']['cmd_ms'])}"
    )
    if trace is not None:
        print("traced-end-to-end " + json.dumps(
            {k: v["value"] for k, v in e2e.items()}, sort_keys=True
        ))
        metrics = per_layer_metrics(
            result["trace"], result["rounds"], result["optimal_ratio"],
            result["client"],
        )
    else:
        metrics = e2e
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    for error in result["errors"][:20]:
        print(f"CHECK FAILED: {error}")
    correct = not result["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
