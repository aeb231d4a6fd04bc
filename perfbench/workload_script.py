"""Seeded workload scripts: the only inputs the benchmark feeds the service.

Everything here is pure data built from ``random.Random(seed)``, so the
same seed always yields the same script (``tests/test_perfbench.py``
checks this).  An application is a plain tuple
``(name, arithmetic_intensity, placement, home_node)``; the workload
runners turn it into an ``AppSpec``.

App mix.  On the model machine (4 nodes x 8 cores, 10 GFLOPS per core,
32 GB/s per node) one thread of an application with arithmetic intensity
``ai`` asks for ``10 / ai`` GB/s, so every intensity below 2.5 saturates a
node with eight threads.  All intensities here stay in [0.1, 2.0]:
memory-bound applications, mostly NUMA-bad (all data on one home node),
because any compute-bound member pins the optimum at 320 GFLOPS and
makes the allocation question trivial.

The mix is a fixed catalog of application types (:func:`app_types`), one
per equal-width intensity band, and every live composition holds one
application of each type: an arriving instance takes the type of the
one that left, and a phase change draws a new intensity inside the
application's band.  The seed draws the intensities, the order of
admission and every change, so scripts differ from seed to seed while
the difficulty of the allocation problem -- and so ``alloc_gflops`` --
stays comparable across seeds.
"""

from __future__ import annotations

import random

NUM_NODES = 4

#: In-process workloads: applications alive at any time.
INPROC_APPS = 10
#: ``churn-delta``: membership changes per script round.
DELTA_CHANGES = 300
#: ``plan-full``: membership changes per script round (blocks of 4).
FULL_CHANGES = 28
#: ``churn-delta``: share of leave-and-arrive changes (the rest are
#: phase changes).
REPLACE_SHARE = 0.5
#: Chance that a session also queries its allocation in a cycle.
QUERY_SHARE = 0.2

#: ``gateway-open``: concurrent sessions.
GATEWAY_APPS = 5
#: ``gateway-open``: mean seconds between one session's reports.
REPORT_PERIOD = 0.025
#: ``gateway-open``: reports are jittered uniformly by this share.
REPORT_JITTER = 0.4
#: ``gateway-open``: queries per second per session (Poisson).
QUERY_RATE = 2.0
#: ``gateway-open``: membership changes per second.
CHANGE_RATE = 4.4
#: ``gateway-open``: a session's first query waits this long after it
#: arrives, so that it usually already holds an allocation.
QUERY_DELAY = 0.1


AI_MIN, AI_MAX = 0.1, 2.0
_PLACEMENTS = (
    "single-node", "interleaved", "single-node", "numa-perfect", "single-node",
)


def app_types(count: int) -> list[tuple]:
    """The catalog: ``count`` types ``(ai_low, ai_high, placement, home)``.

    Type ``k`` owns the ``k``-th of ``count`` equal intensity bands.
    Placements follow a stride through :data:`_PLACEMENTS` so that they
    do not line up with the bands: three in five are NUMA-bad, their
    home nodes taken in turn.
    """
    width = (AI_MAX - AI_MIN) / count
    types = []
    homes = 0
    for k in range(count):
        placement = _PLACEMENTS[(3 * k) % len(_PLACEMENTS)]
        home = None
        if placement == "single-node":
            home, homes = homes % NUM_NODES, homes + 1
        types.append((AI_MIN + k * width, AI_MIN + (k + 1) * width, placement, home))
    return types


def make_app(rng: random.Random, name: str, kind: tuple) -> tuple:
    """A fresh instance of type ``kind`` under ``name``."""
    low, high, placement, home = kind
    return (name, round(rng.uniform(low, high), 3), placement, home)


def new_phase(rng: random.Random, app: tuple, kind: tuple) -> tuple:
    """``app`` with a fresh intensity in its band (same name, same data)."""
    while True:
        fresh = make_app(rng, app[0], kind)
        if fresh[1] != app[1]:
            return fresh


def inproc_script(seed: int, mode: str) -> dict:
    """One round of an in-process workload.

    Returns ``{"initial": [app, ...], "steps": [step, ...]}``.  Each step
    is one membership change followed by one report from every live
    session (in a seeded order) and queries from a seeded few:

    * ``("replace", leaving_name, arriving_app)`` -- an application
      leaves and a new instance arrives under a fresh name;
    * ``("phase", old_app, new_app)`` -- an application changes phase:
      it deregisters and registers again under the same name.

    ``mode="delta"`` (``churn-delta``) draws each change at random.
    ``mode="full"`` (``plan-full``) plays blocks of four: a replacement,
    a phase change of an application other than the last admitted, and
    two flips of that application back and forth.  The service keeps
    applications in admission order and a re-registered one moves to
    the end, so the second flip brings back the composition of the
    phase change: exactly one change in four returns to a composition
    already scored, and its search runs cache-warm.
    """
    if mode not in ("delta", "full"):
        raise ValueError(f"mode must be 'delta' or 'full', got {mode!r}")
    rng = random.Random(seed * 7919 + (1 if mode == "full" else 2))
    counter = 0

    def fresh_name() -> str:
        nonlocal counter
        counter += 1
        return f"app{counter:05d}"

    types = app_types(INPROC_APPS)
    rng.shuffle(types)
    live = [make_app(rng, fresh_name(), kind) for kind in types]
    kind_of = {app[0]: kind for app, kind in zip(live, types)}
    initial = list(live)
    steps = []

    def replace() -> tuple:
        leaving = live.pop(rng.randrange(len(live)))
        live.append(make_app(rng, fresh_name(), kind_of[leaving[0]]))
        kind_of[live[-1][0]] = kind_of[leaving[0]]
        return ("replace", leaving[0], live[-1])

    def phase(index: int, new: tuple | None = None) -> tuple:
        old = live.pop(index)
        live.append(new or new_phase(rng, old, kind_of[old[0]]))
        return ("phase", old, live[-1])

    def step(change: tuple) -> None:
        reports = [app[0] for app in live]
        rng.shuffle(reports)
        queries = [name for name in reports if rng.random() < QUERY_SHARE]
        steps.append({"change": change, "reports": reports, "queries": queries})

    if mode == "delta":
        for _ in range(DELTA_CHANGES):
            if rng.random() < REPLACE_SHARE:
                step(replace())
            else:
                step(phase(rng.randrange(len(live))))
    else:
        for _ in range(FULL_CHANGES // 4):
            step(replace())
            change = phase(rng.randrange(len(live) - 1))
            step(change)
            first, second = change[1], change[2]
            step(phase(len(live) - 1, first))
            step(phase(len(live) - 1, second))
    return {"initial": initial, "steps": steps}


def gateway_schedule(seed: int, seconds: float) -> dict:
    """The open-loop schedule of ``gateway-open`` over ``seconds``.

    Returns ``{"initial": [...], "sessions": {...}, "events": [...]}``:

    * ``sessions`` maps each session name to ``{"app", "conn", "start",
      "end"}`` (``end`` is ``None`` for sessions alive at the end);
    * ``events`` is a time-sorted list of ``(t, kind, name)`` with kind
      ``"report"``, ``"query"`` or ``"change"``.  A change names the
      leaving session; its arriving successor is
      ``sessions[name]["successor"]`` and takes over its connection.

    Times are seconds after the script starts.  Reports follow a
    jittered period and queries a Poisson process; changes are a
    Poisson process conditioned on ``CHANGE_RATE * seconds`` arrivals.
    """
    rng = random.Random(seed * 104729 + 3)
    counter = 0

    def fresh_name() -> str:
        nonlocal counter
        counter += 1
        return f"gw{counter:05d}"

    sessions: dict[str, dict] = {}
    live: list[str] = []
    types = app_types(GATEWAY_APPS)
    rng.shuffle(types)
    kind_of = {}
    for index, kind in enumerate(types):
        app = make_app(rng, fresh_name(), kind)
        kind_of[app[0]] = kind
        sessions[app[0]] = {
            "app": app, "conn": index % 2, "start": 0.0, "end": None,
            "successor": None,
        }
        live.append(app[0])
    initial = list(live)
    # Membership changes first, so that every session knows its life.
    # A Poisson process given its count places the changes uniformly at
    # random; fixing the count fixes the search work of every run.
    changes = sorted(
        rng.uniform(0.0, seconds) for _ in range(round(CHANGE_RATE * seconds))
    )
    for t in changes:
        leaving = live.pop(rng.randrange(len(live)))
        arriving = make_app(rng, fresh_name(), kind_of[leaving])
        kind_of[arriving[0]] = kind_of[leaving]
        sessions[leaving]["end"] = t
        sessions[leaving]["successor"] = arriving[0]
        sessions[arriving[0]] = {
            "app": arriving, "conn": sessions[leaving]["conn"],
            "start": t, "end": None, "successor": None,
        }
        live.append(arriving[0])
    events = []
    for name, info in sessions.items():
        end = seconds if info["end"] is None else info["end"]
        if info["end"] is not None:
            events.append((info["end"], "change", name))
        t = info["start"]
        while True:
            t += REPORT_PERIOD * rng.uniform(1 - REPORT_JITTER, 1 + REPORT_JITTER)
            if t >= end:
                break
            events.append((t, "report", name))
        t = info["start"] + QUERY_DELAY
        while True:
            t += rng.expovariate(QUERY_RATE)
            if t >= end:
                break
            events.append((t, "query", name))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return {"initial": initial, "sessions": sessions, "events": events}
