"""Set-up probe of the in-process workloads.

Usage: ``python3 perfbench/setup_probe.py MODE SEED JOURNAL_DIR WORKERS``

Starts a service exactly as an in-process round does -- imports, journal
open, the script's initial applications, the first cold
re-optimization -- and prints ``first-allocation`` as soon as the first
allocation is pushed.  ``run.py`` times it from launch to that line.
"""

from __future__ import annotations

import sys

from common import VirtualClock, use_source_tree


def main() -> int:
    mode, seed, journal_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workers = int(sys.argv[4])
    use_source_tree()
    from repro.machine.presets import model_machine
    from repro.serve.persist import Journal
    from repro.serve.protocol import Register
    from repro.serve.service import AllocationService, ServiceConfig

    from checker import to_spec
    from inproc import COMPACT_EVERY
    from workload_script import inproc_script

    config = ServiceConfig(machine=model_machine(), mode=mode, workers=workers)
    vc = VirtualClock()
    service = AllocationService(
        config, clock=vc.clock, call_later=vc.call_later,
        journal=Journal.open(
            journal_dir, fsync=False, compact_every=COMPACT_EVERY
        ),
    )
    pushed = []
    for app in inproc_script(seed, mode)["initial"]:
        service.handle(Register(name=app[0], app=to_spec(app)))
        service.subscribe(app[0], pushed.append)
    vc.advance(config.debounce)
    if not pushed:
        return 1
    print("first-allocation", flush=True)
    service.crash()
    return 0


if __name__ == "__main__":
    sys.exit(main())
