"""Start the daemon with the per-layer trace installed.

Usage: ``python3 perfbench/daemon_boot.py DUMP serve --tcp ... --journal ...``

Installs :class:`layers.LayerTrace` in this process and then runs the
same ``repro`` entry point as ``python -m repro``.  The trace lives in
memory; SIGUSR2 zeroes it (and writes ``DUMP.reset`` as a receipt), and
SIGUSR1 writes its totals to ``DUMP`` as JSON.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from common import use_source_tree


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    use_source_tree()
    from layers import LayerTrace

    trace = LayerTrace().install()

    def write(path: str, payload) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)

    def on_reset(signum, frame) -> None:
        trace.reset()
        write(dump_path + ".reset", {})

    def on_dump(signum, frame) -> None:
        write(dump_path, trace.snapshot())

    signal.signal(signal.SIGUSR2, on_reset)
    signal.signal(signal.SIGUSR1, on_dump)
    from repro.__main__ import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
