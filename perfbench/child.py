"""One CLI invocation, timed from inside its own process.

Usage: python3 child.py RECORD_PATH TRACE(0|1) CLI_ARG...

Imports ``topkflip.cli`` (the set-up every invocation pays), installs the
hooks from ``tracer``, runs ``topkflip.cli.main`` on the given arguments
and writes a JSON record to RECORD_PATH: the monotonic clock reading once
the import finished, the wall time of ``main``, its return code, and the
hook records. The exit code is the CLI's own.
"""

import json
import sys
import time


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[3:]
    import topkflip.cli as cli

    ready = time.monotonic()
    import tracer

    hooks = tracer.Tracer(spans=trace).install()
    start = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - start
    record = {"ready_monotonic": ready, "wall_s": wall, "rc": rc, **hooks.record()}
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
