"""Run one ``qpl`` command line under the span tracer.

    python3 traced_cli.py SPANS_JSON SPAWN_MONOTONIC -- ARGS...

The stdout payload is the program's own; the spans, the bindings patched and
the start-up time (from SPAWN_MONOTONIC, the parent's ``time.monotonic()``
at spawn, to the end of ``import qpl.cli``) go to SPANS_JSON.
"""

import sys
import time

import qpl.cli

ready = time.monotonic()

from spans import Tracer  # noqa: E402  (the import above is what start-up measures)


def main() -> int:
    spans_path, spawn = sys.argv[1], float(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON SPAWN_MONOTONIC -- ARGS...")
    tracer = Tracer()
    tracer.install()
    try:
        return qpl.cli.main(sys.argv[4:])
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, startup_s=ready - spawn)


if __name__ == "__main__":
    sys.exit(main())
