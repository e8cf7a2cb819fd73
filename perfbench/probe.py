"""Machine-speed probe: ``python3 perfbench/probe.py``.

Runs :func:`harness.reference_loop` every :data:`harness.PROBE_PERIOD_S`
and prints one line per pass, ``<time.monotonic() at its end> <its CPU
seconds>``, until it is killed or its output is closed.  ``harness.Speed``
starts it and scales each timed section by the samples taken during it.
"""

from __future__ import annotations

import sys
import time

from harness import PROBE_PERIOD_S, reference_loop


def main() -> int:
    try:
        while True:
            seconds = reference_loop()
            print(f"{time.monotonic():.6f} {seconds:.9f}", flush=True)
            time.sleep(PROBE_PERIOD_S)
    except (BrokenPipeError, KeyboardInterrupt):
        return 0


if __name__ == "__main__":
    sys.exit(main())
