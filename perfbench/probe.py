"""Set-up probe: time `import oddperfect` and a workload's first call.

Run by workloads.measure_setup in a fresh interpreter per probe, as
``probe.py WORKLOAD SEED``; prints one JSON line.  The first input is built
before the clock starts, so only the package's own work is timed, including
lazy set-up such as the trial-prime list that the first factorize builds.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# the benchmark's own modules load before the clock starts; none imports oddperfect
import inputs  # noqa: E402
import refs  # noqa: E402,F401
import tracing  # noqa: E402,F401


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    first = next(inputs.INPUTS[name](seed))
    t0 = time.perf_counter()
    import oddperfect  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    error = None
    try:
        workloads.WORKLOADS[name].first_call(first)
    except Exception as exc:
        error = repr(exc)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1, "error": error}))


if __name__ == "__main__":
    main()
