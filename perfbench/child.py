"""One mhdlab CLI invocation in a fresh interpreter, timed from outside.

    python3 perfbench/child.py SPEC.json

SPEC.json holds ``argv`` (the CLI arguments), ``trace`` (wrap every layer or
only the config load/validate timers), ``run_id`` and ``result`` (where to
write the result JSON).  The result has the CLI exit code, the import time,
the wall time of ``mhdlab.cli.main``, the peak RSS, the library versions, the
absent trace targets and all spans.  A crash inside ``main`` is recorded as
exit code 1 with kind ``uncaught``.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import spans


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    t0 = time.perf_counter()
    import mhdlab.cli as cli

    import_s = time.perf_counter() - t0
    import numpy
    import scipy

    recorder = spans.Recorder()
    absent = recorder.install(spans.TRACE_TARGETS if spec["trace"] else spans.SETUP_TARGETS)
    uncaught = None
    t1 = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except Exception as exc:  # noqa: BLE001 - a crash is an outcome to record
        code = 1
        uncaught = {"error_kind": "uncaught", "message": f"{type(exc).__name__}: {exc}"}
        traceback.print_exc()
    main_s = time.perf_counter() - t1
    result = {
        "run_id": spec["run_id"],
        "trace": spec["trace"],
        "exit": code,
        "uncaught": uncaught,
        "import_s": import_s,
        "main_s": main_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mhdlab": cli.__version__,
            "mhdlab_path": str(Path(cli.__file__).resolve().parent),
        },
        "absent": absent,
        "spans": recorder.spans,
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
