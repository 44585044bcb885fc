"""Start the program the way the benchmark measures it.

``python perfbench/bootstrap.py <repro CLI arguments...>`` times ``import
repro``, installs the span tracer when ``PERFBENCH_TRACE`` names an output
file, then calls ``repro.cli.main(argv)`` and exits with its code.  Untraced
runs take the same path minus the wrappers, so the two differ only by
tracing.

``PERFBENCH_SIDECAR``, when set, names a JSON file that receives the import
time and the default Eq. (4) cost constants ``(c1, c2)`` the output checks
use.
"""

from __future__ import annotations

import json
import os
import sys
import time


def start():
    """Import the program; returns ``(tracer or None, import seconds)``."""
    started = time.monotonic_ns()
    import repro  # noqa: F401
    import repro.cli  # noqa: F401

    ended = time.monotonic_ns()
    tracer = None
    if os.environ.get("PERFBENCH_TRACE"):
        from tracing import Tracer

        tracer = Tracer().install()
        tracer.record("repro.import", started, ended)
    return tracer, (ended - started) / 1e9


def finish(tracer, import_seconds: float) -> None:
    """Write the trace and the sidecar, if asked for."""
    if tracer is not None:
        tracer.dump(os.environ["PERFBENCH_TRACE"])
    sidecar = os.environ.get("PERFBENCH_SIDECAR")
    if sidecar:
        from repro.cost.model import CostModel

        model = CostModel()
        payload = {
            "import_s": import_seconds,
            "cost_model": [model.identification_cost, model.validation_cost],
        }
        with open(sidecar, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def main(argv: list[str]) -> int:
    tracer, import_seconds = start()
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        finish(tracer, import_seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
