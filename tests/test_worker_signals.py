"""Shutdown-signal regression for the long-running ``repro serve`` process.

The daemon turns SIGTERM *and* SIGINT into a drain that falls through to
``main()``'s finally block, so ``--metrics-out`` gets written either way.
An interactive Ctrl-C must not unwind as a ``KeyboardInterrupt`` from an
arbitrary bytecode boundary and silently drop the snapshot.  For each signal
this suite pins that the process exits 0 and its metrics file exists with
the right meta.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
@pytest.mark.timeout(60)
def test_worker_exports_metrics_on_shutdown_signal(tmp_path, signum):
    metrics_path = tmp_path / f"serve-{signum.name.lower()}.metrics.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-out",
            str(metrics_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        # The handlers are installed before the daemon announces its port.
        banner = proc.stdout.readline()
        assert banner.startswith("serve listening on "), banner
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert metrics_path.is_file(), f"{signum.name} shutdown dropped the --metrics-out snapshot"
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["meta"]["command"] == "serve"
    assert snapshot["meta"]["node_id"] == banner.removeprefix("serve listening on ").strip()
