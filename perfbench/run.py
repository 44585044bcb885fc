"""The repository benchmark: one workload per invocation, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-audit --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
makes an untraced pass, then replays the same ops with every entry point in
``tracing.ENTRY_POINTS`` wrapped, checks that each op's output is identical
in both passes, and reports the per-layer metrics and the tracing overhead.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a readable table.  The exit status is non-zero when
any op failed a check, and (without printing a result) when the program
under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

from common import PYTHON, ROOT, RunDir, SpeedProbe, cache_fingerprint, pin_to_one_cpu
from metrics import end_to_end, per_layer, report_rows
from workloads import WORKLOADS, Context

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def compile_program() -> None:
    """Write the program's bytecode once, as an installed package would have it."""
    subprocess.run(
        [PYTHON, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        check=True,
        stdout=subprocess.DEVNULL,
    )


def measure(workload, ctx: Context, trace: bool) -> tuple[dict, object]:
    """Run the workload; returns ``(metrics, outcome to count and check)``."""
    if not trace:
        run = workload.run_pass(ctx, traced=False, setups=SETUPS)
        if run.outcome.failed:
            return {}, run.outcome
        return end_to_end(run.outcome), run.outcome
    untraced = workload.run_pass(ctx, traced=False, setups=1)
    if untraced.outcome.failed:
        return {}, untraced.outcome
    traced = workload.run_pass(ctx, traced=True, setups=1, num_ops=len(untraced.outcome.ops))
    outcome = traced.outcome
    for index, (plain, wrapped) in enumerate(zip(untraced.outcome.ops, outcome.ops)):
        if not wrapped.failures and plain.output.get("key") != wrapped.output.get("key"):
            wrapped.failures.append(f"traced op {index} output differs from the untraced op")
    if outcome.failed:
        return {}, outcome
    return per_layer(untraced, traced), outcome


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: the program is missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    real_cache = Path.home() / ".cache" / "repro"
    before = cache_fingerprint(real_cache)
    compile_program()
    pin_to_one_cpu()
    with RunDir() as run_dir, SpeedProbe(run_dir.path) as probe:
        # The benchmark's own library calls (served-stream's client) get a
        # private home too, like every process it starts.
        private = run_dir.fresh("bench-home")
        os.environ.update(HOME=str(private), XDG_CACHE_HOME=str(private / ".cache"))
        os.environ["REPRO_PLANNER_PROFILE"] = str(private / "planner.json")
        ctx = Context(seed=args.seed, seconds=args.seconds, run_dir=run_dir, probe=probe)
        values, outcome = measure(WORKLOADS[args.workload], ctx, bool(args.trace))
    if cache_fingerprint(real_cache) != before:
        outcome.failures.append(f"{real_cache} changed during the run")
    failures = [reason for op in outcome.ops for reason in op.failures] + outcome.failures
    correct = not failures and all(entry["name"] in values for entry in wanted)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    rows = [(entry["name"], values[entry["name"]], entry["unit"]) for entry in wanted if values]
    if values and not args.trace:
        rows += report_rows(outcome)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<32} {shown:>16} {unit}")
    for reason in failures[:20]:
        print(f"  FAILED: {reason}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in wanted
            if entry["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
