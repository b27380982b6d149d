"""Benchmark entry point.

    python3 perfbench/run.py --workload replay-wide --seed 1 --seconds 10 --trace 0

Builds the seeded workload, checks every verdict against its known answer,
measures for ``--seconds`` and prints one line per metric followed, as the
last line of standard output, by one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  ``--workload all``
runs every workload, each in its own process so that no peak memory carries
over, and fails if any of them fails.  The library is imported from the
``src`` directory next to this one; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("replay-wide", "fuzzy-text", "encode-verify")


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def load_harness():
    """Import the harness against the library in ``ROOT/src`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import intentguard
    except ImportError as exc:
        print(f"error: cannot import intentguard from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(intentguard.__file__).resolve().is_relative_to(src):
        print(f"error: intentguard was imported from {intentguard.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    import harness

    return harness


def print_result(workload: str, seed: int, trace: int, result: dict) -> None:
    from speed import REFERENCE_SLICE_NS

    info = result["info"]
    print(f"workload={workload} seed={seed} trace={trace} python={platform.python_version()} "
          f"nproc={os.cpu_count()} git={git_sha(ROOT)}")
    print(f"sizes {json.dumps(info['sizes'], sort_keys=True)}")
    print(f"verdict stream sha256 {info['verdict_sha256']} ({info['verdict_lines']} lines)")
    slice_ns, slices = info["calibration"]
    print(f"calibration slice median {slice_ns / 1e3:.1f} us over {slices} slices; times are scaled to "
          f"{REFERENCE_SLICE_NS / 1e3:.1f} us per slice")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:36s} {value:16.4f} {unit:9s} n={result['samples'][name]}")
    rate, unit, attempted = info["error_rate"]
    print(f"  {'error_rate':36s} {rate:16.4f} {unit:9s} n={attempted}")
    for failure in info["failures"]:
        print(f"  FAILED: {failure}")
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(summary), flush=True)


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            correct = False
            continue
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}/{name}": value for name, value in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    harness = load_harness()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=ROOT / ".perfbench_work"))
    try:
        workload = harness.make_workload(args.workload, args.seed, workdir)
        result = harness.run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print_result(args.workload, args.seed, args.trace, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
