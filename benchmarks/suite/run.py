"""Run the repository benchmark from the outside.

    python3 benchmarks/suite/run.py --workload char-ddr4 --seed 1 --seconds 20 --trace 0

``--workload`` names one workload, a comma-separated list, or ``all``
(the default); each listed workload runs in its own fresh process, one
after another. Every metric is printed as ``workload metric value
unit``; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones declared in
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones (and a Chrome
trace per workload is written under ``benchmarks/suite/out/``).

The exit status is 0 when every output checked out, 1 when one did not
and 2 when the sources to benchmark are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import speed

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
OUT = SUITE / "out"


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of one section of ``BENCHMARK.json``."""
    spec = json.loads(SPEC.read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def result_line(report, trace: bool) -> dict:
    """The contract's JSON object for one workload run.

    Every declared metric is present; per-layer metrics a workload does
    not exercise read 0. A workload producing an undeclared metric, or
    missing a declared end-to-end one, is a benchmark bug.
    """
    units = declared("per_layer" if trace else "end_to_end")
    measured = report.per_layer if trace else report.end_to_end
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise RuntimeError(f"undeclared metrics {unknown}")
    missing = sorted(set(units) - set(measured))
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    return {
        "correct": report.failed == 0 and not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process and return its JSON object."""
    speed.pin()
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        os.environ["REPRO_CACHE_DIR"] = str(scratch / "repro-cache")
        import workloads
        from repro.runner import cache

        cache.deactivate()
        report = workloads.run(
            name, seed, seconds, trace, scratch, OUT / f"trace-{name}-seed{seed}.json"
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    line = result_line(report, trace)
    for metric, entry in line["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    for key, value in report.notes.items():
        print(f"{name} note {key} {value}")
    for problem in report.problems:
        print(f"{name} problem {problem}", file=sys.stderr)
    return line


def run_children(names: list[str], args: argparse.Namespace) -> dict:
    """Each workload in a fresh child process; metrics keyed ``workload/metric``."""
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = {}
    for name in names:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"workload {name} crashed (exit {proc.returncode})")
        line = json.loads(lines[-1])
        results[name] = line
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, entry in line["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT", help="also write results here")
    args = parser.parse_args(argv)
    # a terminated run still stops the server it started (via finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no sources to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    names = [name for name in args.workload.split(",") if name]
    if names == ["all"]:
        names = [entry["name"] for entry in json.loads(SPEC.read_text())["workloads"]]
    if len(names) == 1:
        line = run_one(names[0], args.seed, args.seconds, bool(args.trace))
        if args.json:
            Path(args.json).write_text(json.dumps({names[0]: line}, indent=2) + "\n")
    else:
        line = run_children(names, args)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
