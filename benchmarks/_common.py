"""Thin pytest-benchmark adapter over :mod:`repro.bench.perf`.

Every paper table/figure has a ``bench_<id>.py`` here, each a one-line
shim over :func:`experiment_bench_test`; running

    pytest benchmarks/ --benchmark-only

regenerates all of them through the *same* harness ``repro bench``
uses (``repro.bench.perf.experiment_bench``). Each bench executes its
experiment once (via ``benchmark.pedantic``), records the wall time,
writes the data series to
``benchmarks/results/<id>.csv`` and the formatted table plus notes to
``benchmarks/results/<id>.txt``, and attaches the experiment digest to
the pytest-benchmark record.

``REPRO_BENCH_SCALE`` (default 1.0) is the sweep-density multiplier;
2.0 approaches the paper's densities.

For the ``BENCH_*.json`` trajectory payloads use ``repro bench``
instead: it times each workload best-of-N and records its digest.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.bench import perf
from repro.experiments.base import ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> float:
    """Sweep-density multiplier from the environment."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def save_result(result: ExperimentResult) -> None:
    """Persist one experiment's rows (CSV) and table+notes (text)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    result.to_csv(RESULTS_DIR / f"{result.experiment_id}.csv")
    (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(
        result.format_table() + "\n"
    )


def run_experiment_benchmark(benchmark, experiment_id: str) -> ExperimentResult:
    """Standard body of one experiment bench, routed through perf."""
    scale = bench_scale()
    spec = perf.experiment_bench(experiment_id, scale=scale)
    work, summarize = spec.make()
    result = benchmark.pedantic(work, iterations=1, rounds=1)
    save_result(result)
    meta = summarize(result)
    benchmark.extra_info["rows"] = meta["rows"]
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["digest"] = meta["digest"]
    for index, note in enumerate(result.notes):
        benchmark.extra_info[f"note_{index}"] = note.splitlines()[0]
    return result


def experiment_bench_test(experiment_id: str):
    """Build the pytest test function for one experiment bench shim."""

    def test(benchmark):
        result = run_experiment_benchmark(benchmark, experiment_id)
        assert result.rows

    test.__name__ = f"test_{experiment_id}"
    test.__doc__ = (
        f"Regenerate {experiment_id!r} through the shared perf harness."
    )
    return test
