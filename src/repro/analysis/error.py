"""Simulation-error accounting for workload runs (Figures 11 and 13).

The paper's accuracy figures run STREAM, LMbench and Google multichase
on the actual platform and on each (CPU simulator, memory model)
combination, then report per-benchmark and average relative errors.
These helpers run the same campaign on our substrate: the "actual"
platform is a system wired to the cycle-level DRAM model, the
candidates are systems wired to each model in the zoo, and
:func:`accuracy_workloads` is the benchmark trio both figures share.

Reports hold errors only. The paper's speed comparison is measured
beside them: under an active telemetry registry, each candidate's runs
are one ``accuracy.<model>`` span.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from ..cpu.system import System, SystemConfig
from ..memmodels.base import MemoryModel
from ..telemetry import registry as telemetry
from ..units import scaled
from ..workloads.base import Workload, simulation_error_pct
from ..workloads.lmbench import LmbenchLatency
from ..workloads.multichase import Multichase
from ..workloads.stream import StreamWorkload


@dataclass(frozen=True)
class WorkloadError:
    """One (model, workload) accuracy measurement."""

    model_name: str
    workload_name: str
    simulated: float
    actual: float
    error_pct: float


@dataclass
class AccuracyReport:
    """Errors of one memory model across a workload suite."""

    model_name: str
    entries: list[WorkloadError] = field(default_factory=list)

    @property
    def mean_error_pct(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e.error_pct for e in self.entries) / len(self.entries)


def accuracy_workloads(scale: float) -> list[Callable[[], Workload]]:
    """The STREAM triad, LMbench and multichase suite, sized by ``scale``."""
    lines = scaled(5000, scale)
    chase = scaled(2200, scale)
    return [
        lambda: StreamWorkload(kernel="triad", lines_per_core=lines),
        lambda: LmbenchLatency(chase_ops=chase),
        lambda: Multichase(chase_ops=chase, parallel_chases=2),
    ]


def run_accuracy_campaign(
    system_config: SystemConfig,
    actual_factory: Callable[[], MemoryModel],
    model_factories: dict[str, Callable[[], MemoryModel]],
    workload_factories: list[Callable[[], Workload]],
) -> list[AccuracyReport]:
    """Measure every model's error on every workload.

    Returns one :class:`AccuracyReport` per candidate model; each entry
    carries the actual-platform score it was measured against.
    """
    actual_scores: dict[str, float] = {}
    for make_workload in workload_factories:
        workload = make_workload()
        system = System(system_config, actual_factory())
        actual_scores[workload.name] = workload.run(system)

    tel = telemetry.active()
    reports = []
    for model_name, make_model in model_factories.items():
        report = AccuracyReport(model_name=model_name)
        span = (
            tel.span(f"accuracy.{model_name}", category="analysis")
            if tel is not None
            else nullcontext()
        )
        with span:
            for make_workload in workload_factories:
                workload = make_workload()
                system = System(system_config, make_model())
                simulated = workload.run(system)
                actual = actual_scores[workload.name]
                report.entries.append(
                    WorkloadError(
                        model_name=model_name,
                        workload_name=workload.name,
                        simulated=simulated,
                        actual=actual,
                        error_pct=simulation_error_pct(simulated, actual),
                    )
                )
        reports.append(report)
    return reports
