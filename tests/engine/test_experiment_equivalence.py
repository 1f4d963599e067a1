"""Batched probe vs all-scalar runs over every experiment that reaches it.

The batched probe is the only production path, and it claims to leave
results bit-identical. For every registered experiment whose module
calls ``characterize_model`` (found from the module's globals, so a new
caller joins the sweep on its own), the experiment runs twice — once as
shipped and once with every probe point forced onto the scalar probe
(``oracle.forced_scalar``) — and the two result digests must be
*identical*: same rows, same floats, same notes. No other experiment
reaches fast-path code, so running it twice would compare a run with
itself.

``run_experiment`` reads no result cache, so both runs genuinely
recompute everything. The two runs of a case are independent, so they
go to two worker processes and run side by side. Experiments run at a reduced scale: digest
equality is scale-local, so any divergence still shows.
"""

from __future__ import annotations

import importlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import pytest

from repro.bench.model_probe import characterize_model
from repro.experiments.registry import SPECS, experiment_ids, run_experiment

from . import oracle

_SCALE = 0.3

#: Bound on one run in a worker; the slowest takes ~3 s on a 2-vCPU
#: host.
_RUN_TIMEOUT_S = 600.0


def _fast_path_callers() -> list[str]:
    callers = []
    for experiment_id in experiment_ids():
        module = importlib.import_module(SPECS[experiment_id].func.__module__)
        if any(value is characterize_model for value in vars(module).values()):
            callers.append(experiment_id)
    return callers


def _digest(experiment_id: str, scalar: bool) -> str:
    with oracle.forced_scalar() if scalar else nullcontext():
        result = run_experiment(experiment_id, scale=_SCALE)
    return result.digest()


@pytest.fixture(scope="module")
def sweep_workers():
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        yield pool


def test_sweep_finds_the_known_fast_path_callers():
    known = {"fig4", "fig5", "fig14", "optane"}
    assert known <= set(_fast_path_callers())


@pytest.mark.parametrize("experiment_id", _fast_path_callers())
def test_engines_produce_identical_digests(experiment_id, sweep_workers):
    shipped, scalar = (
        sweep_workers.submit(_digest, experiment_id, scalar)
        for scalar in (False, True)
    )
    assert shipped.result(_RUN_TIMEOUT_S) == scalar.result(_RUN_TIMEOUT_S)
