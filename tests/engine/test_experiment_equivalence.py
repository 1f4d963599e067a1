"""Dual-engine equivalence over every registered experiment.

The PR's core guarantee: for each golden-digest experiment, running
under ``engine="vectorized"`` produces an :class:`ExperimentResult`
whose digest is *identical* to the reference engine's — same rows, same
floats, same notes. Each run clears the on-disk result cache and the
in-process family memoization first, so both engines genuinely
recompute everything. The two runs of a case are independent, so they
go to two worker processes and run side by side.

Experiments run at a reduced scale (digest equality is scale-local:
both engines see the same scale, so any divergence still shows). The
three heavyweights keep the ``slow`` marker convention of
``tests/test_integration.py``. The digest comes from
:func:`repro.bench.perf.deterministic_digest`, which is the plain
``result.digest()`` for every experiment except fig11, whose rows
embed genuinely measured wall-clock times (two runs of the *same*
engine differ on those).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import engine as engine_mod
from repro.bench.perf import deterministic_digest
from repro.experiments import common as experiments_common
from repro.experiments.registry import experiment_ids, run_experiment
from repro.runner import cache as result_cache

#: Scale keeping the whole parametrized sweep in tens of seconds; the
#: heavy closed-loop experiments get pushed down further below.
_DEFAULT_SCALE = 0.3

_SCALES = {"fig10": 0.2, "fig11": 0.2, "fig13": 0.2}

_SLOW = {"fig10", "fig11", "fig13"}

#: Bound on one engine run in a worker; the slowest takes ~12 s on a
#: 2-vCPU host.
_RUN_TIMEOUT_S = 600.0


def _params():
    for experiment_id in experiment_ids():
        marks = [pytest.mark.slow] if experiment_id in _SLOW else []
        yield pytest.param(experiment_id, id=experiment_id, marks=marks)


def _digest_under(engine: str, experiment_id: str, scale: float) -> str:
    result_cache.deactivate()
    experiments_common._FAMILY_CACHE.clear()
    with engine_mod.using(engine):
        result = run_experiment(experiment_id, scale=scale)
    return deterministic_digest(result)


@pytest.fixture(scope="module")
def engine_workers():
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        yield pool


@pytest.mark.parametrize("experiment_id", _params())
def test_engines_produce_identical_digests(experiment_id, engine_workers):
    scale = _SCALES.get(experiment_id, _DEFAULT_SCALE)
    reference, vectorized = (
        engine_workers.submit(_digest_under, engine, experiment_id, scale)
        for engine in ("reference", "vectorized")
    )
    assert reference.result(_RUN_TIMEOUT_S) == vectorized.result(_RUN_TIMEOUT_S)
