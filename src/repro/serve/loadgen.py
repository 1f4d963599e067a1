"""Load generator: a replayable request load against one service.

Replays a schedule of mixed cached/uncached scenario requests against
a characterization service — either an in-process server started just
for the run (the default; measures the full HTTP + service + cache
path with zero setup) or a running ``repro serve`` at ``--url`` — and
reports per-pass hit ratios and p50/p99 latency.

The schedule is deterministic: request *i* of pass *p* picks its
scenario through :func:`~repro.resilience.retry.deterministic_fraction`
(sha256-based, the repository's standard replacement for ``random``),
so two loadgen runs with the same config replay the identical request
stream. The scenarios themselves are tiny fixed-latency
characterizations — unique digests, uniform cost — so the first pass
exercises the miss/coalesce/compute path and later passes measure the
cache-serving path; the pass-over-pass hit-ratio trajectory is the
report's headline.

Every served result is digest-checked: the report records one result
digest per scenario digest and flags any request that disagreed
(``digest_consistent``) — a served result must be byte-identical to
what ``repro run`` computes for the same scenario.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError, MessError
from ..resilience.retry import RetryPolicy, deterministic_fraction
from .client import ServiceClient
from .http import HttpServer
from .service import CharacterizationService, ServiceConfig

#: Format marker of the loadgen JSON report.
FORMAT_KEY = "repro_loadgen"

#: Current report version; bump on incompatible layout change.
FORMAT_VERSION = 1


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run.

    ``scenarios`` unique digests are requested ``requests`` times per
    pass by ``clients`` concurrent keep-alive connections, ``passes``
    times over. ``url=None`` boots a private in-process server with
    the given ``backend``/``cache_dir``/``max_inflight``; a non-None
    ``url`` replays against a running ``repro serve``.
    """

    scenarios: int = 6
    requests: int = 120
    clients: int = 12
    passes: int = 2
    seed: int = 0
    backend: str = "tiered"
    cache_dir: "str | None" = None
    url: "str | None" = None
    max_inflight: int = 4
    deadline_s: float = 120.0

    def __post_init__(self) -> None:
        for name in ("scenarios", "requests", "clients", "passes"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"loadgen {name} must be a positive integer, got {value!r}"
                )


def loadgen_scenarios(count: int, seed: int = 0) -> list:
    """``count`` unique, cheap characterize scenarios.

    Each is a tiny fixed-latency sweep (two store fractions, two nop
    counts, small arrays) — fast enough that thousands of requests stay
    a benchmark, slow enough that a coalesced herd is observable. The
    name and the memory latency vary per index, so every scenario has
    a distinct digest *and* a distinct result.
    """
    from ..bench.harness import MessBenchmarkConfig
    from ..scenario.presets import characterization

    sweep = MessBenchmarkConfig(
        store_fractions=(0.0, 1.0),
        nop_counts=(0, 600),
        warmup_ns=500.0,
        measure_ns=1500.0,
        chase_array_bytes=512 * 1024,
        traffic_array_bytes=512 * 1024,
    )
    return [
        characterization(
            name=f"loadgen-{seed}-{index:03d}",
            memory_kind="fixed-latency",
            memory_params={"latency_ns": 40.0 + 5.0 * index},
            cores=2,
            sweep=sweep,
        )
        for index in range(count)
    ]


def _percentile_ms(sorted_ms: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an already-sorted latency list."""
    if not sorted_ms:
        return 0.0
    rank = min(len(sorted_ms), max(1, math.ceil(q * len(sorted_ms))))
    return sorted_ms[rank - 1]


def _schedule(config: LoadgenConfig, pass_index: int) -> "list[int]":
    """The scenario index of every request in one pass, replayably."""
    return [
        int(
            deterministic_fraction(
                "loadgen", config.seed, pass_index, request_index
            )
            * config.scenarios
        )
        for request_index in range(config.requests)
    ]


async def _drain_requests(
    client: ServiceClient,
    pending: "list[tuple[int, int]]",
    specs: "list[dict]",
    observations: "list[dict]",
) -> None:
    """One client: pop (request, scenario) pairs until the pass is done."""
    while pending:
        _request_index, scenario_index = pending.pop()
        spec = specs[scenario_index]
        tick = time.perf_counter()
        try:
            response = await client.submit("characterize", spec)
        except (MessError, ConnectionError, asyncio.IncompleteReadError) as exc:
            observations.append(
                {
                    "ok": False,
                    "latency_ms": (time.perf_counter() - tick) * 1e3,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        observations.append(
            {
                "ok": True,
                "latency_ms": (time.perf_counter() - tick) * 1e3,
                "cached": bool(response.get("cached")),
                "coalesced": bool(response.get("coalesced")),
                "digest": str(response.get("digest", "")),
                "result": response.get("result"),
            }
        )


def _result_digest(payload: Any) -> str:
    from ..experiments.base import ExperimentResult

    return ExperimentResult.from_dict(payload).digest()


def _pass_report(
    pass_index: int, observations: "list[dict]"
) -> "tuple[dict, dict[str, str], bool]":
    """Summarize one pass.

    Returns (report, result-digest map, consistency).
    """
    ok = [obs for obs in observations if obs["ok"]]
    latencies = sorted(obs["latency_ms"] for obs in ok)
    hits = sum(1 for obs in ok if obs["cached"])
    coalesced = sum(1 for obs in ok if obs["coalesced"])
    digests: dict[str, str] = {}
    consistent = True
    for obs in ok:
        result_digest = _result_digest(obs["result"])
        previous = digests.setdefault(obs["digest"], result_digest)
        if previous != result_digest:
            consistent = False
    report = {
        "pass": pass_index,
        "requests": len(observations),
        "ok": len(ok),
        "errors": len(observations) - len(ok),
        "hits": hits,
        "hit_ratio": (hits / len(ok)) if ok else 0.0,
        "coalesced": coalesced,
        "computed": len(ok) - hits - coalesced,
        "p50_ms": _percentile_ms(latencies, 0.50),
        "p99_ms": _percentile_ms(latencies, 0.99),
        "mean_ms": (sum(latencies) / len(latencies)) if latencies else 0.0,
        "error_detail": sorted(
            {obs["error"] for obs in observations if not obs["ok"]}
        )[:5],
    }
    return report, digests, consistent


async def run_loadgen_async(config: LoadgenConfig) -> dict:
    """Run the full loadgen and return its JSON-ready report."""
    scenarios = loadgen_scenarios(config.scenarios, seed=config.seed)
    specs = [scenario.to_spec() for scenario in scenarios]

    server: "HttpServer | None" = None
    if config.url is not None:
        url = config.url
    else:
        service_config = ServiceConfig(
            backend=config.backend,
            cache_dir=config.cache_dir,
            max_inflight=config.max_inflight,
            deadline_s=config.deadline_s,
            queue_limit=max(64, config.clients * 2),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.05),
        )
        server = HttpServer(CharacterizationService(service_config), port=0)
        await server.start()
        url = server.url

    passes: "list[dict]" = []
    result_digests: dict[str, str] = {}
    consistent = True
    try:
        for pass_index in range(1, config.passes + 1):
            clients = [ServiceClient(url) for _ in range(config.clients)]
            pending = list(enumerate(_schedule(config, pass_index)))
            observations: "list[dict]" = []
            try:
                await asyncio.gather(
                    *(
                        _drain_requests(client, pending, specs, observations)
                        for client in clients
                    )
                )
            finally:
                for client in clients:
                    await client.close()
            report, digests, pass_consistent = _pass_report(
                pass_index, observations
            )
            consistent = consistent and pass_consistent
            for scenario_digest, result_digest in digests.items():
                previous = result_digests.setdefault(
                    scenario_digest, result_digest
                )
                if previous != result_digest:
                    consistent = False
            passes.append(report)
        server_stats = server.service.stats() if server is not None else None
    finally:
        if server is not None:
            await server.close()

    return {
        FORMAT_KEY: FORMAT_VERSION,
        "config": {
            "scenarios": config.scenarios,
            "requests": config.requests,
            "clients": config.clients,
            "passes": config.passes,
            "seed": config.seed,
            "backend": config.backend if config.url is None else None,
            "url": config.url,
        },
        "passes": passes,
        "hit_ratio_trajectory": [entry["hit_ratio"] for entry in passes],
        "p99_ms_trajectory": [entry["p99_ms"] for entry in passes],
        "result_digests": dict(sorted(result_digests.items())),
        "digest_consistent": consistent,
        "server": server_stats,
    }


def run_loadgen(config: "LoadgenConfig | None" = None) -> dict:
    """Synchronous entry point (CLI and bench harness)."""
    return asyncio.run(run_loadgen_async(config or LoadgenConfig()))
