"""The benchmark's workloads, driven through ``repro``'s public entry points.

Simulation workloads build a scenario with ``repro.scenario`` (or name a
registered experiment) and time whole runs of it; the serving workload
boots ``python -m repro serve`` as a separate process and times HTTP
requests against it. No workload selects an execution engine, so the
default engine is what gets measured, and the result cache is never
active, so every timed operation really simulates. End-to-end times,
except the serving workload's request latency, are reported at
reference speed (see ``speed.py``); the raw medians are printed beside
them as notes.

Every operation's output is checked: simulation results against the
stored seed-1 digest (other seeds: against the warm-up result) and for
physical plausibility, served results against the warm-up response,
which must equal a local ``Scenario.run()`` of the same scenario.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import math
import os
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import layers
import openloop
import speed

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
#: Committed input of ``mess-sim``; README.md has the line that rebuilt it.
CURVES = SUITE / "data" / "ddr4-6ch.json"
#: Seed-1 result digests of the simulation workloads.
EXPECTED = SUITE / "expected.json"

#: Set-ups per run (fresh interpreter or server boot); the median is reported.
SETUP_REPEATS = 5
#: Open-loop arrival rate of ``serve-hit``, requests per second.
HIT_RATE_PER_S = 200.0
#: Warm scenarios ``serve-hit`` draws from (far below the memory tier).
HIT_WORKING_SET = 16
#: Keep-alive connections of the load generator.
CONNECTIONS = 2


@dataclass
class Report:
    """Everything one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: End-to-end metrics by name (untraced runs).
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics by name (traced runs); undeclared ones stay 0.
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Context printed beside the metrics (sample counts, model error).
    notes: dict[str, Any] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Prepared:
    """A built workload: the timed operation and how to check its output."""

    op: Callable[[], Any]
    digest: Callable[[Any], str]
    problems: Callable[[Any], list[str]]
    #: Mean latency error (%) of a simulated family against its input.
    error_pct: Callable[[Any], float] | None = None


def _sweep(seed: int, store_fractions: tuple, nop_counts: tuple) -> Any:
    from repro.bench.harness import MessBenchmarkConfig

    return MessBenchmarkConfig(
        store_fractions=store_fractions,
        nop_counts=nop_counts,
        warmup_ns=1500.0,
        measure_ns=3000.0,
        chase_array_bytes=16 * 1024 * 1024,
        traffic_array_bytes=8 * 1024 * 1024,
        seed=seed,
    )


def _family_digest(family: Any) -> str:
    from repro.specs import spec_digest

    return spec_digest(family.to_dict())


def _family_problems(family: Any) -> list[str]:
    """Latencies finite and positive, bandwidths within the peak."""
    problems = []
    peak = family.theoretical_bandwidth_gbps
    for curve in family:
        for bandwidth, latency in zip(curve.bandwidth_gbps, curve.latency_ns):
            if not (math.isfinite(latency) and latency > 0):
                problems.append(f"read ratio {curve.read_ratio}: latency {latency}")
            if not (0 < bandwidth and (peak is None or bandwidth <= peak)):
                problems.append(
                    f"read ratio {curve.read_ratio}: bandwidth {bandwidth} "
                    f"outside (0, {peak}]"
                )
    return problems


def _characterize(seed: int, store_fractions: tuple, nop_counts: tuple) -> Prepared:
    """A Mess characterization of the 24-core machine on 6-channel DDR4."""
    from repro.scenario import substrate

    scenario = substrate("ddr4-6ch", "DDR4-2666", channels=6).with_overrides(
        {"sweep": _sweep(seed, store_fractions, nop_counts).to_spec()}
    )
    return Prepared(
        op=lambda: scenario.materialize().characterize(),
        digest=_family_digest,
        problems=_family_problems,
    )


def _mess_sim(seed: int) -> Prepared:
    """The Mess simulator on the same machine, fed the committed DDR4 family."""
    from repro.analysis.compare import compare_families
    from repro.core.family import CurveFamily
    from repro.scenario import BENCH_HIERARCHY, characterization

    curves = CurveFamily.from_json(CURVES)
    scenario = characterization(
        name="mess-ddr4-6ch",
        memory_kind="mess",
        memory_params={
            "curves": curves,
            "cpu_overhead_ns": BENCH_HIERARCHY.total_hit_path_ns,
        },
        sweep=_sweep(seed, (0.0, 0.5, 1.0), (0, 3000)),
        theoretical_bandwidth_gbps=curves.theoretical_bandwidth_gbps,
    )
    return Prepared(
        op=lambda: scenario.materialize().characterize(),
        digest=_family_digest,
        problems=_family_problems,
        error_pct=lambda family: compare_families(
            curves, family
        ).mean_latency_error_pct,
    )


def _result_problems(result: Any) -> list[str]:
    rows = result.rows
    if not rows:
        return ["experiment produced no rows"]
    return [
        f"row {index}: latency {row['latency_ns']}"
        for index, row in enumerate(rows)
        if not (math.isfinite(row["latency_ns"]) and row["latency_ns"] > 0)
    ]


def _probe_models(seed: int) -> Prepared:
    """Figure 5's trace-probe of five memory models (no random input)."""
    from repro.experiments.registry import run_experiment

    return Prepared(
        op=lambda: run_experiment("fig5", scale=0.1),
        digest=lambda result: result.digest(),
        problems=_result_problems,
    )


#: Simulation workload name -> builder(seed).
SIMS: dict[str, Callable[[int], Prepared]] = {
    "char-ddr4": lambda seed: _characterize(seed, (0.0, 1.0), (0, 3000)),
    "mess-sim": _mess_sim,
    "probe-models": _probe_models,
}

#: Serving workload names (see :func:`run_serve`).
SERVES = ("serve-hit",)

WORKLOADS = (*SIMS, *SERVES)


def child_env(scratch: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(scratch / "repro-cache")
    return env


def cold_setup_s(name: str, seed: int, env: dict[str, str]) -> float:
    """Seconds for a fresh interpreter to import ``repro`` and build ``name``."""
    code = (
        f"import sys; sys.path.insert(0, {str(SUITE)!r}); import workloads; "
        f"workloads.SIMS[{name!r}]({seed})"
    )
    start = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def expected_digest(name: str, seed: int) -> str | None:
    """The stored digest of ``name`` for ``seed``, when one is stored."""
    stored = json.loads(EXPECTED.read_text())
    if seed != stored["seed"]:
        return None
    return stored["digests"].get(name)


class _SimStats:
    """Simulated statistics of the ``System`` instances a run built."""

    KEYS = (
        "llc_hits", "llc_accesses", "llc_writebacks",
        "row_hits", "row_accesses", "degraded",
    )

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.KEYS, 0)
        self.absent = False

    def fold(self, systems: list) -> None:
        try:
            for system in systems:
                llc = system.hierarchy.llc.stats
                self.totals["llc_hits"] += llc.hits
                self.totals["llc_accesses"] += llc.accesses
                self.totals["llc_writebacks"] += llc.writebacks
                row_buffer_stats = getattr(system.memory, "row_buffer_stats", None)
                if row_buffer_stats is not None:
                    rows = row_buffer_stats()
                    self.totals["row_hits"] += rows.hits
                    self.totals["row_accesses"] += rows.total
                self.totals["degraded"] += getattr(
                    system.memory, "degraded_windows", 0
                )
        except AttributeError:
            self.absent = True
        systems.clear()

    def metrics(self, per: int) -> dict[str, float]:
        t = self.totals

        def ratio(num: str, den: str) -> float:
            return t[num] / t[den] if t[den] else 0.0

        return {
            "cpu.llc_hit_ratio": ratio("llc_hits", "llc_accesses"),
            "cpu.llc_writebacks": t["llc_writebacks"] / per,
            "dram.row_hit_ratio": ratio("row_hits", "row_accesses"),
            "core.degraded_windows": t["degraded"] / per,
        }


def _once(
    prepared: Prepared,
    reference: str,
    report: Report,
    tracer: layers.Tracer | None = None,
) -> tuple[float, Any]:
    """One checked operation: ``(wall seconds, output)``."""
    frame = tracer.enter("iteration", span=True) if tracer is not None else None
    tick = time.perf_counter()
    output = prepared.op()
    wall = time.perf_counter() - tick
    if tracer is not None:
        tracer.exit(frame)
    report.attempted += 1
    digest = prepared.digest(output)
    if digest != reference:
        report.fail(f"operation {report.attempted}: digest {digest[:16]}")
    return wall, output


def run_sim(
    name: str, seed: int, seconds: float, trace: bool, tracer: layers.Tracer,
    scratch: Path,
) -> Report:
    """One simulation workload: cold set-ups, a warm-up, timed operations."""
    report = Report()
    frame = tracer.enter("setup", span=True)
    env = child_env(scratch)
    meter = speed.Meter()
    raw_setups, setups = [], []
    for _ in range(SETUP_REPEATS):
        raw_setups.append(cold_setup_s(name, seed, env))
        setups.append(raw_setups[-1] * meter.factor())
    prepared = SIMS[name](seed)
    tracer.exit(frame)

    # Untimed warm-up: the first operation in a process runs slower.
    frame = tracer.enter("warmup", span=True)
    output = prepared.op()
    tracer.exit(frame)
    report.attempted += 1
    report.problems.extend(prepared.problems(output))
    reference = prepared.digest(output)
    expected = expected_digest(name, seed)
    report.notes["digest"] = reference
    if expected is not None and reference != expected:
        report.fail(f"warm-up digest {reference[:16]} != stored {expected[:16]}")
        reference = expected

    start = time.perf_counter()
    if not trace:
        walls, scaled = [], []
        meter = speed.Meter()
        while not walls or time.perf_counter() - start < seconds:
            wall, output = _once(prepared, reference, report)
            walls.append(wall)
            scaled.append(wall * meter.factor())
        report.end_to_end = {
            "setup_s": statistics.median(setups),
            "p50_ms": statistics.median(scaled) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report.notes.update(
            ops=len(walls),
            raw_setup_s=statistics.median(raw_setups),
            raw_p50_ms=statistics.median(walls) * 1e3,
            speed=statistics.median(meter.factors),
        )
    else:
        # Untraced and traced operations alternate, so drift in machine
        # speed hits both alike: their difference is the tracing
        # overhead, and the traced ones give the layer breakdown.
        tracer.inner_cost, tracer.call_cost = layers.calibrate()
        tracer.install()
        systems = tracer.capture("cpu.system", "repro.cpu.system", "System")
        tracer.suspend()
        stats = _SimStats()
        untraced, traced = [], []
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(_once(prepared, reference, report)[0])
            tracer.resume()
            try:
                wall, output = _once(prepared, reference, report, tracer)
            finally:
                tracer.suspend()
            traced.append(wall)
            stats.fold(systems)
        tracer.uninstall()
        if stats.absent:
            tracer.absent.append("cpu.stats")
        per = len(traced)
        layer = tracer.layer_metrics(per)
        batched = tracer.results.get("engine.probe", 0)
        attempts = batched + tracer.totals.get("bench.probe_point", [0])[0]
        own = sum(value for key, value in layer.items() if key.endswith(".self_s"))
        report.per_layer = {
            **layer,
            **stats.metrics(per),
            "engine.probe.batched_ratio": batched / attempts if attempts else 0.0,
            "trace.overhead_pct": (
                statistics.median(traced) / statistics.median(untraced) - 1
            ) * 100,
            "trace.attributed_pct": own / statistics.median(untraced) * 100,
        }
        report.notes["ops"] = per
        report.notes["absent"] = tracer.absent
    if prepared.error_pct is not None:
        error = prepared.error_pct(output)
        report.notes["lat_err_pct"] = error
        if trace:
            report.per_layer["core.lat_err_pct"] = error
    return report


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


def serve_scenarios(seed: int, start: int, count: int) -> list:
    """Tiny fixed-latency characterizations, distinct per (seed, index)."""
    from repro.bench.harness import MessBenchmarkConfig
    from repro.scenario import characterization

    sweep = MessBenchmarkConfig(
        store_fractions=(0.0, 1.0),
        nop_counts=(0, 600),
        warmup_ns=500.0,
        measure_ns=1500.0,
        chase_array_bytes=512 * 1024,
        traffic_array_bytes=512 * 1024,
        seed=seed,
    )
    return [
        characterization(
            name=f"suite-{seed}-{index:04d}",
            memory_kind="fixed-latency",
            memory_params={"latency_ns": 40.0 + 5.0 * (index % 64)},
            cores=2,
            sweep=sweep,
        )
        for index in range(start, start + count)
    ]


def pick(seed: int, index: int, choices: int) -> int:
    """The warm scenario request ``index`` asks for (seeded sha256)."""
    digest = hashlib.sha256(f"suite:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % choices


class Server:
    """One ``python -m repro serve`` child process on a free local port."""

    def __init__(self, env: dict[str, str], cache_dir: Path, log: Path) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self._log = log.open("ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(self.port), "--cache-dir", str(cache_dir),
            ],
            env=env,
            cwd=ROOT,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.005)
        raise RuntimeError("repro serve did not become healthy")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _boot(env: dict[str, str], scratch: Path, index: int) -> tuple[Server, float]:
    start = time.perf_counter()
    server = Server(env, scratch / f"serve-cache-{index}", scratch / "serve.log")
    try:
        server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _result_digest(payload: bytes, cached: bool) -> str:
    """Digest of a served result; raises ValueError when it is unusable."""
    from repro.errors import MessError
    from repro.experiments.base import ExperimentResult

    try:
        envelope = json.loads(payload)
        if envelope.get("cached") is not cached:
            raise ValueError(f"cached={envelope.get('cached')!r}, expected {cached}")
        return ExperimentResult.from_dict(envelope["result"]).digest()
    except (KeyError, TypeError, AttributeError, MessError) as exc:
        raise ValueError(f"malformed response: {exc}") from exc


async def _get_stats(connection: openloop.HttpConnection) -> dict:
    status, payload = await connection.request("GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return json.loads(payload)


def _serve_layers(
    before: dict, after: dict, client_ms: list[float]
) -> dict[str, float]:
    """``serve.*`` metrics over the timed phase, from two ``/stats`` snapshots."""

    def delta(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def mean_ms(name: str) -> float:
        old = before["histograms"].get(name, {"count": 0, "total": 0.0})
        new = after["histograms"].get(name, {"count": 0, "total": 0.0})
        count = new["count"] - old["count"]
        return (new["total"] - old["total"]) / count if count else 0.0

    hits, misses = delta("serve.hits"), delta("serve.misses")
    ok = [value for value in client_ms if math.isfinite(value)]
    server_ms = mean_ms("serve.latency_ms")
    return {
        "serve.hits": hits,
        "serve.misses": misses,
        "serve.coalesced": delta("serve.coalesced"),
        "serve.rejected": delta("serve.rejected"),
        "serve.errors": delta("serve.errors"),
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.latency_ms.mean": server_ms,
        "serve.transport_ms.mean": (sum(ok) / len(ok) - server_ms) if ok else 0.0,
    }


@dataclass
class Phase:
    """The timed open loop of ``serve-hit`` and what it needs checked."""

    loop: openloop.LoopResult
    before: dict
    after: dict
    warm: list
    picks: list[int]
    responses: list


def _verify_hits(seed: int, phase: Phase, report: Report) -> None:
    """Warm-ups equal a local run; every hit equals its warm-up."""
    local = serve_scenarios(seed, 0, HIT_WORKING_SET)
    expected = []
    for index, (status, payload) in enumerate(phase.warm):
        try:
            digest = _result_digest(payload, cached=False) if status == 200 else ""
        except ValueError as exc:
            digest = str(exc)
        if digest != local[index].run().digest():
            report.fail(f"warm-up {index}: status {status}, {digest[:40]}")
        expected.append(digest)
    for index, response in enumerate(phase.responses):
        if response is None or response[0] != 200:
            report.fail(f"request {index}: no 200 response")
            continue
        try:
            digest = _result_digest(response[1], cached=True)
        except ValueError as exc:
            report.fail(f"request {index}: {exc}")
            continue
        if digest != expected[phase.picks[index]]:
            report.fail(f"request {index}: digest differs from its warm-up")


async def _hit_phase(port: int, seed: int, seconds: float, report: Report) -> Phase:
    """Warm the working set, then the open loop of cache hits."""
    scenarios = serve_scenarios(seed, 0, HIT_WORKING_SET)
    bodies = [json.dumps(s.to_spec()).encode() for s in scenarios]
    connections = [
        openloop.HttpConnection("127.0.0.1", port) for _ in range(CONNECTIONS)
    ]
    try:
        warm = [
            await connections[0].request(
                "POST", "/v1/characterize", body, f"warm-{seed}-{index}"
            )
            for index, body in enumerate(bodies)
        ]
        count = max(1, round(HIT_RATE_PER_S * seconds))
        picks = [pick(seed, index, len(bodies)) for index in range(count)]
        responses: list = [None] * count

        async def send(index: int, connection: Any) -> bool:
            responses[index] = await connection.request(
                "POST", "/v1/characterize", bodies[picks[index]], f"req-{seed}-{index}"
            )
            return responses[index][0] == 200

        before = await _get_stats(connections[0])
        loop = await openloop.open_loop(
            openloop.due_times(count, HIT_RATE_PER_S), connections, send
        )
        after = await _get_stats(connections[0])
    finally:
        for connection in connections:
            await connection.close()
    report.attempted += len(warm) + count
    return Phase(loop, before, after, warm, picks, responses)


def run_serve(
    name: str, seed: int, seconds: float, trace: bool, tracer: layers.Tracer,
    scratch: Path,
) -> Report:
    """The serving workload against a separate ``repro serve`` process."""
    report = Report()
    env = child_env(scratch)

    frame = tracer.enter("setup", span=True)
    meter = speed.Meter()
    raw_boots, boots = [], []
    for index in range(SETUP_REPEATS):
        server, boot_s = _boot(env, scratch, index)
        raw_boots.append(boot_s)
        boots.append(boot_s * meter.factor())
        if index + 1 < SETUP_REPEATS:
            server.stop()
    tracer.exit(frame)
    try:
        frame = tracer.enter("phase", span=True)
        phase = asyncio.run(_hit_phase(server.port, seed, seconds, report))
        peak_rss = server.peak_rss_mb()
        tracer.exit(frame)
    finally:
        server.stop()
    verify = tracer.enter("verify", span=True)
    _verify_hits(seed, phase, report)
    tracer.exit(verify)

    latency = phase.loop.latency_ms
    report.notes["ops"] = len(latency)
    if not trace:
        report.end_to_end = {
            "setup_s": statistics.median(boots),
            # as measured: the loop in speed.py slowed 2.4x where these
            # requests slowed 1.3x, so scaling them would add noise
            "p50_ms": openloop.percentile(latency, 0.50),
            "peak_rss_mb": peak_rss,
        }
        report.notes.update(
            raw_setup_s=statistics.median(raw_boots),
            speed=statistics.median(meter.factors),
        )
    else:
        for index in range(len(latency)):
            tracer.span(
                "request", phase.loop.due_at[index], phase.loop.done_at[index],
                parent=layers.span_id(frame), request_id=f"{name}-{seed}-{index}",
            )
        report.per_layer = {
            **_serve_layers(phase.before, phase.after, latency),
            "loadgen.requests": len(latency),
            "loadgen.p99_ms": openloop.percentile(latency, 0.99),
            "loadgen.lag_p99_ms": openloop.percentile(phase.loop.lag_ms, 0.99),
            # spans are written after the timed phase from timestamps the
            # untraced run keeps anyway: tracing adds no work to it
            "trace.overhead_pct": 0.0,
        }
    return report


def run(
    name: str, seed: int, seconds: float, trace: bool, scratch: Path, trace_file: Path
) -> Report:
    """Run workload ``name``; ``scratch`` is a private directory it may fill.

    The traced run (``trace``) reports per-layer metrics instead of
    end-to-end ones and writes its Chrome trace (workload, phase,
    operation and point or request spans) to ``trace_file``.
    """
    if name in SIMS:
        runner = run_sim
    elif name in SERVES:
        runner = run_serve
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    tracer = layers.Tracer()
    root = tracer.enter(name, span=True)
    report = runner(name, seed, seconds, trace, tracer, scratch)
    tracer.exit(root)
    if trace:
        tracer.write_chrome_trace(trace_file, workload=name, seed=seed)
    return report
