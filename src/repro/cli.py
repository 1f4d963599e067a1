"""Command-line interface: ``python -m repro <command>``.

Mirrors the original artifact's runner scripts: list and run the paper's
experiments and scenarios, or dump a platform's curves.

Commands
--------
``list``
    Show every registered experiment with its title, tags and cost.
``run [EXPERIMENT ...] [--scenario FILE|PRESET] [--all] [--jobs N]
[--scale S] [--opt K=V] [--cache-dir DIR] [--no-cache]
[--manifest PATH] [--csv PATH] [--trace PATH] [--metrics PATH]
[--retries N] [--deadline S] [--resume MANIFEST] [--inject-faults PLAN]``
    Run one or many experiments and/or scenarios — in parallel with
    ``--jobs``, through the content-addressed on-disk cache unless
    ``--no-cache`` — print their tables, and write a JSON run manifest
    (wall times, row counts, cache hits, result digests, failure
    taxonomy). ``--scenario`` takes a scenario JSON file or a preset
    name (see ``repro scenario list``) and runs it through the same
    runner, cache and telemetry path; with a single scenario, ``--opt``
    pairs are dotted-path overrides (``--opt system.cores=8``).
    ``--trace`` collects telemetry and writes a Chrome trace-event file
    (``chrome://tracing`` / Perfetto); ``--metrics`` writes a
    Prometheus text snapshot; either flag also embeds a per-experiment
    telemetry summary in the manifest. ``--retries`` re-dispatches
    transient failures (crash/timeout/cache-error) with exponential
    backoff; ``--deadline`` bounds each experiment's wall time,
    terminating hung workers; ``--resume`` re-executes only what a
    previous run's manifest records as unfinished and rewrites the
    merged checkpoint; ``--inject-faults`` activates a fault-plan JSON
    file for chaos testing. On partial failure the exit code is 1 and a
    per-failure-class summary goes to stderr.
``scenario {list,show,validate,digest} [SCENARIO ...] [--scale S]``
    Work with declarative scenarios: list the named presets, show a
    preset or file as canonical JSON, validate scenario files (exit 1
    on problems), or print the stable content digest the cache keys
    on.
``cache {info,clear} [--cache-dir DIR] [--json]``
    Inspect or empty the result cache (default ``~/.cache/repro-mess``,
    overridable via ``$REPRO_CACHE_DIR``). ``info`` reports entry/byte
    totals, the digest-shard distribution and quarantined counts;
    ``info --json`` emits a machine-readable report with a per-entry
    size breakdown.
``telemetry summarize PATH [--json]``
    Roll up an exported telemetry file (Chrome trace or JSONL): span
    durations, counter totals, control-loop sample ranges.
``check [--rules RPR001,...] [--format text|json|sarif] [--list-rules]
[PATH ...]``
    Run the project-specific static-analysis pass (unit safety,
    determinism, telemetry hot path, registry hygiene, float equality,
    scenario-layer boundary; ``.json`` paths are validated as run
    manifests or — when they carry the ``repro_scenario`` marker — as
    scenario files). Every run is cold and serial. ``--format sarif``
    emits SARIF 2.1.0 for code scanning.
    Exits 1 when any finding is reported, 2 on a usage error. Defaults
    to checking the installed package.
``curves <platform> [--csv PATH]``
    Print (and optionally save) a preset platform's curve family.
``bench [--filter NAME|TAG] [--repeat N] [--json PATH] [--list]``
    Time registered perf benches (component inner loops plus one
    ``experiment.<id>`` bench per figure), best of ``--repeat`` runs
    each, and print each bench's time and result digest; a run with
    experiment benches ends with their ``experiment.total``. ``--json``
    writes the ``repro_bench`` payload (the committed
    ``BENCH_curves.json``, ``BENCH_experiments.json`` and
    ``BENCH_serve.json`` are the perf trajectories of record). A filter
    that matches no bench exits 1, with or without ``--list``.
``serve [--host H] [--port P] [--cache-dir DIR] [--max-inflight N]
[--queue-limit N] [--deadline S] [--warm MANIFEST]``
    Run the asyncio characterization service (:mod:`repro.serve`) in
    one process: digest-keyed scenario results over HTTP from a memory
    LRU in front of the result cache, single-flight request
    coalescing, backpressure (429/503) and per-request deadlines
    (504). Routes: ``/healthz``, ``/metrics`` (Prometheus), ``/stats``,
    ``GET /v1/result/<digest>`` and ``POST
    /v1/{characterize,simulate,profile}``. ``--warm`` pre-seeds the
    cache from a ``repro run`` manifest before the socket opens. Runs
    until interrupted; SIGTERM drains gracefully and exits 0.
``loadgen [--scenarios K] [--requests N] [--clients C] [--passes P]
[--seed S] [--cache-dir DIR] [--url URL] [--json PATH]
[--assert-hit-ratio X] [--assert-p99-ms MS]``
    Replay a deterministic request schedule against a serve endpoint —
    an in-process server by default, a running ``repro serve`` via
    ``--url`` — and report per-pass hit ratios, coalescing counts and
    p50/p99 latency. ``--assert-hit-ratio`` / ``--assert-p99-ms`` gate
    the final pass (exit 1 on violation; CI's serve-smoke job uses
    both); result digests are cross-checked against each other and
    exit 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from pathlib import Path

from . import telemetry
from .checks import available_rules, check_paths, render_sarif
from .core.metrics import compute_metrics
from .errors import CheckError, ConfigurationError, MessError
from .experiments.registry import SPECS, experiment_ids
from .platforms.presets import (
    TABLE_I_PLATFORMS,
    cxl_expander_family,
    family,
    optane_family,
    remote_socket_family,
)
from .resilience import RetryPolicy, load_fault_plan
from .runner import ResultCache, RunManifest, resume_run, run_many
from .runner.pool import ProgressCallback
from .scenario import (
    load_scenario,
    parse_assignments,
    preset_scenario,
    scenario_ids,
)

_SPECIAL_FAMILIES = {
    "cxl": cxl_expander_family,
    "optane": optane_family,
    "remote-socket": remote_socket_family,
}


def _platform_families() -> dict:
    families = {
        spec.name.lower().replace(" ", "-"): (lambda s=spec: family(s))
        for spec in TABLE_I_PLATFORMS
    }
    families.update(_SPECIAL_FAMILIES)
    return families


def _cmd_list(_args: argparse.Namespace) -> int:
    for experiment_id in experiment_ids():
        spec = SPECS[experiment_id]
        extra = f" [{', '.join(spec.tags)}]" if spec.tags else ""
        opts = (
            f" options: {', '.join(sorted(spec.params))}" if spec.params else ""
        )
        print(f"{experiment_id:10s} {spec.cost:9s} {spec.title}{extra}{opts}")
    return 0


def _parse_options(pairs: list[str]) -> dict:
    """``--opt key=value`` pairs -> a typed keyword-option dict.

    Shares :func:`repro.scenario.options.parse_assignments` with the
    scenario override path, so experiment options and scenario
    overrides coerce values identically.
    """
    try:
        return parse_assignments(pairs)
    except ConfigurationError as exc:
        # usage error, same exit code as the argparse-level ones
        print(f"error: --opt {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _resolve_scenario(ref: str, scale: float = 1.0):
    """A scenario reference: a preset name or a scenario JSON file."""
    path = Path(ref)
    if path.suffix == ".json" or path.exists():
        return load_scenario(path)
    if ref in scenario_ids():
        return preset_scenario(ref, scale)
    raise ConfigurationError(
        f"unknown scenario {ref!r}: not a file, and not one of "
        + ", ".join(scenario_ids())
    )


def _run_resilience_options(
    args: argparse.Namespace,
) -> "tuple[RetryPolicy | None, object]":
    """``--retries`` / ``--inject-faults`` -> runner keyword values."""
    retry = None
    if args.retries:
        if args.retries < 0:
            print(
                f"error: --retries must be >= 0, got {args.retries}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        retry = RetryPolicy(max_attempts=args.retries + 1)
    plan = load_fault_plan(args.inject_faults) if args.inject_faults else None
    return retry, plan


def _cmd_run(args: argparse.Namespace) -> int:
    ids = list(args.experiments)
    if args.resume:
        if ids or args.all or args.scenario or args.opt:
            print(
                "error: --resume re-runs a manifest's unfinished entries; "
                "it cannot be combined with experiment ids, --all, "
                "--scenario or --opt",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return _run_resume(args)
    if args.all:
        if ids:
            print(
                "error: give experiment ids or --all, not both",
                file=sys.stderr,
            )
            raise SystemExit(2)
        ids = experiment_ids()
    scenarios = [_resolve_scenario(ref, args.scale) for ref in args.scenario]
    if not ids and not scenarios:
        print("error: no experiments given (try --all)", file=sys.stderr)
        raise SystemExit(2)
    unknown = sorted(set(ids) - set(SPECS))
    if unknown:
        print(
            f"error: unknown experiment(s) {unknown}; available: "
            + " ".join(experiment_ids()),
            file=sys.stderr,
        )
        raise SystemExit(2)

    options = _parse_options(args.opt)
    experiment_options = None
    if options:
        if len(ids) == 1 and not scenarios:
            experiment_options = {ids[0]: options}
        elif len(scenarios) == 1 and not ids:
            # dotted-path overrides on the scenario spec
            scenarios[0] = scenarios[0].with_overrides(options)
        else:
            print(
                "error: --opt applies to a single experiment or a single "
                "scenario",
                file=sys.stderr,
            )
            raise SystemExit(2)

    labels = ids + [f"scenario:{scenario.name}" for scenario in scenarios]
    total = len(labels)
    retry, fault_plan = _run_resilience_options(args)
    collect_telemetry = bool(args.trace or args.metrics)
    outcome = run_many(
        ids,
        jobs=args.jobs if args.jobs is not None else 1,
        scale=args.scale,
        options=experiment_options,
        scenarios=scenarios or None,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=_progress_printer(total),
        collect_telemetry=collect_telemetry,
        deadline_s=args.deadline,
        retry=retry,
        fault_plan=fault_plan,
    )
    for label in labels:
        result = outcome.results.get(label)
        if result is not None:
            print()
            print(result.format_table())
    if args.csv:
        if total != 1:
            print("error: --csv applies to a single experiment", file=sys.stderr)
            raise SystemExit(2)
        result = outcome.results.get(labels[0])
        if result is not None:
            result.to_csv(args.csv)
            print(f"rows written to {args.csv}")
    _write_telemetry(outcome, args)
    manifest_path = args.manifest or ("run-manifest.json" if args.all else None)
    if manifest_path:
        outcome.manifest.write(manifest_path)
        print(f"manifest written to {manifest_path}")
    return _finish_run(outcome)


def _progress_printer(total: int) -> ProgressCallback:
    """A ``run_many`` progress callback printing one line per record."""
    done = 0

    def progress(record) -> None:
        nonlocal done
        done += 1
        status = "ok" if record.status == "ok" else f"ERROR ({record.error})"
        print(
            f"[{done}/{total}] {record.experiment_id:10s} {status}  "
            f"{record.duration_s:6.2f}s  rows={record.rows}  "
            f"cache_hits={record.cache_hits}",
            flush=True,
        )

    return progress


def _write_telemetry(outcome, args: argparse.Namespace) -> None:
    """Write the run's Chrome trace and Prometheus metrics, if asked."""
    if outcome.telemetry is not None:
        if args.trace:
            telemetry.write_chrome_trace(outcome.telemetry, args.trace)
            print(f"trace written to {args.trace}")
        if args.metrics:
            telemetry.write_prometheus(outcome.telemetry, args.metrics)
            print(f"metrics written to {args.metrics}")


def _finish_run(outcome) -> int:
    """Print the summary; on partial failure, classify on stderr, exit 1."""
    print(outcome.manifest.summary())
    if outcome.manifest.ok:
        return 0
    for kind, count in sorted(outcome.manifest.failure_summary().items()):
        noun = "experiment" if count == 1 else "experiments"
        print(f"failed: {kind}: {count} {noun}", file=sys.stderr)
    return 1


def _run_resume(args: argparse.Namespace) -> int:
    """``repro run --resume MANIFEST``: finish what a prior run left."""
    retry, fault_plan = _run_resilience_options(args)
    checkpoint = RunManifest.read(args.resume)
    pending = checkpoint.pending()
    if not pending:
        print(f"{args.resume}: nothing to resume ({checkpoint.summary()})")
        return 0
    collect_telemetry = bool(args.trace or args.metrics)
    outcome = resume_run(
        args.resume,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=_progress_printer(len(pending)),
        collect_telemetry=collect_telemetry,
        deadline_s=args.deadline,
        retry=retry,
        fault_plan=fault_plan,
    )
    for label in sorted(outcome.results):
        print()
        print(outcome.results[label].format_table())
    _write_telemetry(outcome, args)
    # the merged manifest replaces the checkpoint, so resume is
    # repeatable: each pass re-runs only what is still unfinished
    manifest_path = args.manifest or args.resume
    outcome.manifest.write(manifest_path)
    print(f"manifest written to {manifest_path}")
    return _finish_run(outcome)


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        if args.json:
            print(json.dumps(cache.info(detail=True), indent=2, sort_keys=True))
            return 0
        info = cache.info()
        print(f"cache root: {info['root']}")
        print(f"backend:    {info['backend']} ({info['location']})")
        print(f"entries:    {info['entries']}")
        print(f"size:       {info['bytes'] / 1e6:.2f} MB")
        shards = info.get("shards") or {}
        if shards.get("count"):
            print(
                f"shards:     {shards['count']} "
                f"(max {shards['max']}, mean {shards['mean']:.1f})"
            )
        for kind, count in sorted(info["kinds"].items()):
            size = info["kind_bytes"].get(kind, 0)
            print(f"  {kind}: {count} ({size / 1e6:.2f} MB)")
        corrupt = info["corrupt_entries"]
        print(
            f"corrupt:    {corrupt} quarantined "
            f"({info['corrupt_bytes'] / 1e3:.1f} kB)"
        )
        if corrupt:
            print(
                "  corrupt entries were detected on read, moved aside as "
                "*.json.corrupt and recomputed; `cache clear` removes them"
            )
    else:  # clear
        if getattr(args, "json", False):
            print("error: --json applies to `cache info`", file=sys.stderr)
            raise SystemExit(2)
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.http import serve as serve_async
    from .serve.service import ServiceConfig

    config = ServiceConfig(
        cache_dir=args.cache_dir,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline,
    )

    def ready(server) -> None:
        print(
            f"serving on {server.url} (backend {config.backend}, "
            f"max-inflight {args.max_inflight})",
            flush=True,
        )

    try:
        asyncio.run(
            serve_async(
                config,
                host=args.host,
                port=args.port,
                ready=ready,
                warm_manifest=args.warm,
            )
        )
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve.loadgen import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        scenarios=args.scenarios,
        requests=args.requests,
        clients=args.clients,
        passes=args.passes,
        seed=args.seed,
        cache_dir=args.cache_dir,
        url=args.url,
        max_inflight=args.max_inflight,
    )
    report = run_loadgen(config)
    for entry in report["passes"]:
        print(
            f"pass {entry['pass']}: {entry['ok']}/{entry['requests']} ok  "
            f"hit_ratio={entry['hit_ratio']:.2f}  "
            f"coalesced={entry['coalesced']}  computed={entry['computed']}  "
            f"p50={entry['p50_ms']:.1f}ms  p99={entry['p99_ms']:.1f}ms",
            flush=True,
        )
        for detail in entry["error_detail"]:
            print(f"  error: {detail}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"loadgen report written to {args.json}")

    failures = 0
    if not report["digest_consistent"]:
        print(
            "error: served results were not digest-consistent",
            file=sys.stderr,
        )
        failures += 1
    final = report["passes"][-1]
    if final["errors"]:
        print(
            f"error: final pass had {final['errors']} failed request(s)",
            file=sys.stderr,
        )
        failures += 1
    if args.assert_hit_ratio is not None and (
        final["hit_ratio"] < args.assert_hit_ratio
    ):
        print(
            f"error: final-pass hit ratio {final['hit_ratio']:.3f} is below "
            f"the {args.assert_hit_ratio:.3f} floor",
            file=sys.stderr,
        )
        failures += 1
    if args.assert_p99_ms is not None and final["p99_ms"] > args.assert_p99_ms:
        print(
            f"error: final-pass p99 {final['p99_ms']:.1f} ms exceeds the "
            f"{args.assert_p99_ms:.1f} ms ceiling",
            file=sys.stderr,
        )
        failures += 1
    return 1 if failures else 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    summary = telemetry.summarize_file(args.path)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(telemetry.format_summary(summary))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id, title in available_rules():
            print(f"{rule_id}  {title}")
        return 0
    rules = None
    if args.rules:
        rules = sorted(
            {item.strip() for spec in args.rules for item in spec.split(",") if item.strip()}
        )
    # Default target: the installed package itself, so `repro check`
    # works from any checkout layout (and from an installed wheel).
    paths = args.paths or [str(Path(__file__).parent)]
    try:
        findings = check_paths(paths, rules=rules)
    except CheckError as exc:
        # usage/configuration errors exit 2; findings exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "sarif":
        print(render_sarif(findings), end="")
    elif args.format == "json":
        print(json.dumps([finding.to_dict() for finding in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        noun = "finding" if len(findings) == 1 else "findings"
        scope = ", ".join(paths)
        if findings:
            print(f"{len(findings)} {noun} in {scope}")
        else:
            print(f"clean: no findings in {scope}")
    return 1 if findings else 0


def _is_fault_plan(ref: str) -> bool:
    """Whether ``ref`` is a JSON file carrying the fault-plan marker."""
    path = Path(ref)
    if path.suffix != ".json" or not path.exists():
        return False
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(payload, dict) and "repro_fault_plan" in payload


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in scenario_ids():
            scenario = preset_scenario(name)
            print(f"{name:24s} {scenario.description or scenario.name}")
        return 0
    refs = list(args.refs)
    if args.action == "validate" and not refs:
        refs = scenario_ids()
    if not refs:
        print(
            f"error: scenario {args.action} needs a preset name or a "
            "scenario JSON file",
            file=sys.stderr,
        )
        raise SystemExit(2)
    overrides = _parse_options(getattr(args, "opt", None) or [])
    failures = 0
    for ref in refs:
        if args.action == "validate" and _is_fault_plan(ref):
            # fault plans share the examples/ directory but are a
            # different document kind, validated by `repro check`
            # (RPR105); globbing `examples/*.json` should skip them
            print(f"{ref}: skipped (fault plan; validated by `repro check`)")
            continue
        try:
            scenario = _resolve_scenario(ref, args.scale)
            if overrides:
                scenario = scenario.with_overrides(overrides)
        except MessError as exc:
            if args.action != "validate":
                raise
            failures += 1
            print(f"{ref}: FAIL")
            print(f"  {exc}")
            continue
        if args.action == "show":
            print(json.dumps(scenario.to_spec(), indent=2, sort_keys=True))
        elif args.action == "digest":
            print(f"{scenario.digest()}  {ref}")
        else:  # validate
            problems = scenario.validate()
            if problems:
                failures += 1
                print(f"{ref}: FAIL")
                for problem in problems:
                    print(f"  {problem}")
            else:
                print(f"{ref}: ok ({scenario.digest()[:12]})")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import perf

    if args.list:
        for name in perf.bench_names(args.filter):
            print(f"{name:40s} [{', '.join(perf._REGISTRY[name].tags)}]")
        return 0

    def progress(entry: dict) -> None:
        print(
            f"{entry['name']:40s} {entry['time_s']:.3f}s  "
            f"digest={entry['meta']['digest'][:12]}",
            flush=True,
        )

    payload = perf.run_benches(
        filter=args.filter, repeat=args.repeat, progress=progress
    )
    if args.json:
        perf.write_payload(payload, args.json)
        print(f"bench payload written to {args.json}")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    families = _platform_families()
    if args.platform not in families:
        print(
            f"unknown platform {args.platform!r}; available:\n  "
            + "\n  ".join(sorted(families)),
            file=sys.stderr,
        )
        return 2
    curves = families[args.platform]()
    metrics = compute_metrics(curves)
    print(f"{curves.name}")
    for curve in curves:
        points = " ".join(
            f"({b:.1f},{l:.0f})"
            for b, l in zip(curve.bandwidth_gbps, curve.latency_ns)
        )
        print(f"  r={curve.read_ratio:.2f}: {points}")
    print(
        f"unloaded {metrics.unloaded_latency_ns:.0f} ns, max latency "
        f"{metrics.max_latency_min_ns:.0f}-{metrics.max_latency_max_ns:.0f} ns"
    )
    if args.csv:
        curves.to_csv(args.csv)
        print(f"curves written to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mess reproduction: experiments, curves, characterization",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiments").set_defaults(
        func=_cmd_list
    )

    run_parser = commands.add_parser(
        "run", help="run one or many experiments (parallel, cached)"
    )
    run_parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (see `repro list`)",
    )
    run_parser.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    run_parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help=(
            "worker processes (default 1: run inline; with --resume, "
            "default: the resumed run's job count)"
        ),
    )
    run_parser.add_argument("--scale", type=float, default=1.0)
    run_parser.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="SCENARIO",
        help=(
            "scenario JSON file or preset name to run (repeatable; see "
            "`repro scenario list`)"
        ),
    )
    run_parser.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="experiment option (repeatable; single experiment only)",
    )
    run_parser.add_argument(
        "--cache-dir", default=None, help="override the on-disk cache location"
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk cache entirely",
    )
    run_parser.add_argument(
        "--manifest",
        default=None,
        help="run-manifest path (default: run-manifest.json with --all)",
    )
    run_parser.add_argument("--csv", default=None)
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="collect telemetry and write a Chrome trace-event file",
    )
    run_parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="collect telemetry and write a Prometheus text snapshot",
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "retry transient failures (crash/timeout/cache-error) up to "
            "N times with exponential backoff (default 0: no retries)"
        ),
    )
    run_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-experiment wall-clock deadline; attempts running longer "
            "are terminated and recorded (or retried) as timeouts"
        ),
    )
    run_parser.add_argument(
        "--resume",
        default=None,
        metavar="MANIFEST",
        help=(
            "re-run only the entries a previous run's manifest records "
            "as unfinished, then rewrite the merged manifest"
        ),
    )
    run_parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help=(
            "fault-plan JSON file injecting crashes, hangs, cache "
            "corruption or controller divergence (chaos testing)"
        ),
    )
    run_parser.set_defaults(func=_cmd_run)

    cache_parser = commands.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache_parser.add_argument("action", choices=("info", "clear"))
    cache_parser.add_argument(
        "--cache-dir", default=None, help="override the on-disk cache location"
    )
    cache_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable `info` output with per-entry sizes",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    serve_parser = commands.add_parser(
        "serve",
        help="serve digest-keyed characterizations over HTTP",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8650,
        help="listen port (default 8650; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, help="override the on-disk cache location"
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="concurrent scenario computations (default 4)",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="queued computations before rejecting with 429 (default 64)",
    )
    serve_parser.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request deadline; exceeded requests get 504 (default 60)",
    )
    serve_parser.add_argument(
        "--warm",
        default=None,
        metavar="MANIFEST",
        help="pre-seed the cache from a `repro run` manifest before serving",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    loadgen_parser = commands.add_parser(
        "loadgen",
        help="benchmark a characterization service with a replayable load",
    )
    loadgen_parser.add_argument(
        "--scenarios",
        type=int,
        default=6,
        metavar="K",
        help="unique scenario digests in the request mix (default 6)",
    )
    loadgen_parser.add_argument(
        "--requests",
        type=int,
        default=120,
        metavar="N",
        help="requests per pass (default 120)",
    )
    loadgen_parser.add_argument(
        "--clients",
        type=int,
        default=12,
        metavar="C",
        help="concurrent keep-alive clients (default 12)",
    )
    loadgen_parser.add_argument(
        "--passes",
        type=int,
        default=2,
        metavar="P",
        help="replay passes; later passes measure the cache path (default 2)",
    )
    loadgen_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="schedule seed (same seed -> identical request stream)",
    )
    loadgen_parser.add_argument(
        "--cache-dir",
        default=None,
        help="in-process server's cache location (ignored with --url)",
    )
    loadgen_parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="in-process server's compute concurrency (ignored with --url)",
    )
    loadgen_parser.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="replay against a running `repro serve` instead",
    )
    loadgen_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the full loadgen report to PATH",
    )
    loadgen_parser.add_argument(
        "--assert-hit-ratio",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 if the final pass's hit ratio is below X",
    )
    loadgen_parser.add_argument(
        "--assert-p99-ms",
        type=float,
        default=None,
        metavar="MS",
        help="exit 1 if the final pass's p99 latency exceeds MS",
    )
    loadgen_parser.set_defaults(func=_cmd_loadgen)

    telemetry_parser = commands.add_parser(
        "telemetry", help="summarize exported telemetry files"
    )
    telemetry_parser.add_argument("action", choices=("summarize",))
    telemetry_parser.add_argument("path", metavar="PATH")
    telemetry_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    telemetry_parser.set_defaults(func=_cmd_telemetry)

    check_parser = commands.add_parser(
        "check", help="run the project-specific static-analysis pass"
    )
    check_parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to check (default: the repro package)",
    )
    check_parser.add_argument(
        "--rules",
        action="append",
        default=[],
        metavar="IDS",
        help="comma-separated rule ids to run (repeatable; default: all)",
    )
    check_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="findings output format (sarif = SARIF 2.1.0 for code scanning)",
    )
    check_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list available rule ids and exit",
    )
    check_parser.set_defaults(func=_cmd_check)

    scenario_parser = commands.add_parser(
        "scenario", help="list, show, validate or digest scenarios"
    )
    scenario_parser.add_argument(
        "action", choices=("list", "show", "validate", "digest")
    )
    scenario_parser.add_argument(
        "refs",
        nargs="*",
        metavar="SCENARIO",
        help="preset name or scenario JSON file",
    )
    scenario_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale factor applied when building preset scenarios",
    )
    scenario_parser.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "dotted-path scenario override applied before the action "
            "(e.g. cache.policy=plru, system.cores=8); repeatable"
        ),
    )
    scenario_parser.set_defaults(func=_cmd_scenario)

    bench_parser = commands.add_parser(
        "bench",
        help="time registered perf benches",
    )
    bench_parser.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTR[,SUBSTR...]",
        help=(
            "run benches whose name or tag matches any comma-separated "
            "term (e.g. 'curves' or 'curves,hierarchy')"
        ),
    )
    bench_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="timing repetitions per bench; best-of-N is reported",
    )
    bench_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the bench payload (see repro.bench.perf) to PATH",
    )
    bench_parser.add_argument(
        "--list", action="store_true", help="list matching benches and exit"
    )
    bench_parser.set_defaults(func=_cmd_bench)

    curves_parser = commands.add_parser(
        "curves", help="print a preset platform's curve family"
    )
    curves_parser.add_argument("platform")
    curves_parser.add_argument("--csv", default=None)
    curves_parser.set_defaults(func=_cmd_curves)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); not our error
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
