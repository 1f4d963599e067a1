"""Per-layer timing for the traced benchmark run.

The traced run wraps a fixed list of public boundaries of the ``repro``
package (class or module attributes looked up at call time) and keeps,
for each, in-memory aggregates of call count, inclusive time and self
time. Self time is the inclusive time minus the time of wrapped calls
made beneath it, found with an explicit frame stack. The wrapper's own
cost is measured once by :func:`calibrate` and subtracted: the part
that falls inside a call's measured interval from that call, the whole
per-call cost from its caller, so that the self times of all frames sum
to an estimate of the untraced wall time.

Coarse frames (a benchmark iteration, a measurement point, a serve
phase or request) also become Chrome trace spans with an id and a
parent id; per-access boundaries never do.

A boundary that cannot be resolved (renamed or removed by a later
change) is recorded as absent and reports zeros; installing never
raises for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: metric prefix, module and attribute path."""

    name: str
    module: str
    attr: str
    #: Record each call as a Chrome trace span (coarse boundaries only).
    span: bool = False
    #: Count the calls that returned something other than None.
    count_results: bool = False


#: The public boundaries the traced run wraps, outermost first.
BOUNDARIES = (
    Boundary("bench.point", "repro.bench.harness", "MessBenchmark.measure_point", True),
    Boundary("cpu.engine", "repro.cpu.engine", "Engine.run"),
    Boundary("cpu.access", "repro.cpu.hierarchy", "MemoryHierarchy.access"),
    Boundary(
        "cpu.prime",
        "repro.cpu.hierarchy",
        "MemoryHierarchy.prime_write_steady_state",
    ),
    Boundary("memmodels.access", "repro.memmodels.base", "MemoryModel.access"),
    Boundary("dram.submit", "repro.dram.controller", "DramController.submit"),
    Boundary("core.latency_at", "repro.core.family", "CurveFamily.latency_at"),
    Boundary("core.pi_update", "repro.core.controller", "PIController.update"),
    Boundary("bench.probe_point", "repro.bench.model_probe", "probe_point", True),
    # returns None when its batch preconditions fail (the scalar probe
    # then measures the point): counted to give the batched share
    Boundary(
        "engine.probe", "repro.engine.probe", "probe_point_vectorized", True, True
    ),
)

# Frame layout: [start, child seconds, name, span id or None].
_START, _CHILD, _NAME, _SPAN = range(4)


def span_id(frame: list) -> int | None:
    """The Chrome trace span id of a frame from :meth:`Tracer.enter`."""
    return frame[_SPAN]


class Tracer:
    """Frame-stack aggregator of count, inclusive and self time.

    ``inner_cost`` is the wrapper overhead that lands inside a call's
    measured interval; ``call_cost`` is the whole overhead one wrapped
    call adds to its caller. Both are seconds, come from
    :func:`calibrate`, and are read when a boundary is wrapped (zero
    leaves the raw measurements untouched).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        inner_cost: float = 0.0,
        call_cost: float = 0.0,
    ) -> None:
        self.clock = clock
        self.inner_cost = inner_cost
        self.call_cost = call_cost
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: name -> calls that returned something other than None
        self.results: dict[str, int] = {}
        self.absent: list[str] = []
        self.events: list[dict] = []
        self.origin = clock()
        self._stack: list[list] = []
        self._next_span = 1
        #: (owner, attribute, original, replacement, owned by owner)
        self._patches: list[tuple[Any, str, Any, Any, bool]] = []

    def _entry(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    # ------------------------------------------------------------------
    # The benchmark's own frames
    # ------------------------------------------------------------------

    def enter(self, name: str, span: bool = False) -> list:
        """Open a frame around work the benchmark itself does."""
        frame = [0.0, 0.0, name, self._new_span_id() if span else None]
        self._stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def exit(self, frame: list, **args: Any) -> None:
        """Close ``frame``, which must be the innermost open one."""
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"frame {frame[_NAME]!r} closed out of order")
        self._close(frame, end, 0.0, 0.0, args)

    def _close(
        self, frame: list, end: float, inner: float, outer: float, args: dict
    ) -> None:
        inclusive = max(0.0, end - frame[_START] - inner)
        entry = self._entry(frame[_NAME])
        entry[0] += 1
        entry[1] += inclusive
        entry[2] += inclusive - frame[_CHILD]
        if self._stack:
            self._stack[-1][_CHILD] += inclusive + outer
        if frame[_SPAN] is not None:
            parent = next(
                (f[_SPAN] for f in reversed(self._stack) if f[_SPAN] is not None),
                None,
            )
            self.span(frame[_NAME], frame[_START], end, frame[_SPAN], parent, **args)

    def _new_span_id(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        return span_id

    def span(
        self,
        name: str,
        start: float,
        end: float,
        span_id: int | None = None,
        parent: int | None = None,
        **args: Any,
    ) -> int:
        """Record one Chrome trace span; returns its id."""
        if span_id is None:
            span_id = self._new_span_id()
        self.events.append(
            {
                "name": name,
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, **args},
            }
        )
        return span_id

    # ------------------------------------------------------------------
    # Boundary wrapping
    # ------------------------------------------------------------------

    def wrap(
        self, name: str, func: Callable, span: bool = False, count_results: bool = False
    ) -> Callable:
        """``func`` wrapped so each call is one frame named ``name``."""
        stack = self._stack
        clock = self.clock
        entry = self._entry(name)
        inner = self.inner_cost
        outer = self.call_cost
        results = self.results

        if span or count_results:
            # coarse boundaries: a few calls per operation, full bookkeeping
            def coarse(*args: Any, **kwargs: Any) -> Any:
                frame = [0.0, 0.0, name, self._new_span_id() if span else None]
                stack.append(frame)
                frame[_START] = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    self._close(frame, end, inner, outer, {})
                if count_results and result is not None:
                    results[name] = results.get(name, 0) + 1
                return result

            return functools.wraps(func)(coarse)

        def fine(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, 0.0, name, None]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                inclusive = clock() - start - inner
                stack.pop()
                if inclusive < 0.0:
                    inclusive = 0.0
                entry[0] += 1
                entry[1] += inclusive
                entry[2] += inclusive - frame[_CHILD]
                if stack:
                    stack[-1][_CHILD] += inclusive + outer

        return functools.wraps(func)(fine)

    def install(self, boundaries: tuple[Boundary, ...] = BOUNDARIES) -> None:
        """Wrap every resolvable boundary; unresolvable ones are absent."""
        for boundary in boundaries:
            try:
                owner: Any = importlib.import_module(boundary.module)
                *path, attr = boundary.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(boundary.name)
                continue
            if not callable(original):
                self.absent.append(boundary.name)
                continue
            wrapper = self.wrap(
                boundary.name, original, boundary.span, boundary.count_results
            )
            self._patch(owner, attr, original, wrapper)

    def capture(self, name: str, module: str, cls: str) -> list:
        """Collect every instance of ``module.cls`` built while installed.

        The caller reads (and clears) the returned list; an unresolvable
        class is recorded as absent under ``name``.
        """
        instances: list = []
        try:
            owner = getattr(importlib.import_module(module), cls)
            original = owner.__init__
        except (ImportError, AttributeError):
            self.absent.append(name)
            return instances

        @functools.wraps(original)
        def init(instance: Any, *args: Any, **kwargs: Any) -> None:
            original(instance, *args, **kwargs)
            instances.append(instance)

        self._patch(owner, "__init__", original, init)
        return instances

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        self._patches.append((owner, attr, original, replacement, attr in vars(owner)))
        setattr(owner, attr, replacement)

    def suspend(self) -> None:
        """Put every wrapped attribute back as it was (wrappers are kept)."""
        for owner, attr, original, _, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def resume(self) -> None:
        """Reinstate the wrappers after :meth:`suspend`."""
        for owner, attr, _, replacement, _ in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Suspend and forget every wrapper."""
        self.suspend()
        self._patches.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def layer_metrics(
        self, per: int, boundaries: tuple[Boundary, ...] = BOUNDARIES
    ) -> dict[str, float]:
        """``<name>.{calls,s,self_s}`` per boundary, averaged over ``per``."""
        per = max(1, per)
        metrics: dict[str, float] = {}
        for boundary in boundaries:
            calls, inclusive, own = self.totals.get(boundary.name, (0, 0.0, 0.0))
            metrics[f"{boundary.name}.calls"] = calls / per
            metrics[f"{boundary.name}.s"] = inclusive / per
            metrics[f"{boundary.name}.self_s"] = max(0.0, own) / per
        return metrics

    def write_chrome_trace(self, path: Path, **meta: Any) -> None:
        """Write the recorded spans as a Chrome trace JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"absent_boundaries": self.absent, **meta},
        }
        path.write_text(json.dumps(payload))


def calibrate(samples: int = 20000, rounds: int = 5) -> tuple[float, float]:
    """Measure the wrapper cost: ``(inner_cost, call_cost)`` in seconds.

    A wrapped no-op with a boundary-like signature is timed against the
    bare no-op, both called from inside an open frame as real boundaries
    are; the smallest of several rounds is kept, since noise only ever
    adds time.
    """

    def noop(a: Any, b: Any, c: Any, d: Any, flag: bool = False) -> None:
        return None

    inner_best = call_best = float("inf")
    clock = time.perf_counter
    for _ in range(rounds):
        probe = Tracer()
        wrapped = probe.wrap("calibration", noop)
        outer = probe.enter("outer")
        start = clock()
        for _ in range(samples):
            noop(0, 1, 2, 3, flag=False)
        bare = clock() - start
        start = clock()
        for _ in range(samples):
            wrapped(0, 1, 2, 3, flag=False)
        traced = clock() - start
        probe.exit(outer)
        inner_best = min(inner_best, probe.totals["calibration"][1] / samples)
        call_best = min(call_best, max(0.0, traced - bare) / samples)
    return inner_best, max(call_best, inner_best)
