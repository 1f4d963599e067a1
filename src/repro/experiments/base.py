"""Experiment infrastructure: results, formatting, scaling.

Every paper table/figure has a module here exposing
``run(scale: float = 1.0) -> ExperimentResult``. ``scale`` trades
fidelity for wall time: 1.0 is the fast default used by the benchmark
suite (seconds per experiment on a laptop); larger values raise sweep
densities and simulation windows toward the paper's resolutions. Since
no plotting stack is available offline, figures are reproduced as their
underlying data series, printed as tables and dumpable to CSV.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..core.curve import BandwidthLatencyCurve


@dataclass
class ExperimentResult:
    """Tabular result of one experiment."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **values) -> None:
        """Append one row; keys must match the declared columns."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ConfigurationError(
                f"{self.experiment_id}: unknown columns {sorted(unknown)}"
            )
        self.rows.append(values)

    def add_curves(self, curves: Iterable[BandwidthLatencyCurve], **labels) -> None:
        """Append one row per curve point, curve by curve.

        Each row holds ``labels`` plus the point's ``read_ratio``,
        ``bandwidth_gbps`` and ``latency_ns``; ``curves`` is any
        iterable of curves, a family included.
        """
        for curve in curves:
            for bandwidth, latency in zip(curve.bandwidth_gbps, curve.latency_ns):
                self.add(
                    **labels,
                    read_ratio=curve.read_ratio,
                    bandwidth_gbps=float(bandwidth),
                    latency_ns=float(latency),
                )

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ConfigurationError(
                f"{self.experiment_id}: no column {name!r}"
            )
        return [row.get(name) for row in self.rows]

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    @staticmethod
    def _fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if math.isnan(value):
                return "nan"
            magnitude = abs(value)
            if magnitude >= 1000:
                return f"{value:.0f}"
            if magnitude >= 10:
                return f"{value:.1f}"
            return f"{value:.2f}"
        return str(value)

    def format_table(self) -> str:
        """Fixed-width console table with title and notes."""
        header = [str(c) for c in self.columns]
        body = [[self._fmt(row.get(c)) for c in self.columns] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self, path: str | Path) -> None:
        """Dump the rows as CSV (the artifact's results.csv convention)."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns)
            writer.writeheader()
            writer.writerows(self.rows)

    # ------------------------------------------------------------------
    # JSON round-trip (mirrors CurveFamily.to_dict / from_dict)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation of the result."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            result = cls(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                columns=list(payload["columns"]),
            )
            rows = payload.get("rows", [])
            notes = payload.get("notes", [])
            for row in rows:
                result.add(**row)
            for note in notes:
                result.note(str(note))
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed experiment-result payload: {exc}"
            ) from exc
        return result

    def digest(self) -> str:
        """Stable content hash of the full result (hex sha256).

        Used by the run manifest and the result cache to detect when two
        runs produced identical tables.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# re-exported from units so experiment modules keep one import site
from ..units import scaled  # noqa: E402,F401
