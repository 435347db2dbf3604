"""Plain-text reporting of experiment series (the rows the paper plots)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..common.stats import improvement_pct, reduction_pct


@dataclass
class Cell:
    """One (system, x-value) measurement averaged over seeds."""

    throughput: float
    retries_per_100k: float
    deferrals: float = 0.0
    scheduled_pct: float | None = None
    imbalance: float | None = None
    latency_p50: float = 0.0
    latency_p99: float = 0.0


@dataclass
class Series:
    """One experiment: x-axis values by system name -> Cell."""

    exp_id: str
    title: str
    x_label: str
    x_values: list
    cells: dict[tuple[str, object], Cell] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    _MISSING = object()

    def put(self, system: str, x, cell: Cell) -> None:
        self.cells[(system, x)] = cell

    def get(self, system: str, x, default=None) -> Cell | None:
        """The cell at (system, x), or ``default`` when the run never
        produced one (a partially-completed or crashed sweep).  Callers
        that cannot tolerate a hole should pass ``default=Series.REQUIRED``
        to get a descriptive KeyError instead of a bare miss."""
        cell = self.cells.get((system, x), self._MISSING)
        if cell is self._MISSING:
            if default is self.REQUIRED:
                raise KeyError(
                    f"series {self.exp_id!r} has no cell for system "
                    f"{system!r} at x={x!r} (known systems: {self.systems()},"
                    f" x values: {self.x_values}); the sweep may have been "
                    f"interrupted before this point ran"
                )
            return default
        return cell

    #: Sentinel for :meth:`get`: raise a descriptive error on a missing
    #: cell instead of returning a default.
    REQUIRED = object()

    def systems(self) -> list[str]:
        seen: list[str] = []
        for system, _x in self.cells:
            if system not in seen:
                seen.append(system)
        return seen

    def to_payload(self) -> dict:
        """The series as plain data, for exact comparison/serialisation.

        Cells are listed in a canonical order (by x position, then
        system registration order) with every measured field, so two
        payloads are ``==`` iff the runs produced bit-identical numbers
        — the determinism tests compare these.
        """
        order = {repr(x): i for i, x in enumerate(self.x_values)}
        systems = {name: i for i, name in enumerate(self.systems())}
        cells = [
            {"system": system, "x": x, **asdict(cell)}
            for (system, x), cell in self.cells.items()
        ]
        cells.sort(key=lambda c: (order.get(repr(c["x"]), len(order)),
                                  systems.get(c["system"], len(systems))))
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "cells": cells,
            "notes": list(self.notes),
        }

    def improvement(self, ours: str, baseline: str, x) -> float:
        """Throughput improvement of ``ours`` over ``baseline`` at x, in %.

        NaN when either cell is missing (partial run), so aggregations
        can filter holes instead of crashing.
        """
        a, b = self.get(ours, x), self.get(baseline, x)
        if a is None or b is None:
            return float("nan")
        return improvement_pct(a.throughput, b.throughput)

    def retry_reduction(self, ours: str, baseline: str, x) -> float:
        a, b = self.get(ours, x), self.get(baseline, x)
        if a is None or b is None:
            return float("nan")
        return reduction_pct(a.retries_per_100k, b.retries_per_100k)

    def render(self) -> str:
        """Format the series as the table of numbers behind the figure."""
        lines = [f"== {self.exp_id}: {self.title}"]
        header = f"{self.x_label:>10} | " + " | ".join(
            f"{s:>22}" for s in self.systems()
        )
        lines.append(header)
        lines.append("-" * len(header))
        for x in self.x_values:
            row = [f"{str(x):>10}"]
            for s in self.systems():
                cell = self.cells.get((s, x))
                if cell is None:
                    row.append(f"{'-':>22}")
                else:
                    row.append(
                        f"{cell.throughput:>11,.0f}/{cell.retries_per_100k:>8,.0f}"
                    )
            lines.append(" | ".join(row))
        lines.append("(cells: throughput txn/s / retries per 100k txns)")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
