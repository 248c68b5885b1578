"""Experiment harness: timing, result rows and table rendering.

Every experiment module exposes a ``run(...)`` function returning an
:class:`ExperimentResult`; :func:`repro.experiments.run_all` calls it
with its defaults or its quick parameters, and
``python -m repro experiment <name>… [--quick]`` prints the results.  A
result is a list of row dictionaries plus metadata, and
:func:`render_table` renders it as a GitHub-markdown pipe table, so the
CLI's output is itself the committed record (``EXPERIMENTS.md``).
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

__all__ = ["ExperimentResult", "timed", "render_table", "host_line", "geometric_slowdown"]


@dataclass
class ExperimentResult:
    """The outcome of one experiment run."""

    experiment: str
    claim: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append one observation row."""
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Attach a free-text observation."""
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def to_table(self) -> str:
        """Render the rows as an aligned text table."""
        return render_table(self.rows, title=f"{self.experiment}: {self.claim}", notes=self.notes)

    def __str__(self) -> str:
        return self.to_table()


def timed(function: Callable[[], Any]) -> tuple[Any, float]:
    """Run a thunk, returning ``(result, elapsed_seconds)``."""
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def render_table(
    rows: Sequence[Dict[str, Any]],
    title: Optional[str] = None,
    notes: Iterable[str] = (),
) -> str:
    """Render a list of dictionaries as an aligned GitHub-markdown pipe table.

    The title becomes a ``###`` heading and each note a ``- note:`` list
    item after the table.
    """
    lines: List[str] = []
    if title:
        lines += [f"### {title}", ""]
    if not rows:
        lines.append("(no rows)")
    else:
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        rendered = [[_format(row.get(column)) for column in columns] for row in rows]
        widths = [  # a delimiter cell of three or more hyphens renders everywhere
            max(3, len(column), *(len(line[index]) for line in rendered))
            for index, column in enumerate(columns)
        ]
        for cells in [columns, ["-" * width for width in widths], *rendered]:
            lines.append(
                "| " + " | ".join(cell.ljust(width) for cell, width in zip(cells, widths)) + " |"
            )
    items = [f"- note: {note}" for note in notes]
    if items:
        lines += ["", *items]
    return "\n".join(lines)


def host_line() -> str:
    """One line naming the host an experiment record was measured on."""
    return f"host: {platform.system()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def _format(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def geometric_slowdown(times: Sequence[float]) -> Optional[float]:
    """The average ratio between consecutive timings (a crude growth indicator).

    Used by scaling experiments to summarise whether runtimes grow roughly
    linearly (ratio near the size ratio) or explosively.
    """
    ratios = [
        later / earlier
        for earlier, later in zip(times, times[1:])
        if earlier > 0 and later > 0
    ]
    if not ratios:
        return None
    product = 1.0
    for ratio in ratios:
        product *= ratio
    return product ** (1.0 / len(ratios))
