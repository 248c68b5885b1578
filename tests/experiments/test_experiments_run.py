"""The paper's claims as one checked record.

Each experiment of :data:`repro.experiments.EXPERIMENTS` runs once per
session with its quick parameters.  No verdict column may read ``no``,
and every row must equal the committed ``EXPERIMENTS.md`` (the output of
``python -m repro experiment all --quick``) in every column except the
timings (``*_seconds`` / ``*_speedup``), of which only whether a cell is
defined is compared.  Notes print timings and are left out.  A changed
verdict or count is then a failing test here and a visible diff there.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List

import pytest

from repro.experiments import EXPERIMENTS, refuted, run_all

RECORD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def _tables(markdown: str) -> Dict[str, List[Dict[str, str]]]:
    """The pipe tables of *markdown* as string cells, keyed by experiment name."""
    tables: Dict[str, List[List[str]]] = {}
    lines: List[List[str]] = []
    for line in markdown.splitlines():
        heading = re.match(r"### (E\d+): ", line)
        if heading:
            lines = tables.setdefault(heading.group(1), [])
        elif line.startswith("|"):
            lines.append([cell.strip() for cell in line.strip("|").split("|")])
    return {
        name: [dict(zip(rows[0], cells)) for cells in rows[2:]] for name, rows in tables.items()
    }


def _comparable(rows: List[Dict[str, str]]) -> List[Dict[str, object]]:
    """Rows with each timing cell reduced to whether it is defined."""
    return [
        {
            column: (cell != "-") if column.endswith(("_seconds", "_speedup")) else cell
            for column, cell in row.items()
        }
        for row in rows
    ]


@pytest.fixture(scope="module", params=list(EXPERIMENTS))
def quick_result(request):
    (result,) = run_all([request.param], quick=True)
    return result


@pytest.fixture(scope="module")
def record():
    return _tables(RECORD.read_text(encoding="utf-8"))


def test_the_record_names_every_experiment(record):
    assert list(record) == list(EXPERIMENTS)


def test_no_verdict_reads_no(quick_result):
    verdicts = EXPERIMENTS[quick_result.experiment].verdicts
    assert all(any(column in row for row in quick_result.rows) for column in verdicts)
    assert refuted(quick_result) == []


def test_rows_match_the_committed_record(quick_result, record):
    (rows,) = _tables(quick_result.to_table()).values()
    assert _comparable(rows) == _comparable(record[quick_result.experiment])
