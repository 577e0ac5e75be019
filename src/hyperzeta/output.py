"""Table rendering: markdown, CSV, and plain text.

Cells are either plain strings (labels, exclusion markers) or
(exact, float) string pairs.  Pair cells render as "exact = float" in
markdown/plain and split into two adjacent columns in CSV, so CSV stays
machine-parseable without quoting tricks.  All output is ASCII and a
pure function of the inputs; CSV in particular is byte-stable.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import FORMATS

if TYPE_CHECKING:  # heat-trace renders a table without loading the anomaly layer
    from .anomaly import TableCell

__all__ = ["OutputTable", "pform_output", "scalar_output", "FORMATS"]


@dataclass(frozen=True)
class OutputTable:
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    format: str = "markdown"

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError("row width does not match headers")

    def render(self) -> str:
        if self.format == "csv":
            return self._render_csv()
        if self.format == "plain":
            return self._render_grid(sep="  ", rule=False)
        return self._render_grid(sep=" | ", rule=True)

    @staticmethod
    def _cell_text(cell) -> str:
        if isinstance(cell, tuple):
            exact, floating = cell
            return f"{exact} = {floating}"
        return str(cell)

    def _render_grid(self, sep: str, rule: bool) -> str:
        texts = [[self._cell_text(c) for c in row] for row in self.rows]
        widths = [max(map(len, column)) for column in zip(self.headers, *texts)]
        out = []
        if rule:
            out.append("| " + sep.join(h.ljust(w) for h, w in zip(self.headers, widths)) + " |")
            out.append("| " + sep.join("-" * w for w in widths) + " |")
            for row in texts:
                out.append("| " + sep.join(c.ljust(w) for c, w in zip(row, widths)) + " |")
        else:
            out.append(sep.join(h.ljust(w) for h, w in zip(self.headers, widths)).rstrip())
            for row in texts:
                out.append(sep.join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(out) + "\n"

    def _render_csv(self) -> str:
        # pair cells double into exact/float columns; csv module kept out on
        # purpose: fixed comma join with minimal quoting is byte-stable.  A
        # header is a string, so only a row's cell makes its column a pair
        has_pair = [tuple in map(type, column) for column in zip(self.headers, *self.rows)]
        head = []
        for h, pair in zip(self.headers, has_pair):
            if pair:
                head.extend([f"{h} (exact)", f"{h} (float)"])
            else:
                head.append(h)
        buf = io.StringIO()
        buf.write(",".join(map(self._csv_escape, head)) + "\n")
        for row in self.rows:
            fields: list[str] = []
            for cell, pair in zip(row, has_pair):
                if type(cell) is tuple:
                    fields.extend(cell)
                elif pair:
                    fields.extend([str(cell), str(cell)])
                else:
                    fields.append(str(cell))
            buf.write(",".join(map(self._csv_escape, fields)) + "\n")
        return buf.getvalue()

    @staticmethod
    def _csv_escape(text: str) -> str:
        if "," in text or '"' in text or "\n" in text:
            return '"' + text.replace('"', '""') + '"'
        return text


def _cell_pair(cell: TableCell, digits: int):
    if cell.excluded:
        return "excluded"
    return (cell.result.exact_str(), cell.result.render_float(digits))


def pform_output(cells: list[TableCell], digits: int = 6, format: str = "markdown") -> OutputTable:
    """Grid with one row per dimension and one column per form order."""
    dims = sorted({c.dimension for c in cells})
    forms = sorted({c.form_order for c in cells})
    by_key = {(c.dimension, c.form_order): c for c in cells}
    headers = ("n",) + tuple(f"p={p}" for p in forms)
    rows = []
    for n in dims:
        row: list = [str(n)]
        for p in forms:
            cell = by_key.get((n, p))
            row.append("" if cell is None else _cell_pair(cell, digits))
        rows.append(tuple(row))
    return OutputTable(headers=headers, rows=tuple(rows), format=format)


def scalar_output(cells: list[TableCell], digits: int = 6, format: str = "markdown") -> OutputTable:
    """Two-column layout for the conformal-scalar table."""
    headers = ("n", "anomaly")
    rows = tuple(
        (str(c.dimension), _cell_pair(c, digits)) for c in cells
    )
    return OutputTable(headers=headers, rows=rows, format=format)
