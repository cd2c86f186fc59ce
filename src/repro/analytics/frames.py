"""Typed row-dict frames with deterministic CSV serialization.

A :class:`Frame` is the analytics engine's unit of figure data: an
ordered column tuple plus a list of plain-dict rows.  It is stdlib
only -- no pandas dependency -- but converts to a DataFrame on request
for interactive use.

CSV bytes are the regression-diff currency (committed baselines,
``figures diff``), so serialization is strictly deterministic: column
order is the declared order, floats render via ``repr`` (shortest
round-trip form, stable across CPython versions we support), bools as
``true``/``false``, ``None`` as the empty cell, and quoting follows
RFC 4180 with ``\n`` line endings regardless of platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Frame:
    """An ordered-column table of plain row dicts."""

    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)

    def __len__(self) -> int:
        return len(self.rows)

    def append(self, **cells) -> None:
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise ValueError(
                f"row cells {sorted(unknown)} not in columns {self.columns}")
        self.rows.append(cells)

    def column(self, name: str) -> list:
        if name not in self.columns:
            raise KeyError(name)
        return [r.get(name) for r in self.rows]

    # ------------------------------------------------------ serialization

    def to_csv_bytes(self) -> bytes:
        """Deterministic RFC-4180 CSV, ``\\n`` line endings."""
        lines = [",".join(_csv_cell(c) for c in self.columns)]
        for row in self.rows:
            lines.append(",".join(
                _csv_cell(row.get(c)) for c in self.columns))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def to_text(self, pivot: tuple[str, str, str] | None = None) -> str:
        """The frame as an aligned plain-text table (the study report).

        With ``pivot=(row, column, value)`` a long-form frame prints as
        a grid instead: one line per distinct ``row`` cell, one column
        per distinct ``column`` cell, first-seen order.  Booleans print
        as ``T``/``f``, numbers right-aligned.  A grid too wide for one
        screen numbers its columns under a legend line.
        """
        lines = []
        if pivot is None:
            header = list(self.columns)
            body = [[row.get(c) for c in self.columns] for row in self.rows]
        else:
            row_key, col_key, value_key = pivot
            cols = list(dict.fromkeys(self.column(col_key)))
            grid: dict = {}
            for row in self.rows:
                grid.setdefault(row[row_key], {})[row[col_key]] = \
                    row[value_key]
            header = [""] + [str(c) for c in cols]
            if sum(len(h) + 2 for h in header) > 100:
                lines.append("columns: " + ", ".join(
                    f"{i}={c}" for i, c in enumerate(header[1:])))
                header = [""] + [str(i) for i in range(len(cols))]
            body = [[name] + [cells.get(c) for c in cols]
                    for name, cells in grid.items()]
        numeric = [
            all(v is None or _is_number(v) for v in col)
            for col in zip(*body)] if body else [False] * len(header)
        texts = [[_display_cell(v) for v in r] for r in body]
        widths = [max(map(len, col)) for col in zip(header, *texts)]
        for cells in [header] + texts:
            lines.append("  ".join(
                c.rjust(w) if num else c.ljust(w)
                for c, w, num in zip(cells, widths, numeric)).rstrip())
        return "\n".join(lines) + "\n"

    def to_records(self) -> list[dict]:
        """JSON-safe row dicts in column order (Vega-Lite inline data)."""
        return [
            {c: _json_cell(row.get(c)) for c in self.columns}
            for row in self.rows
        ]

    def to_pandas(self):
        """The frame as a ``pandas.DataFrame`` (optional dependency)."""
        try:
            import pandas  # noqa: PLC0415 - optional, import on use
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise ImportError(
                "pandas is not installed; Frame works without it -- use "
                ".rows / .column() / .to_csv_bytes() instead") from exc
        return pandas.DataFrame(self.to_records(), columns=list(self.columns))


def _csv_cell(value) -> str:
    text = _text_cell(value)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def _text_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _display_cell(value) -> str:
    if isinstance(value, bool):
        return "T" if value else "f"
    if isinstance(value, float):
        return f"{value:.6g}"
    return "" if value is None else str(value)


def _json_cell(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass
class Figure:
    """One generated figure: its data frame and its Vega-Lite spec."""

    frame: Frame
    spec: dict
    notes: str = ""

    def to_text(self) -> str:
        """The frame as text; a heatmap spec's frame as its T/f grid."""
        if self.spec.get("mark") != "rect":
            return self.frame.to_text()
        enc = self.spec["encoding"]
        return self.frame.to_text(
            (enc["y"]["field"], enc["x"]["field"], enc["color"]["field"]))
