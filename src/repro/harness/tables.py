"""Plain-text table rendering for experiment reports.

Every experiment renders the same rows/series the paper reports, as an
aligned text table — no plotting dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TextTable:
    """A simple aligned text table with a title and optional footer lines."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    footers: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def add_footer(self, line: str) -> None:
        self.footers.append(line)

    @staticmethod
    def _fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    def render(self) -> str:
        cells = [[self._fmt(v) for v in row] for row in self.rows]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.footers:
            lines.append(sep)
            lines.extend(self.footers)
        return "\n".join(lines)


def arithmetic_mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def geometric_mean(values: list[float]) -> float:
    if not values:
        return 0.0
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))
