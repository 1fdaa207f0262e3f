"""Plain-text report rendering: tables, CDF sketches, paper-vs-measured."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width text table (the experiment reports print these)."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            columns[index].append(str(cell))
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_cdf(
    series: Sequence[tuple[float, float]],
    width: int = 60,
    height: int = 12,
    title: str = "",
    xlabel: str = "",
) -> str:
    """ASCII sketch of a CDF — enough to eyeball the figure's shape."""
    if not series:
        return f"{title}\n(no data)"
    grid = [[" "] * width for _ in range(height)]
    xs = [x for x, _ in series]
    x_min, x_max = min(xs), max(xs)
    span = (x_max - x_min) or 1.0
    for x, y in series:
        col = min(width - 1, int((x - x_min) / span * (width - 1)))
        row = min(height - 1, int((1.0 - y) * (height - 1)))
        grid[row][col] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append("1.0 +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append("    |" + "".join(row))
    lines.append("0.0 +" + "".join(grid[-1]))
    lines.append("     " + f"{x_min:<10.3g}" + " " * max(0, width - 20) + f"{x_max:>10.3g}")
    if xlabel:
        lines.append(f"     {xlabel}")
    return "\n".join(lines)


@dataclass
class Comparison:
    """One paper-vs-measured check."""

    metric: str
    paper: object
    measured: object
    ok: bool
    note: str = ""


@dataclass
class ExperimentReport:
    """The outcome of one experiment harness."""

    experiment_id: str
    title: str
    comparisons: list[Comparison] = field(default_factory=list)
    body: str = ""

    def check(
        self,
        metric: str,
        paper: object,
        measured: object,
        ok: bool,
        note: str = "",
    ) -> None:
        self.comparisons.append(
            Comparison(metric=metric, paper=paper, measured=measured, ok=ok, note=note)
        )

    def check_close(
        self,
        metric: str,
        paper: float,
        measured: float,
        rel_tol: float = 0.15,
        note: str = "",
    ) -> None:
        if paper == 0:
            ok = measured == 0
        else:
            ok = abs(measured - paper) / abs(paper) <= rel_tol
        self.check(metric, paper, measured, ok, note)

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.comparisons)

    def render(self) -> str:
        rows = [
            (
                "OK" if c.ok else "DIFF",
                c.metric,
                c.paper,
                c.measured,
                c.note,
            )
            for c in self.comparisons
        ]
        table = render_table(
            ("", "metric", "paper", "measured", "note"),
            rows,
            title=f"== {self.experiment_id}: {self.title} ==",
        )
        if self.body:
            return table + "\n\n" + self.body
        return table
