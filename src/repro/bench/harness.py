"""Experiment runners and plain-text table rendering.

The benches print tables shaped like the paper's figures: datasets as
columns, systems as rows, elapsed simulated seconds in the cells and
``O.O.M.`` where a system exceeded its memory — produced by catching
:class:`~repro.errors.CapacityError` exactly where the real systems died.
"""

import os

from repro.errors import CapacityError
from repro.units import format_seconds

#: Marker rendered where the paper prints "O.O.M.".
OOM = "O.O.M."

#: Marker for configurations a system cannot run for structural reasons
#: (matching the paper's "N/A" entries in Table 5).
NOT_AVAILABLE = "N/A"


def run_or_oom(func, *args, **kwargs):
    """Call an engine entry point; map capacity failures to :data:`OOM`.

    Returns either the engine's :class:`~repro.core.result.RunResult` or
    the ``OOM`` marker string — the same dichotomy the paper's figures
    show.
    """
    try:
        return func(*args, **kwargs)
    except CapacityError:
        return OOM


def format_cell(outcome, rescale=1.0):
    """Render one table cell: a time, an O.O.M. marker, or raw text."""
    if isinstance(outcome, str):
        return outcome
    if outcome is None:
        return "-"
    if hasattr(outcome, "elapsed_seconds"):
        return format_seconds(outcome.elapsed_seconds * rescale)
    if isinstance(outcome, float):
        return format_seconds(outcome * rescale)
    return str(outcome)


class ExperimentTable:
    """A paper-style results table with aligned plain-text rendering."""

    def __init__(self, title, columns, caption=None):
        self.title = title
        self.columns = list(columns)
        self.caption = caption
        self.rows = []

    def add_row(self, label, cells):
        if len(cells) != len(self.columns):
            raise ValueError(
                "row %r has %d cells, expected %d"
                % (label, len(cells), len(self.columns)))
        self.rows.append((label, [str(c) for c in cells]))

    def render(self):
        label_width = max(
            [len("")] + [len(label) for label, _ in self.rows]
            + [len(self.title) // 4])
        widths = []
        for i, column in enumerate(self.columns):
            cell_width = max([len(column)]
                             + [len(row[1][i]) for row in self.rows])
            widths.append(cell_width)
        lines = [self.title, "=" * len(self.title)]
        header = " " * label_width + " | " + " | ".join(
            column.rjust(width)
            for column, width in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for label, cells in self.rows:
            lines.append(label.ljust(label_width) + " | " + " | ".join(
                cell.rjust(width) for cell, width in zip(cells, widths)))
        if self.caption:
            lines.append("")
            lines.append(self.caption)
        return "\n".join(lines)

    def save(self, results_dir, filename):
        """Write the rendered table under ``results_dir``; returns path."""
        os.makedirs(results_dir, exist_ok=True)
        path = os.path.join(results_dir, filename)
        with open(path, "w") as handle:
            handle.write(self.render() + "\n")
        return path

    def show(self):
        """Print the table (benches call this so ``pytest -s`` shows it)."""
        print()
        print(self.render())
        return self
