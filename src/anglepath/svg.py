"""Deterministic SVG drawings of grids and paths.

Each blocked cell becomes one ``<rect class="b">`` (so drawings can be
audited by element tally), the path a single polyline through cell centers,
start and goal small circles.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .grids import Cell, Grid


def render_svg(grid: Grid, path: Sequence[Cell] | None, out: str | Path | None = None) -> str:
    """Render the grid and an optional waypoint path; returns the SVG text."""
    w, h = grid.width, grid.height
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{4 * w}" height="{4 * h}">',
        f'<rect class="bg" x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    # The blocked cells in row-major order, as Python ints.
    for row, col in np.argwhere(grid.blocked).tolist():
        parts.append(f'<rect class="b" x="{col}" y="{row}" width="1" height="1" fill="#444444"/>')
    if path:
        points = " ".join(f"{c + 0.5:g},{r + 0.5:g}" for c, r in path)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#d03020" stroke-width="0.4"/>'
        )
        sc, sr = path[0]
        gc, gr = path[-1]
        parts.append(
            f'<circle class="start" cx="{sc + 0.5:g}" cy="{sr + 0.5:g}" r="0.6" fill="#207020"/>'
        )
        parts.append(
            f'<circle class="goal" cx="{gc + 0.5:g}" cy="{gr + 0.5:g}" r="0.6" fill="#203090"/>'
        )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    return text
