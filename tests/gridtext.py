"""ASCII-art grid builders shared by the test modules.

Images are drawn as one string per row, volumes as one multi-line
string per z-slab. '1' or '#' marks foreground, '0' and '.' mark
background; indentation and blank lines are ignored so fixtures can sit
inside indented code.
"""

from __future__ import annotations

import numpy as np

from digitopo import Image2D, Volume3D

_FG = {"1", "#"}
_BG = {"0", "."}


def _parse_rows(rows) -> np.ndarray:
    grid = []
    for row in rows:
        cells = []
        for ch in row:
            if ch in _FG:
                cells.append(True)
            elif ch in _BG:
                cells.append(False)
            else:
                raise ValueError(f"unknown cell character {ch!r}")
        grid.append(cells)
    widths = {len(r) for r in grid}
    if len(widths) != 1:
        raise ValueError("ragged rows")
    return np.array(grid, dtype=bool)


def image(text: str) -> Image2D:
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    cells = _parse_rows(rows)
    return Image2D(cells.shape[1], cells.shape[0], cells)


def volume(*slab_texts: str) -> Volume3D:
    slabs = []
    for text in slab_texts:
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        slabs.append(_parse_rows(rows))
    cells = np.stack(slabs, axis=0)
    nz, ny, nx = cells.shape
    return Volume3D(nx, ny, nz, cells)


# A frozen 4x4x4 volume on which the greedy repair rules oscillate: fills
# of complement windows keep recreating pairs whose deletion restores the
# fills. Found by randomized search; repair must report non-convergence.
NONCONVERGENT_SLABS = (
    "1001\n1101\n1101\n1111",
    "0000\n0010\n0001\n0111",
    "0101\n1111\n0111\n0010",
    "1011\n1111\n1011\n1010",
)


# Ten voxels (z slabs of y rows of x) on which 3D repair oscillates.
REPAIR_CYCLE = np.array(
    [
        [[c == "#" for c in row] for row in z.split()]
        for z in """
        ....  .#..  ....
        .#..  ##..  ....
        ....  ...#  ..##
        ....  ..##  ..#.
        """.strip().splitlines()
    ]
)
