"""Betti numbers of a raw grid from GF(2) ranks of boundary maps.

A reference for the tests that shares no identity with the program: the
program and its oracles count surfaces, corners or the Euler
characteristic, while this module ranks boundary matrices.

The complex is the closed cube (2D: square) complex of the grid's set
cells, so two cells that share only a vertex are joined: the (8,4)
reading in 2D and the (26,6) reading in 3D. It is laid out on the
doubled grid, where cell i of an axis sits at 2i + 1 and its faces at
2i and 2i + 2; a doubled-grid point is a cube of the complex whose
dimension is its number of odd coordinates, set when it lies in the
closure of a set cell. The boundary of a k-cube is its two neighbours
along each odd axis. Each boundary map is written as rows of Python-int
bit sets, one bit per doubled-grid point, and ranked over GF(2) by
pivot elimination. Then b_k = n_k - rank d_k - rank d_(k+1). GF(2) is
enough: the homology of a subset of R^2 or R^3 has no torsion.

Source: Kaczynski, Mischaikow and Mrozek, "Computational Homology"
(Springer 2004).
"""

from __future__ import annotations

import itertools

import numpy as np

from digitopo import Image2D, Volume3D


def closed_cells(cells: np.ndarray) -> np.ndarray:
    """The doubled grid of ``cells``, its points set where they lie in the
    closure of a set cell: shape 2n + 1 per axis of extent n."""
    doubled = np.zeros(tuple(2 * n + 1 for n in cells.shape), dtype=bool)
    for offset in itertools.product(range(3), repeat=cells.ndim):
        doubled[tuple(slice(d, d + 2 * n, 2) for d, n in zip(offset, cells.shape))] |= cells
    return doubled


def gf2_rank(rows) -> int:
    """The rank over GF(2) of the rows, each a bit set as a Python int."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def betti(grid: Image2D | Volume3D) -> tuple[int, ...]:
    """``(b0, b1)`` of an image or ``(b0, b1, b2)`` of a volume, of the
    closed complex of its set cells."""
    doubled = closed_cells(grid.cells)
    ndim = doubled.ndim
    points = np.argwhere(doubled)
    dims = (points % 2).sum(axis=1)
    flat = np.ravel_multi_index(points.T, doubled.shape).tolist()
    strides = [s // doubled.itemsize for s in doubled.strides]
    cubes = [int((dims == k).sum()) for k in range(ndim + 1)]
    ranks = [0] * (ndim + 2)
    for k in range(1, ndim + 1):
        rows = []
        for at, point in zip(np.flatnonzero(dims == k).tolist(), points[dims == k].tolist()):
            row = 0
            for axis in range(ndim):
                if point[axis] % 2:
                    row |= (1 << (flat[at] - strides[axis])) | (1 << (flat[at] + strides[axis]))
            rows.append(row)
        ranks[k] = gf2_rank(rows)
    found = [cubes[k] - ranks[k] - ranks[k + 1] for k in range(ndim + 1)]
    # The top boundary map of a subset of R^ndim is injective.
    assert found[ndim] == 0, found
    return tuple(found[:ndim])
