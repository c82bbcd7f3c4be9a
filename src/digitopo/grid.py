"""Dense binary grids, adjacency relations, and connected-component labeling.

Conventions used throughout the package:

* Image coordinates are ``(x, y)``; volume coordinates are ``(x, y, z)``.
* Storage is row-major with x fastest: ``Image2D.cells[y, x]`` and
  ``Volume3D.cells[z, y, x]``.
* Reads outside the stored extent return background, so every object is
  implicitly embedded in an infinite background. No operation ever raises
  on out-of-range coordinates.
* Scan order means iterating x fastest, then y, then z. Component labels
  are assigned in scan order of each component's first cell, so label 1 is
  always the component containing the scan-first foreground cell.

All operations are pure: they never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import ndimage

from .errors import NoSuchComponentError

__all__ = [
    "Adjacency",
    "Image2D",
    "Volume3D",
    "Labeling",
    "label_components_2d",
    "label_components_3d",
    "label_background_2d",
    "extract_component",
    "window2",
    "window8",
]


class Adjacency(Enum):
    """Neighborhood structure on the square or cubic grid.

    Direct neighbors share a face (an (m-1)-cell): 4 in 2D, 6 in 3D.
    Indirect neighbors share any cell, i.e. lie within Chebyshev distance
    one: 8 in 2D, 26 in 3D.
    """

    DIRECT_2D = "direct-2d"
    INDIRECT_2D = "indirect-2d"
    DIRECT_3D = "direct-3d"
    INDIRECT_3D = "indirect-3d"

    @property
    def ndim(self) -> int:
        return 2 if self in (Adjacency.DIRECT_2D, Adjacency.INDIRECT_2D) else 3

    @property
    def is_direct(self) -> bool:
        return self in (Adjacency.DIRECT_2D, Adjacency.DIRECT_3D)

    def offsets(self) -> tuple[tuple[int, ...], ...]:
        """All neighbor offsets, in scan order (x fastest, then y, then z)."""
        n = self.ndim
        out = []
        rng = (-1, 0, 1)
        if n == 2:
            coords = [(dx, dy) for dy in rng for dx in rng]
        else:
            coords = [(dx, dy, dz) for dz in rng for dy in rng for dx in rng]
        for off in coords:
            if all(d == 0 for d in off):
                continue
            if self.is_direct and sum(abs(d) for d in off) != 1:
                continue
            out.append(off)
        return tuple(out)

    def adjacent(self, p: tuple[int, ...], q: tuple[int, ...]) -> bool:
        """True if p and q are distinct neighbors under this adjacency."""
        if len(p) != self.ndim or len(q) != self.ndim:
            raise ValueError("coordinate arity does not match adjacency")
        diffs = [abs(a - b) for a, b in zip(p, q)]
        if self.is_direct:
            return sum(diffs) == 1
        return max(diffs) == 1

    def _structure(self) -> np.ndarray:
        """The scipy labeling structure; built once, shared read-only."""
        return _STRUCTURES[self]


def _build_structure(adjacency: Adjacency) -> np.ndarray:
    if adjacency.is_direct:
        a = ndimage.generate_binary_structure(adjacency.ndim, 1)
    else:
        a = np.ones((3,) * adjacency.ndim, dtype=bool)
    a.flags.writeable = False
    return a


_STRUCTURES = {adj: _build_structure(adj) for adj in Adjacency}


def _as_bool_grid(cells, shape: tuple[int, ...]) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(cells, dtype=bool))
    if a.shape != shape:
        raise ValueError(f"cells shape {a.shape} does not match extent {shape}")
    return a


class Image2D:
    """A binary image. Foreground cells are True.

    ``cells`` has shape ``(height, width)``; ``cells[y, x]`` is the pixel at
    ``(x, y)``. ``get`` returns background for out-of-range coordinates.
    """

    __slots__ = ("width", "height", "cells")

    def __init__(self, width: int, height: int, cells=None):
        if width <= 0 or height <= 0:
            raise ValueError("image extents must be positive")
        self.width = int(width)
        self.height = int(height)
        if cells is None:
            self.cells = np.zeros((self.height, self.width), dtype=bool)
        else:
            self.cells = _as_bool_grid(cells, (self.height, self.width))

    @classmethod
    def from_rows(cls, rows) -> "Image2D":
        """Build from an iterable of equal-length rows of 0/1 values."""
        a = np.asarray(rows, dtype=bool)
        if a.ndim != 2:
            raise ValueError("expected a rectangular list of rows")
        return cls(a.shape[1], a.shape[0], a)

    @classmethod
    def from_text(cls, text: str) -> "Image2D":
        """Build from lines of '0'/'1' characters (whitespace ignored)."""
        rows = [[c == "1" for c in line.strip()] for line in text.strip().splitlines()]
        return cls.from_rows(rows)

    def get(self, x: int, y: int) -> bool:
        if 0 <= x < self.width and 0 <= y < self.height:
            return bool(self.cells[y, x])
        return False

    @property
    def area(self) -> int:
        return int(self.cells.sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Image2D)
            and self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.cells, other.cells))
        )

    def __repr__(self) -> str:
        return f"Image2D({self.width}x{self.height}, area={self.area})"


class Volume3D:
    """A binary voxel volume. Object voxels are True.

    ``cells`` has shape ``(nz, ny, nx)``; ``cells[z, y, x]`` is the voxel at
    ``(x, y, z)``, so one z-slab is contiguous and x varies fastest in
    memory. ``get`` returns background for out-of-range coordinates.
    """

    __slots__ = ("nx", "ny", "nz", "cells")

    def __init__(self, nx: int, ny: int, nz: int, cells=None):
        if nx <= 0 or ny <= 0 or nz <= 0:
            raise ValueError("volume extents must be positive")
        self.nx = int(nx)
        self.ny = int(ny)
        self.nz = int(nz)
        if cells is None:
            self.cells = np.zeros((self.nz, self.ny, self.nx), dtype=bool)
        else:
            self.cells = _as_bool_grid(cells, (self.nz, self.ny, self.nx))

    @classmethod
    def from_slabs(cls, slabs) -> "Volume3D":
        """Build from an iterable of (ny, nx) slabs, z ascending."""
        a = np.asarray(slabs, dtype=bool)
        if a.ndim != 3:
            raise ValueError("expected a list of rectangular slabs")
        return cls(a.shape[2], a.shape[1], a.shape[0], a)

    def get(self, x: int, y: int, z: int) -> bool:
        if 0 <= x < self.nx and 0 <= y < self.ny and 0 <= z < self.nz:
            return bool(self.cells[z, y, x])
        return False

    @property
    def voxel_count(self) -> int:
        return int(self.cells.sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Volume3D)
            and (self.nx, self.ny, self.nz) == (other.nx, other.ny, other.nz)
            and bool(np.array_equal(self.cells, other.cells))
        )

    def __repr__(self) -> str:
        return f"Volume3D({self.nx}x{self.ny}x{self.nz}, voxels={self.voxel_count})"


@dataclass(frozen=True)
class Labeling:
    """A dense component labeling.

    ``labels`` matches the source grid's shape; background cells hold 0 and
    each component holds one value in ``1..count``. Labels are assigned in
    scan order of each component's first cell, which makes the numbering
    deterministic for a given grid and adjacency.
    """

    labels: np.ndarray
    count: int
    adjacency: Adjacency


# Cells per block of the whole-grid passes over labels, which keep their
# temporaries to a block rather than a grid.
_BLOCK = 1 << 18


def _scan_order_relabel(raw: np.ndarray, count: int) -> np.ndarray:
    """Renumber labels so they increase with each component's first cell.

    ``ndimage.label`` already numbers components this way in practice, so
    the order is first checked in one linear pass, a block of cells at a
    time: it holds when every label is at most one more than the largest
    label before it. Only otherwise are the labels sorted and remapped.
    """
    if count == 0:
        return raw.astype(np.int32)
    flat = raw.ravel()
    top = 0  # the largest label before the block
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        # One more than the largest label up to each cell of the block.
        bound = np.maximum.accumulate(block)
        np.maximum(bound, top, out=bound)
        bound += 1
        if block[0] > top + 1 or not np.all(block[1:] <= bound[:-1]):
            break
        top = int(bound[-1]) - 1
    else:
        return raw.astype(np.int32, copy=False)
    values, first = np.unique(flat, return_index=True)
    keep = values > 0
    values, first = values[keep], first[keep]
    order = np.argsort(first, kind="stable")
    remap = np.zeros(int(values.max()) + 1, dtype=np.int32)
    remap[values[order]] = np.arange(1, count + 1, dtype=np.int32)
    return remap[raw]


def label_components_2d(img: Image2D, adjacency: Adjacency = Adjacency.DIRECT_2D) -> Labeling:
    """Label foreground components of an image. O(n)."""
    if adjacency.ndim != 2:
        raise ValueError("2D labeling requires a 2D adjacency")
    raw, count = ndimage.label(img.cells, structure=adjacency._structure())
    return Labeling(_scan_order_relabel(raw, count), int(count), adjacency)


def _label_sizes(labels: np.ndarray, count: int) -> np.ndarray:
    """Cell count of every label ``0..count``.

    ``np.bincount`` casts its input to intp, so it runs on one block of
    cells at a time rather than on a whole-grid copy twice the size of
    the int32 labels.
    """
    flat = labels.reshape(-1)
    sizes = np.zeros(count + 1, dtype=np.int64)
    for start in range(0, flat.size, _BLOCK):
        sizes += np.bincount(flat[start : start + _BLOCK], minlength=count + 1)
    return sizes


def _count_components(cells: np.ndarray, adjacency: Adjacency) -> int:
    """Number of components, without the scan-order relabel."""
    return int(ndimage.label(cells, structure=adjacency._structure())[1])


def label_components_3d(vol: Volume3D, adjacency: Adjacency = Adjacency.DIRECT_3D) -> Labeling:
    """Label object components of a volume. O(n)."""
    if adjacency.ndim != 3:
        raise ValueError("3D labeling requires a 3D adjacency")
    raw, count = ndimage.label(vol.cells, structure=adjacency._structure())
    return Labeling(_scan_order_relabel(raw, count), int(count), adjacency)


def label_background_2d(img: Image2D, adjacency: Adjacency = Adjacency.DIRECT_2D) -> Labeling:
    """Label background components, including the implicit outer region.

    The outer region (everything connected to the infinite background pad)
    is always label 1. Remaining background components are numbered in scan
    order. ``count`` includes the outer region even when no in-range cell
    belongs to it, so a fully foreground image reports count 1.
    """
    if adjacency.ndim != 2:
        raise ValueError("2D labeling requires a 2D adjacency")
    padded = np.pad(img.cells, 1, constant_values=False)
    raw, count = ndimage.label(~padded, structure=adjacency._structure())
    labels = _scan_order_relabel(raw, count)
    # The pad corner always belongs to the outer region; swap it to label 1.
    outer = int(labels[0, 0])
    if outer != 1:
        swapped = labels.copy()
        swapped[labels == outer] = 1
        swapped[labels == 1] = outer
        labels = swapped
    return Labeling(labels[1:-1, 1:-1].copy(), int(count), adjacency)


def _component_bounds(labels: np.ndarray, component_id: int, count: int):
    if not 1 <= component_id <= count:
        raise NoSuchComponentError(f"no such component: {component_id}")
    idx = np.nonzero(labels == component_id)
    return tuple(slice(int(axis.min()), int(axis.max()) + 1) for axis in idx)


def _pad(cells: np.ndarray) -> np.ndarray:
    """``cells`` inside a frame of one empty cell on every side."""
    # np.pad's fixed cost outweighs a whole classification of a small
    # image; a zeroed frame plus one slice copy does not.
    p = np.zeros(tuple(n + 2 for n in cells.shape), dtype=bool)
    p[(slice(1, -1),) * cells.ndim] = cells
    return p


def _window_codes(p: np.ndarray) -> np.ndarray:
    """The code of every 2x2 (2D) or 2x2x2 (3D) window lying inside the
    boolean grid ``p``; the result is one shorter than ``p`` on each axis.

    ``code[y, x]`` (``code[z, y, x]``) is the window whose minimal cell is
    ``p[y, x]`` (``p[z, y, x]``); bit ``dx + 2*dy`` (``+ 4*dz``) holds its
    cell at offset (dx, dy[, dz]). Callers pad ``p`` themselves: with one
    empty cell on every side (``_pad``) there is one window per vertex.
    """
    code = p.view(np.uint8)
    # Shift-or along x, then y, then z: bits 0-1, 0-3, then all 8.
    shift = 1
    for axis in reversed(range(p.ndim)):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        step = code[hi] << shift
        step |= code[lo]
        code = step
        shift *= 2
    return code


def _box_canvas(labeling: Labeling, component_id: int, box: tuple[slice, ...]):
    """The component inside its bounding ``box``, as ``_component_canvas``
    returns it."""
    region = labeling.labels[box] == component_id
    padded = _pad(region)
    lo = [s.start for s in box]
    if region.ndim == 2:
        grid = Image2D(padded.shape[1], padded.shape[0], padded)
        origin = (lo[1] - 1, lo[0] - 1)
    else:
        grid = Volume3D(padded.shape[2], padded.shape[1], padded.shape[0], padded)
        origin = (lo[2] - 1, lo[1] - 1, lo[0] - 1)
    return grid, origin


def _component_canvas(labeling: Labeling, component_id: int):
    """Extract one component onto a canvas with a 1-cell background pad.

    Returns ``(grid, origin)`` where ``origin`` maps canvas coordinates back
    to the source: source = canvas + origin, per axis in (x, y[, z]) order.
    """
    box = _component_bounds(labeling.labels, component_id, labeling.count)
    return _box_canvas(labeling, component_id, box)


def _component_boxes(labeling: Labeling) -> list[tuple[slice, ...]]:
    """Bounding box of every component, index ``component_id - 1``."""
    return ndimage.find_objects(labeling.labels, max_label=labeling.count)


def _component_canvases(labeling: Labeling):
    """Yield ``(grid, origin)`` for every component in id order, as
    ``_component_canvas`` returns it.

    All boxes come from one ``find_objects`` pass, so extracting every
    component costs one pass over the grid plus the boxes, not one pass
    over the grid per component.
    """
    boxes = _component_boxes(labeling)
    for cid in range(1, labeling.count + 1):
        yield _box_canvas(labeling, cid, boxes[cid - 1])


def extract_component(labeling: Labeling, component_id: int):
    """Copy one component to a fresh grid: tight bounding box plus a 1-cell
    background pad on every side. Raises NoSuchComponentError for ids
    outside ``1..count``."""
    grid, _ = _component_canvas(labeling, component_id)
    return grid


def window2(img: Image2D, x: int, y: int) -> tuple[bool, bool, bool, bool]:
    """The 2x2 cell window anchored at (x, y).

    Order: (x, y), (x+1, y), (x, y+1), (x+1, y+1). Out-of-range reads are
    background, so windows may overhang the border.
    """
    return (img.get(x, y), img.get(x + 1, y), img.get(x, y + 1), img.get(x + 1, y + 1))


def window8(vol: Volume3D, x: int, y: int, z: int) -> tuple[bool, ...]:
    """The 2x2x2 voxel window anchored at (x, y, z).

    Order is scan order within the window: x fastest, then y, then z, i.e.
    (x,y,z), (x+1,y,z), (x,y+1,z), (x+1,y+1,z), then the same four at z+1.
    """
    return tuple(
        vol.get(x + dx, y + dy, z + dz)
        for dz in (0, 1)
        for dy in (0, 1)
        for dx in (0, 1)
    )
