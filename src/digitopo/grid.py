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

Labelling is run-based (after He, Chao and Suzuki, "A run-based
two-scan labeling algorithm", IEEE TIP 2008) and needs only numpy. The
cells of each line along x form runs; a run meets the overlapping runs
of the forward neighbour lines that the adjacency reaches; and the
components of that run graph come from a min-id union with hooking and
pointer jumping (after Shiloach and Vishkin, 1982). Each component's
root is its scan-first run, so the labels come out in scan order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import NoSuchComponentError, RepairDidNotConverge

__all__ = [
    "Adjacency",
    "Image2D",
    "Volume3D",
    "Labeling",
    "label_components_2d",
    "label_components_3d",
    "extract_component",
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
    deterministic for a given grid and adjacency. ``sizes[i]`` counts the
    cells labelled i, index 0 the background: it equals
    ``np.bincount(labels.ravel(), minlength=count + 1)``, counted by the
    labeller from its runs, ``runs``: ``_run_components``' starts, ends
    and label minus one of each.
    """

    labels: np.ndarray
    count: int
    sizes: np.ndarray
    runs: tuple[np.ndarray, np.ndarray, np.ndarray]


class RepairOp(Enum):
    DELETE = "delete"
    ADD = "add"


class RepairReason(Enum):
    SPECKLE = "speckle"
    PATHOLOGY = "pathology-fix"


@dataclass(frozen=True, slots=True)
class RepairAction:
    """One grid edit. ``z`` is None for image edits."""

    x: int
    y: int
    op: RepairOp
    reason: RepairReason
    z: int | None = None


# An edit's row is ``(*index, added, reason)``: its op is ``_OPS[added]``
# and its reason ``_REASONS[reason]``.
_OPS = (RepairOp.DELETE, RepairOp.ADD)
_REASONS = (RepairReason.SPECKLE, RepairReason.PATHOLOGY)
_SPECKLE, _PATHOLOGY = range(2)


def _actions(edits: np.ndarray) -> list[RepairAction]:
    """The ``RepairAction`` of each row ``(*index, added, reason)`` of
    ``edits``, the index in array order: (y, x) or (z, y, x)."""
    out = []
    for *at, added, reason in edits.tolist():
        x, y, *z = reversed(at)
        out.append(RepairAction(x, y, _OPS[added], _REASONS[reason], *z))
    return out


def _jump(parent: np.ndarray) -> np.ndarray:
    """``parent`` with every node pointing at its root."""
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            return parent
        parent = jumped


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Components of the graph on nodes ``0..n-1`` with edges ``(a[i], b[i])``,
    where ``a[i] < b[i]``.

    Returns ``(count, comp)``: ``comp[v]`` numbers v's component by its
    smallest node, so components come in the order of their first node.
    Each round hooks every root under the smallest lower root it shares an
    edge with (``np.minimum.at``), and the hooked roots' pointers jump
    (``parent = parent[parent]``) until each points at a root; the edges
    still between two roots go round again. A node's parent is never
    larger than the node, so each component's root is its smallest node.
    Small graphs take the same rounds: their fixed cost of a few dozen
    array calls is paid once per grid or stack that the driver labels.
    """
    if not a.size:
        return n, np.arange(n, dtype=np.int32)
    parent = np.arange(n)
    while a.size:
        np.minimum.at(parent, b, a)
        # Only the hooked roots moved. Jumping just them costs a scatter,
        # which beats a pass over every node only when few were hooked.
        if 4 * b.size > n:
            parent = _jump(parent)
        else:
            while True:
                top = parent[b]
                jumped = parent[top]
                if np.array_equal(jumped, top):
                    break
                parent[b] = jumped
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        a, b = np.minimum(ra[cross], rb[cross]), np.maximum(ra[cross], rb[cross])
    # A node that was a root in an earlier round still points at the root
    # that round hooked it under.
    parent = _jump(parent)
    ids = (parent == np.arange(n)).cumsum(dtype=np.int32) - 1
    return int(ids[-1]) + 1, ids[parent]


def _runs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of True cells along x of a (nz, ny, nx) grid.

    A run is ``[start, end)`` in keys ``line * (nx + 1) + x`` over lines
    ``z * (ny + 1) + y``: each z-slab has one empty line after its last
    y, so stepping a key by a whole number of lines never reaches a cell
    of another slab that is not a neighbour. Runs come in scan order.
    """
    nz, ny, nx = cells.shape
    p = np.zeros((nz, ny + 1, nx + 2), dtype=bool)
    p[:, :ny, 1:-1] = cells
    # A run starts and ends where a cell differs from the one before it.
    keys = (p[:, :, 1:] != p[:, :, :-1]).reshape(-1).nonzero()[0]
    return keys[0::2], keys[1::2]


def _run_components(cells: np.ndarray, adjacency: Adjacency):
    """Runs of ``cells`` (``_runs``) and their components (``_components``)."""
    cells3 = cells.reshape((1,) * (3 - cells.ndim) + cells.shape)
    _, ny, nx = cells3.shape
    starts, ends = _runs(cells3)
    # Forward neighbour lines, as key steps: (z, y+1), then the 3D ones
    # at z+1 (y-1..y+1 when indirect).
    line = nx + 1
    steps = [line]
    if adjacency.ndim == 3:
        steps += [ny * line, (ny + 1) * line, (ny + 2) * line]
        if adjacency.is_direct:
            steps = steps[::2]
    steps = np.array(steps)[:, None]
    # Runs [s0, e0) and [s1, e1) on neighbour lines meet when they overlap
    # along x, or touch at a corner under indirect adjacency: s1 < e0 +
    # slack and e1 > s0 - slack, with both runs keyed on one line. The
    # runs of a line are sorted, so each run meets a slice of them.
    slack = 0 if adjacency.is_direct else 1
    hi = starts.searchsorted(ends + (steps + slack))
    lo = ends.searchsorted(starts + (steps - slack), side="right").reshape(-1)
    # Query i meets runs lo[i] .. hi[i] - 1; its k-th edge ends at lo[i] + k.
    meets = hi.reshape(-1) - lo
    src = (np.arange(meets.size) % starts.size).repeat(meets)
    dst = (lo - meets.cumsum() + meets).repeat(meets) + np.arange(src.size)
    count, comp = _components(starts.size, src, dst)
    return starts, ends, count, comp


def _label(cells: np.ndarray, adjacency: Adjacency) -> Labeling:
    """Scan-order labels of the True cells of ``cells``, their count and
    each label's cell count (``Labeling``). Raises ValueError for an
    adjacency of another dimension.

    The labels are a fresh C-contiguous int32 array. Cost: O(n) to find
    the runs of n cells, plus O(R log R) numpy work for R runs: a sorted
    search per run and neighbour line, and a union whose pointer jumps
    halve every chain, so a round takes O(log R) jumps of O(R) each. The
    rounds repeat only for edges left between two trees; on the benchmark
    inputs and on the serpentines and spiral of the tests there are one
    to three. The sizes are one bincount over the runs, weighted by their
    lengths, so no pass over the labels counts them.
    """
    if adjacency.ndim != cells.ndim:
        raise ValueError(f"{cells.ndim}D labeling requires a {cells.ndim}D adjacency")
    starts, ends, count, comp = _run_components(cells, adjacency)
    lengths = ends - starts
    # The runs hold the True cells in scan order.
    labels = np.zeros(cells.shape, dtype=np.int32)
    labels[cells] = (comp + 1).repeat(lengths)
    # Weighted, so float; the counts are integers below 2**53 and exact.
    sizes = np.bincount(comp + 1, lengths, minlength=count + 1).astype(np.int64)
    sizes[0] = cells.size - sizes.sum()
    return Labeling(labels, count, sizes, (starts, ends, comp))


def label_components_2d(img: Image2D, adjacency: Adjacency = Adjacency.DIRECT_2D) -> Labeling:
    """Label foreground components of an image (see ``_label``)."""
    return _label(img.cells, adjacency)


def _count_components(cells: np.ndarray, adjacency: Adjacency) -> int:
    """Number of components, without painting the labels."""
    return _run_components(cells, adjacency)[2]


def label_components_3d(vol: Volume3D, adjacency: Adjacency = Adjacency.DIRECT_3D) -> Labeling:
    """Label object components of a volume (see ``_label``)."""
    return _label(vol.cells, adjacency)


def _pad(cells: np.ndarray) -> np.ndarray:
    """``cells`` inside a frame of one empty cell on every side."""
    # np.pad's fixed cost outweighs a whole classification of a small
    # image; a zeroed frame plus one slice copy does not.
    p = np.zeros(tuple(n + 2 for n in cells.shape), dtype=cells.dtype)
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


# Per window code: the bit of its lowest and of its highest set cell.
_LOW_BIT = np.array([(c & -c).bit_length() - 1 for c in range(256)])
_HIGH_BIT = np.array([c.bit_length() - 1 for c in range(256)])


def _window_cells(shape: tuple[int, ...], vertices: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Flat index into a grid of ``shape`` of the cell at bit ``bits`` of
    each window; ``vertices`` are flat indices into the window codes of
    that grid padded by one empty cell (``_pad``, ``_window_codes``),
    whose window at vertex i holds cells i - 1 + d per axis. The bits
    must be set cells (``_LOW_BIT``, ``_HIGH_BIT``), so none is a pad."""
    at = np.unravel_index(vertices, tuple(n + 1 for n in shape))
    top = len(shape) - 1
    return np.ravel_multi_index(
        tuple(i + (bits >> (top - axis) & 1) - 1 for axis, i in enumerate(at)), shape
    )


def _flip(view, strides: tuple, cell) -> None:
    """Toggle the cell at flat index ``cell`` of a padded grid in the
    codes (``_window_codes``) of the 2x2 (2x2x2) windows that hold it:
    ``view`` holds the codes' bytes, ``strides`` are theirs. The window
    at ``cell - d`` holds it at offset d, as bit dx + 2*dy (+ 4*dz), so
    a cell is bit 0 of its own window's code. ``view`` may be the flat
    codes array and ``cell`` an array of distinct cells, which then have
    distinct windows at each offset: no index repeats within one ``^=``
    (which would drop it; ``np.bitwise_xor.at`` costs several times more)."""
    y, bit = strides[-2], 1
    for c in (cell, cell - strides[0])[: len(strides) - 1]:
        view[c] ^= bit
        view[c - 1] ^= bit << 1
        view[c - y] ^= bit << 2
        view[c - y - 1] ^= bit << 3
        bit = 16


def _where(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Ascending flat indices of the uint8 ``codes`` whose entry in
    ``table`` is not 0; a table shorter than 256 entries reads 0 past its
    end."""
    # A 256-byte ``bytes.translate`` table: unlike ``table[codes]`` or
    # ``take``, no intp copy of the codes, and half the time of ``take``
    # on a large grid.
    lut = np.zeros(256, dtype=bool)
    lut[: table.size] = table != 0
    return np.flatnonzero(np.frombuffer(codes.tobytes().translate(lut.tobytes()), dtype=bool))


def _hits(codes: np.ndarray, hits: tuple, order: np.ndarray, at=None) -> list:
    """``(vertex, hit)`` for every hit that ``hits`` lists at the code of
    each vertex (a flat index into ``codes``) whose ``order`` is not 0:
    by ``order``, then in scan order, then in the order of the list. The
    vertices are all of them, or those of ``at``, ascending flat indices."""
    flat = codes.reshape(-1)
    if at is None:
        at = _where(flat, order)
    else:
        at = at[order.take(flat[at]) != 0]
    at = at[np.argsort(order[flat[at]], kind="stable")]
    return [(v, hit) for v, code in zip(at.tolist(), flat[at].tolist()) for hit in hits[code]]


def _repair(cells: np.ndarray, hits: tuple, order: np.ndarray, fix: Callable, canvases=None):
    """Edit ``cells`` until no window code has a hit: ``repair_2d`` and
    ``repair_3d``. Returns the edited copy, its edits (rows of
    ``_actions``, the index into ``cells`` in array order) and its codes,
    ``_window_codes(_pad(copy))``.

    The loop works on those codes alone, computed once and kept current
    by ``_flip``; the copy is their bit 0 (``_flip``). Vertices and cells
    are flat indices into the codes, read through one byte view. A round
    takes the hits of the codes (``_hits``); it re-checks each against
    its window's current code, since an earlier edit may have resolved
    it, and calls ``fix(view, strides, vertex, hit)``, which flips one
    cell of the hit's window through ``_flip`` and returns it. The edit
    is an ADD when the cell is now set, else a DELETE. Rounds repeat
    until no hit is left. Only the first round reads every code: a window
    with a hit at the start of a round was fixed or changed in the round
    before, by an edit of one of its cells, so a later round reads only
    the windows that hold a cell the round before edited.

    The loop is deterministic, so a round that starts from a state
    already seen would repeat forever: it raises ``RepairDidNotConverge``,
    as does a total of more than 4 edits per cell. A state is the set of
    cells edited an odd number of times.

    ``canvases`` cuts ``cells`` along its first axis into canvases,
    ``(rows, cells)`` each (default: one, the whole grid), as
    ``_per_component`` stacks them. A hit window lies in one canvas, and
    its fix reads and flips only cells of that canvas, so each canvas goes
    through the rounds and edits it would alone, with its own state and
    its own cap.
    """
    codes = _window_codes(_pad(cells))
    found = _hits(codes, hits, order)
    if not found:
        return cells.copy(), np.zeros((0, cells.ndim + 2), dtype=np.int64), codes
    view, strides = memoryview(codes).cast("B"), codes.strides
    canvases = canvases or [(len(cells), cells.size)]
    # A hit window holds a cell of its canvas in its first row, row r - 1
    # of ``cells`` at vertex row r: a canvas ends before vertex row stop + 1.
    stops = ((np.cumsum([rows for rows, _ in canvases]) + 1) * strides[0]).tolist()
    left = [4 * size for _, size in canvases]
    odd: list[set] = [set() for _ in canvases]
    seen: list[set] = [set() for _ in canvases]
    edits: list[tuple] = []
    # Cell c is in the windows c - d, d in {0, 1} per axis.
    offsets = np.indices((2,) * cells.ndim).reshape(cells.ndim, -1).T @ strides
    while found:
        owner = [bisect_right(stops, vertex) for vertex, _ in found]
        for k in set(owner):
            state = frozenset(odd[k])
            if state in seen[k]:
                raise RepairDidNotConverge("repair did not converge")
            seen[k].add(state)
        start = len(edits)
        for (vertex, hit), k in zip(found, owner):
            if hit not in hits[view[vertex]]:
                continue
            if not left[k]:
                raise RepairDidNotConverge("repair did not converge")
            left[k] -= 1
            cell = fix(view, strides, vertex, hit)
            odd[k] ^= {cell}
            edits.append((cell, view[cell] & 1))
        # Sorted and deduplicated without ``np.unique``, which imports
        # ``numpy.ma`` on first use.
        at = np.sort((np.array(edits[start:])[:, :1] - offsets).reshape(-1))
        at = at[np.diff(at, prepend=-1) != 0]
        found = _hits(codes, hits, order, at)
    cell, added = np.array(edits, dtype=np.int64).T
    at = (i - 1 for i in np.unravel_index(cell, codes.shape))
    edits = np.column_stack((*at, added, np.full_like(added, _PATHOLOGY)))
    return (codes[(slice(1, None),) * codes.ndim] & 1).view(bool), edits, codes


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` of a 2D integer
    array, the inverse flat: the distinct rows in lexicographic order,
    and the index among them of each row. One ``np.lexsort`` and a
    comparison of neighbours, several times faster on a few thousand
    rows."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return ranked[new], inverse


def _grid_of(cells: np.ndarray):
    """``cells``, (ny, nx) or (nz, ny, nx), as an Image2D or a Volume3D."""
    if cells.ndim == 2:
        return Image2D(cells.shape[1], cells.shape[0], cells)
    return Volume3D(cells.shape[2], cells.shape[1], cells.shape[0], cells)


def _component_canvas(labeling: Labeling, component_id: int, box=None):
    """Extract one component onto a canvas: its bounding box ``box``, one
    slice per array axis (``_component_boxes``; found here when not
    given), in a frame of one empty cell. Raises NoSuchComponentError
    for ids outside ``1..count``."""
    if not 1 <= component_id <= labeling.count:
        raise NoSuchComponentError(f"no such component: {component_id}")
    if box is None:
        box = _component_boxes(labeling, [component_id])[component_id]
    return _grid_of(_pad(labeling.labels[box] == component_id))


def _canvases(labeling: Labeling, ids: list) -> list:
    """``_component_canvas`` of each component in ``ids``, in one box search."""
    boxes = _component_boxes(labeling, ids)
    return [_component_canvas(labeling, i, boxes[i]) for i in ids]


def _component_boxes(labeling: Labeling, ids) -> dict[int, tuple[slice, ...]]:
    """Bounding box of each component in ``ids`` that has a cell, keyed by
    component id: the minima and maxima of the labeller's runs along x
    (``Labeling.runs``) of each. They hold after the 2D scan's edits
    (``topo2d._despeckle``): a fill lies inside its owner's box, and a
    deletion empties a one-pixel component."""
    if not ids:
        return {}
    (starts, ends, comp), labels = labeling.runs, labeling.labels
    _, ny, nx = (1,) * (3 - labels.ndim) + labels.shape
    wanted = np.zeros(labeling.count + 1, dtype=bool)
    wanted[list(ids)] = True
    keep = wanted[comp + 1]
    lab, starts, ends = comp[keep] + 1, starts[keep], ends[keep]
    line = starts // (nx + 1)
    x = starts - line * (nx + 1)
    z, y = np.divmod(line, ny + 1)
    last = ends - line * (nx + 1) - 1
    lows, highs = [y, x], [y, last]
    if labels.ndim == 3:
        lows, highs = [z, *lows], [z, *highs]
    lo = np.full((len(lows), labeling.count + 1), labels.size, dtype=np.int64)
    hi = np.full((len(highs), labeling.count + 1), -1, dtype=np.int64)
    for axis in range(len(lows)):
        np.minimum.at(lo[axis], lab, lows[axis])
        np.maximum.at(hi[axis], lab, highs[axis])
    found = np.flatnonzero((hi[0] >= 0) & (labeling.sizes > 0))
    return {
        cid: tuple(map(slice, start, stop))
        for cid, start, stop in zip(
            found.tolist(), lo[:, found].T.tolist(), (hi[:, found] + 1).T.tolist()
        )
    }


class _Hooks(NamedTuple):
    """What ``_per_component`` does in one dimension: ``topo2d._HOOKS``
    and ``topo3d._HOOKS``: the dimension's rules only, each the same
    call in both dimensions. ``scan``, ``classify``, ``slow`` and
    ``answer`` are the dimension's own functions, as is ``filled`` in 2D;
    in 3D it is None, and every repaired stack is labelled and classified
    again. ``repair`` stays a
    lambda: it looks up ``repair_2d``/``repair_3d`` when it runs, so
    that the traced entry points see the driver's repairs too. A piece's
    answer is a list of integer rows of one format per dimension,
    whichever route gave it. A table is ``(ok, cuts, rows)`` over the
    labels of a labeling: label i's rows are ``rows[cuts[i]:cuts[i +
    1]]``, its answer where ``ok[i]`` holds."""

    capture: Adjacency  # the components reported and repaired
    pieces: Adjacency  # the pieces of a canvas
    # (the padded grid's codes, labeling) -> (dirty components' ids,
    # ascending, (owner of each edit, edits as rows of ``_actions``), the
    # grid's table or None). It edits the codes and the labeling only.
    scan: Callable
    classify: Callable  # (codes, labels, count) -> the table of every label
    # (rows, codes, cells, owner) -> rows: the rows of the canvases of a
    # stack that repair only filled, each one piece, from their rows in the
    # grid's table, the stack's codes and the fills (``_per_component``).
    filled: Callable | None
    # (stack, canvases) -> (stack, edits, codes): ``_repair`` of a stack
    # of canvases, ``(rows, cells)`` each, through ``repair_2d``/``repair_3d``.
    repair: Callable
    slow: Callable  # (piece, fallback_oracle, component_id) -> its rows
    answer: Callable  # (a distinct list of rows) -> its answer
    report: Callable  # (component_id, size, answer, edits) -> report


class _Columns(NamedTuple):
    """``_per_component``'s answers, one entry per piece in report order."""

    sizes: np.ndarray  # its cells
    answer: np.ndarray  # its index into ``answers``
    answers: list
    edits: np.ndarray  # (start, stop) of its component's edits in ``log``
    log: np.ndarray  # every edit, a row of ``_actions`` in source coordinates
    pieces: list | None  # per table, with ``keep_pieces``: see ``_per_component``


def _distinct_lists(lengths: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, list]:
    """The distinct lists of integer rows among lists given by their
    lengths and their rows in turn: the index of each among them, and
    each distinct list as a list of rows. One ``_distinct_rows`` call per
    length, over the lists of that length laid out as one row each."""
    width = rows.shape[1]
    starts, index, distinct = lengths.cumsum() - lengths, np.empty(len(lengths), np.intp), []
    for n in np.flatnonzero(np.bincount(lengths)).tolist():
        at = np.flatnonzero(lengths == n)
        lists, which = _distinct_rows(rows[starts[at, None] + np.arange(n)].reshape(len(at), -1))
        index[at] = which + len(distinct)
        distinct += lists.reshape(len(lists), n, width).tolist()
    return index, distinct


def _stack_groups(shapes: dict, cells: int) -> list[list]:
    """The ids of ``shapes``, which maps each dirty component to the
    extents of its canvas in array order, in stacks, each in the order of
    ``shapes``: one stack when the canvases, one above another and padded
    to their largest extents, hold no more than ``cells``, the grid's
    cells; else one per class of canvases whose extents after the first
    round up to the same powers of two."""
    if not shapes:
        return []
    extents = np.array(list(shapes.values()))
    if extents[:, 0].sum() * extents[:, 1:].max(axis=0).prod() <= cells:
        return [list(shapes)]
    groups: dict[tuple[int, ...], list] = {}
    for cid, shape in shapes.items():
        key = tuple(1 << (n - 1).bit_length() for n in shape[1:])
        groups.setdefault(key, []).append(cid)
    return list(groups.values())


def _per_component(hooks: _Hooks, grid, repair=True, fallback_oracle=True, keep_pieces=False):
    """Answer each component of ``grid`` as if it were cut alone onto a
    padded canvas, repaired there, relabelled into pieces and each piece
    classified: ``holes_pipeline``, ``analyze_volume``, ``holes``,
    ``homology`` and ``validate``, with the ``hooks`` of their dimension.
    Returns ``_Columns``: the pieces in component order, the log in
    source coordinates (per component in id order, its scan edits and
    then its repair edits, moved by its canvas origin), and with
    ``keep_pieces``, per table, its labeling, its pieces' labels and
    their places in report order (``validate`` checks them there).

    The work is done per grid, not per component. Every answer is read
    from 2x2 (2x2x2) windows, whose object cells are adjacent through the
    window under the capture adjacency (26 in 3D; 4 in 2D, unless they
    are a diagonal pair, which is an outward corner of each of its two
    components, as on their canvases). So a window lies in one component
    and reads the same on the grid as on that component's canvas. Hence:

    * one labelling and one scan of the grid's window codes find the
      dirty components, those with a pathological window of their own;
    * a clean component is one piece that repair leaves alone, and one
      classification of the same codes answers for all of them;
    * the dirty components are cut straight into canvases stacked along
      the slowest axis (y in 2D, z in 3D): all in one stack when it,
      padded to the canvases' largest extents, holds no more cells than
      the grid, else in groups whose other extents round up to the same
      powers of two (``_stack_groups``). Each stack is repaired once
      (``_repair``, every canvas apart, with its own checks). Every
      stack is repaired before anything is classified, so a repair
      cycle raises first;
    * a 2D stack whose edits all add a cell is neither labelled nor
      classified again (unless ``keep_pieces``, whose tables need its
      labels). A fill sets a background cell of a diagonal window, which
      is 4-adjacent to both of its pixels, so each canvas stays one
      piece: its component's row in the grid's table, plus what its
      fills changed in the windows and pixels around them (``filled``).
      Any other repaired stack is labelled once and classified once from
      the codes its repair kept; an unrepaired one is only labelled, as
      ``slow`` answers its pieces. The one-cell frames keep two
      canvases' objects and windows apart, and scan order visits one
      canvas after another, so a stack's labels number each canvas's
      pieces as labelling that canvas alone would;
    * the answers stay integer rows until one ``_distinct_lists`` call
      gives each piece its distinct answer, and ``answer`` makes each
      distinct list into objects once. A piece without an answer in
      its table, and every piece of an unrepaired canvas, gets its rows
      from ``slow``, in report order, so the first piece that raises is
      the one a loop over components would.
    """
    label = label_components_2d if grid.cells.ndim == 2 else label_components_3d
    labeling = label(grid, hooks.capture)
    codes = _window_codes(_pad(grid.cells))
    dirty, scanned, table = hooks.scan(codes, labeling)
    boxes = _component_boxes(labeling, dirty.tolist())
    # A dirty component's canvas is its box in a frame of one empty cell.
    shapes = {cid: [s.stop - s.start + 2 for s in boxes[cid]] for cid in dirty.tolist()}
    stacks, logs = [], [scanned]
    for members in _stack_groups(shapes, grid.cells.size):
        extents = np.array([shapes[cid] for cid in members])
        starts = np.concatenate(([0], extents[:, 0].cumsum()))
        stack = np.zeros((starts[-1], *extents[:, 1:].max(axis=0)), dtype=bool)
        for cid, start, (rows, *shape) in zip(members, starts.tolist(), extents.tolist()):
            inside = (slice(start + 1, start + rows - 1), *(slice(1, n - 1) for n in shape))
            stack[inside] = labeling.labels[boxes[cid]] == cid
        coded = fills = None
        if repair:
            split = list(zip(extents[:, 0].tolist(), extents.prod(axis=1).tolist()))
            stack, edits, coded = hooks.repair(_grid_of(stack), split)
            stack = stack.cells
            # Each edit moves by the origin of the canvas whose rows hold it.
            owner = np.searchsorted(starts, edits[:, 0], side="right") - 1
            if hooks.filled and not keep_pieces and edits[:, -2].all():
                fills = np.ravel_multi_index(tuple(edits[:, :-2].T + 1), coded.shape), owner
            shifts = np.array([[s.start - 1 for s in boxes[cid]] for cid in members])
            shifts[:, 0] -= starts[:-1]
            edits[:, :-2] += shifts[owner]
            logs.append((np.array(members)[owner], edits))
        stacks.append((np.array(members), starts, stack, coded, fills))
    if table is None:  # classified after every repair: a cycle raises first
        table = hooks.classify(codes, labeling.labels, labeling.count)
    del codes

    def tables():
        """Each table, its labeling (None for a stack not labelled), its
        pieces' labels, their components and their sizes: the grid's
        clean components, then each stack's."""
        clean = labeling.sizes > 0
        clean[0] = clean[dirty] = False
        clean = np.flatnonzero(clean)
        yield table, labeling, clean, clean, labeling.sizes[clean]
        while stacks:  # popped, so that a stack is freed once it is answered
            members, starts, stack, coded, fills = stacks.pop()
            if fills is not None:  # canvas i is one piece, label i + 1
                n = len(members)
                found = hooks.filled(table[2][table[1][members]], coded, *fills)
                # Label 0, the background, has no row.
                found = np.ones(n + 1, dtype=bool), np.arange(-1, n + 1).clip(0), found
                size = labeling.sizes[members] + np.bincount(fills[1], minlength=n)
                yield found, None, np.arange(1, n + 1), members, size
                continue
            pieces = label(_grid_of(stack), hooks.pieces)
            ids = np.arange(1, pieces.count + 1)
            # Labels rise in scan order, so each canvas holds the labels up
            # to the largest one in its rows.
            last = pieces.labels.reshape(len(stack), -1).max(axis=1)
            last = np.maximum.accumulate(np.maximum.reduceat(last, starts[:-1]))
            owners = members.repeat(np.diff(last, prepend=0))
            if repair:
                found = hooks.classify(coded, pieces.labels, pieces.count)
            else:  # an unrepaired canvas answers no piece
                found = np.zeros(ids.size + 1, bool), np.zeros(ids.size + 2, int), table[2][:0]
            yield found, pieces, ids, owners, pieces.sizes[ids]

    # The tables join into one over all their labels, one per piece. A
    # piece that its table does not answer is cut out alone, by label.
    oks, cuts, rows, cid, lab, sizes, canvases, kept = [], [], [], [], [], [], {}, []
    for (ok, table_cuts, table_rows), source, ids, owners, size in tables():
        base = sum(map(len, oks))
        oks.append(ok)
        cuts.append(table_cuts[:-1] + sum(map(len, rows)))
        rows.append(table_rows)
        cid.append(owners)
        lab.append(ids + base)
        sizes.append(size)
        cut = ids[~ok[ids]].tolist()
        canvases.update(zip((base + i for i in cut), _canvases(source, cut)))
        if keep_pieces:
            kept.append((source, ids))
    cuts.append([sum(map(len, rows))])
    oks, cuts = np.concatenate(oks), np.concatenate(cuts)
    order = np.lexsort((np.concatenate(lab), np.concatenate(cid)))
    cid, lab, sizes = (np.concatenate(c)[order] for c in (cid, lab, sizes))

    # Each piece's rows: its run of the joined rows, or the rows ``slow``
    # gives it, appended to them in report order.
    first, count, n = cuts[lab], cuts[lab + 1] - cuts[lab], int(cuts[-1])
    for i in np.flatnonzero(~oks[lab]).tolist():
        rows.append(hooks.slow(canvases[lab[i]], fallback_oracle, i + 1))
        first[i], count[i] = n, len(rows[-1])
        n += count[i]
    at = np.arange(count.sum()) + (first - (count.cumsum() - count)).repeat(count)
    answer, lists = _distinct_lists(count, np.concatenate(rows)[at])

    owners, log = (np.concatenate(c) for c in zip(*logs))
    # A stable sort by owner: each component's scan edits, then its repair edits.
    by_owner = np.argsort(owners, kind="stable")
    owners, log = owners[by_owner], log[by_owner]
    edits = np.stack((owners.searchsorted(cid), owners.searchsorted(cid, side="right")), axis=1)
    pieces = None
    if keep_pieces:  # each table's pieces' places in report order: ``order``'s inverse
        places = np.split(np.argsort(order), np.cumsum([len(ids) for _, ids in kept])[:-1])
        pieces = [(*table, at) for table, at in zip(kept, places)]
    return _Columns(sizes, answer, list(map(hooks.answer, lists)), edits, log, pieces)


def _analyze(hooks: _Hooks, grid, repair=True, fallback_oracle=True):
    """``_per_component`` as the public API gives it: ``(reports,
    actions)``, one report per piece, each with its component's edits,
    and the log as ``RepairAction``s. ``holes_pipeline`` and
    ``analyze_volume`` return it as it is."""
    found = _per_component(hooks, grid, repair, fallback_oracle)
    actions = _actions(found.log)
    rows = zip(found.sizes.tolist(), found.answer.tolist(), found.edits.tolist())
    reports = [
        hooks.report(n, size, found.answers[a], tuple(actions[i:j]))
        for n, (size, a, (i, j)) in enumerate(rows, 1)
    ]
    return reports, actions


def extract_component(labeling: Labeling, component_id: int):
    """Copy one component to a fresh grid: tight bounding box plus a 1-cell
    background pad on every side. Raises NoSuchComponentError for ids
    outside ``1..count``."""
    return _component_canvas(labeling, component_id)

