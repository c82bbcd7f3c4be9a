"""Genus and homology of voxel objects via surface point classification.

The boundary of a voxel set is examined on the dual vertex grid: a grid
vertex is a surface point when the up-to-eight voxels incident to it
include both object and background. Two surface points are surface
neighbors when the grid edge between them is a surface edge, i.e. the
up-to-four voxels incident to that edge again include both object and
background.

On a well-composed object every surface point has 3 to 6 surface
neighbors, and counting the points of each kind determines the genus of
each closed boundary surface:

    g = 1 + (m5 + 2*m6 - m3) / 8

Well-composedness can fail in exactly three local patterns: two object
voxels sharing only a grid vertex, two sharing only a grid edge, and the
complement form of the vertex case (six object voxels around a vertex with
the two remaining antipodal voxels empty). ``repair_3d`` removes all three
by local edits before any surface is classified.

Homology of a connected voxel object follows from its boundary surfaces:
b0 = 1, b1 is the total genus over all boundary surfaces, b2 is the number
of boundary surfaces minus one (cavities), and b3 = 0.

Everything above is local to the eight voxels around one grid vertex, and
is read from their 8-bit code (``grid._window_codes``; bit
``dx + 2*dy + 4*dz`` holds voxel (dx, dy, dz), the bit quads of Gray,
1971, one dimension up). With the grid padded by one empty voxel on every
side, each vertex has one code, and it gives:

* the surface point: the code is neither 0 nor 255;
* its surface edges: the edge toward -axis (+axis) is incident to the
  window's half at offset 0 (1) along that axis, and is a surface edge
  when that half is mixed; ``_UP_EDGES`` holds those toward +x, +y, +z;
* its neighbor count, ``_DEGREE``: the number of mixed halves;
* the pathological windows, from tables mapping a code to the windows it
  anchors: the vertex and complement patterns of the whole window, and
  the edge patterns of its three low faces. With the frame, every voxel
  is the minimal voxel of one window, so edge windows on the last layer
  of an axis are seen too. Repair works on these codes alone, keeping
  them current through each edit (``grid._repair``).

The eight voxels are pairwise 26-adjacent, so their object voxels belong
to one 26-component; ``grid._per_component`` builds ``analyze_volume`` on
this.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import InvalidSurfaceError, _SurfaceFormulaRefused
from .grid import (
    Adjacency,
    Labeling,
    RepairAction,
    Volume3D,
    _Hooks,
    _LOW_BIT,
    _actions,
    _analyze,
    _components,
    _count_components,
    _flip,
    _hits,
    _pad,
    _per_component,
    _repair,
    _where,
    _window_cells,
    _window_codes,
)
from .oracle import _surface_components

__all__ = [
    "Pathology3DKind",
    "Pathology3D",
    "SurfacePointSet",
    "SurfaceHistogram",
    "SurfaceReport",
    "TopoReport3D",
    "find_pathologies_3d",
    "repair_3d",
    "to_point_space",
    "split_surface_components",
    "classify_surface",
    "genus",
    "homology",
    "analyze_volume",
]


class Pathology3DKind(Enum):
    """The three local patterns that break well-composedness."""

    VERTEX_PAIR = "vertex-pair"
    EDGE_PAIR = "edge-pair"
    COMPLEMENT_VERTEX_PAIR = "complement-vertex-pair"


@dataclass(frozen=True)
class Pathology3D:
    """A pathological window anchored at its minimum (x, y, z) voxel.

    ``pair`` holds the two decisive voxels: the object pair for the vertex
    and edge kinds, the empty antipodal pair for the complement kind.
    ``axis`` is the direction of the shared edge for EDGE_PAIR windows.
    """

    x: int
    y: int
    z: int
    kind: Pathology3DKind
    pair: tuple[tuple[int, int, int], tuple[int, int, int]]
    axis: int | None = None


@dataclass(frozen=True, slots=True)
class SurfaceHistogram:
    """Surface point counts by number of surface neighbors.

    ``irregular`` counts points with fewer than 3 neighbors, which occur
    only on objects that are not well-composed. More than 6 is impossible:
    a vertex has only six incident grid edges.
    """

    m3: int
    m4: int
    m5: int
    m6: int
    irregular: int = 0

    @property
    def total(self) -> int:
        return self.m3 + self.m4 + self.m5 + self.m6 + self.irregular


class SurfacePointSet:
    """Surface points of a volume on the dual vertex grid.

    ``_codes`` holds the window code of every vertex of the volume's grid
    (see the module docstring), shared by the parts of a split; each
    point's surface edges and neighbor count are read from it. ``_ids``
    holds the points' flat indices into ``_codes``, in ascending order.
    ``mask``, a boolean array over the (nx+1, ny+1, nz+1) vertex grid
    indexed ``mask[vz, vy, vx]``, and ``points``, the (x, y, z) tuples,
    are built from them when read.
    """

    __slots__ = ("_codes", "_ids")

    def __init__(self, codes: np.ndarray, ids: np.ndarray):
        self._codes = codes
        self._ids = ids

    @property
    def mask(self) -> np.ndarray:
        mask = np.zeros(self._codes.shape, dtype=bool)
        mask.ravel()[self._ids] = True
        return mask

    @property
    def points(self) -> set[tuple[int, int, int]]:
        zs, ys, xs = np.unravel_index(self._ids, self._codes.shape)
        return {
            (int(x), int(y), int(z))
            for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist())
        }

    def __len__(self) -> int:
        return int(self._ids.size)

    def __repr__(self) -> str:
        return f"SurfacePointSet({len(self)} points)"


@dataclass(frozen=True, slots=True)
class SurfaceReport:
    """Classification result for one closed boundary surface."""

    points: int
    histogram: SurfaceHistogram
    genus: int
    euler_characteristic: int
    method: str  # "formula" or "euler-oracle"


@dataclass(frozen=True, slots=True)
class TopoReport3D:
    """Topological summary of one connected voxel component.

    ``repair_actions`` is the whole repair log, in source coordinates, of
    the 26-component the piece was cut from: every piece of one component
    carries the same log, as the JSON output always has.
    """

    component_id: int
    voxel_count: int
    boundary_surfaces: tuple[SurfaceReport, ...]
    betti: tuple[int, int, int, int]
    repair_actions: tuple[RepairAction, ...] = ()


# ---------------------------------------------------------------------------
# pathology detection


_ANTIPODAL = (
    ((0, 0, 0), (1, 1, 1)),
    ((1, 0, 0), (0, 1, 1)),
    ((0, 1, 0), (1, 0, 1)),
    ((0, 0, 1), (1, 1, 0)),
)

# Voxel offsets (dx, dy, dz) of a 2x2x2 window, in scan order.
_CUBE = tuple((dx, dy, dz) for dz in (0, 1) for dy in (0, 1) for dx in (0, 1))

# The two unit offsets spanning the 2x2 voxel block around an edge along
# x, y and z.
_EDGE_SPANS = (
    ((0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0)),
)


def _bit(off) -> int:
    """The bit of voxel ``off`` (dx, dy, dz) in a window code."""
    dx, dy, dz = off
    return 1 << (dx + 2 * dy + 4 * dz)


def _code_hits() -> tuple:
    """Per window code, ``(kind, pair, axis)`` of every pathological window
    it anchors.

    Vertex and complement windows are the whole window: exactly their
    pair, or all but their pair, is object. An edge window is a 2x2 block
    perpendicular to the edge axis with exactly its two diagonal voxels
    object; only the block on the window's low face along that axis is
    anchored at the window. A face of a vertex or complement window never
    holds exactly two diagonal object voxels, so each list is a single
    vertex or complement window, or edge windows in axis order.
    """
    hits: list[list] = [[] for _ in range(256)]
    for a, b in _ANTIPODAL:
        pair = _bit(a) | _bit(b)
        hits[pair].append((Pathology3DKind.VERTEX_PAIR, (a, b), None))
        hits[255 ^ pair].append((Pathology3DKind.COMPLEMENT_VERTEX_PAIR, (a, b), None))
    for axis, (u, v) in enumerate(_EDGE_SPANS):
        uv = tuple(i + j for i, j in zip(u, v))
        face = _bit((0, 0, 0)) | _bit(u) | _bit(v) | _bit(uv)
        for a, b in (((0, 0, 0), uv), (u, v)):
            pair = _bit(a) | _bit(b)
            for code in range(256):
                if code & face == pair:
                    hits[code].append((Pathology3DKind.EDGE_PAIR, (a, b), axis))
    return tuple(tuple(h) for h in hits)


# Per window code: the windows it anchors, whether there are any, and
# the pass of a repair round that takes them (complement windows first).
_CODE_HITS = _code_hits()
_CODE_DIRTY = np.array([bool(hits) for hits in _CODE_HITS])
_CODE_PASS = np.array(
    [
        0 if not hits else 1 if hits[0][0] is Pathology3DKind.COMPLEMENT_VERTEX_PAIR else 2
        for hits in _CODE_HITS
    ],
    dtype=np.uint8,
)


def _surface_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per vertex code: its number of surface edges, and its surface edges
    toward +x, +y and +z as bits 0, 1 and 2.

    The edge toward -axis (+axis) is incident to the window half at offset
    0 (1) along that axis; it is a surface edge when the half is mixed.
    """
    codes = np.arange(256)
    degree = np.zeros(256, dtype=np.int8)
    up = np.zeros(256, dtype=np.uint8)
    for axis in range(3):
        for side in (0, 1):
            half = sum(_bit(off) for off in _CUBE if off[axis] == side)
            bits = codes & half
            mixed = (bits != 0) & (bits != half)
            degree += mixed
            if side:
                up |= mixed.astype(np.uint8) << axis
    return degree, up


_DEGREE, _UP_EDGES = _surface_tables()


def find_pathologies_3d(vol: Volume3D) -> list[Pathology3D]:
    """All pathological windows, ordered by anchor in scan order.

    One pass builds the 8-bit code of every 2x2x2 window of the padded
    grid; a 256-entry table marks the codes anchoring a pathology, and a
    second one lists those windows per code. Windows sharing an anchor
    come vertex pairs first, then edge pairs by axis, then complement
    pairs. An edge window is anchored at its minimum voxel, as the low
    face of the window there.
    """
    codes = _window_codes(_pad(vol.cells))
    hits = _hits(codes, _CODE_HITS, _CODE_DIRTY)
    # Vertex (z, y, x) anchors the window at voxel (x - 1, y - 1, z - 1).
    at = np.unravel_index(np.array([v for v, _ in hits], dtype=np.intp), codes.shape)
    found = []
    for (z, y, x), (_, (kind, (a, b), axis)) in zip((np.column_stack(at) - 1).tolist(), hits):
        pair = ((x + a[0], y + a[1], z + a[2]), (x + b[0], y + b[1], z + b[2]))
        found.append(Pathology3D(x, y, z, kind, pair, axis))
    return found


# ---------------------------------------------------------------------------
# repair


def repair_3d(vol: Volume3D, *, _canvases=None) -> tuple[Volume3D, list[RepairAction]]:
    """Edit the volume until no pathological window remains.

    Each round applies fills for complement windows first, then deletions
    for vertex and edge pairs, re-verifying each window before acting since
    earlier edits may have resolved it. Rounds repeat until clean, with a
    hard cap of 4 * nx * ny * nz total actions (``grid._repair``).

    The greedy rules can oscillate: a fill may complete a pair whose
    deletion restores the filled voxel. The loop is deterministic, so a
    repeated grid state proves the cap will be exceeded; it is reported
    immediately instead of grinding out the remaining actions.

    ``grid._per_component`` passes a stack of canvases as ``vol`` and
    their extents as ``_canvases``, and gets back ``grid._repair``'s
    rows of edits, not actions, and its codes as a third item.
    """
    cells, edits, codes = _repair(vol.cells, _CODE_HITS, _CODE_PASS, _fix_window, _canvases)
    vol = Volume3D(vol.nx, vol.ny, vol.nz, cells)
    return (vol, edits, codes) if _canvases else (vol, _actions(edits))


# Per window code: the set face neighbours of its minimal voxel toward +x,
# +y and +z (bits 1, 2 and 4), and of its maximal voxel toward -x, -y and
# -z (bits 6, 5 and 3).
_UP_FACES = tuple(int.bit_count(code & 0b00010110) for code in range(256))
_DOWN_FACES = tuple(int.bit_count(code & 0b01101000) for code in range(256))


# Per voxel pair of a hit: its index offsets (dz, dy, dx), scan-first first.
_PAIR_AT = {pair: tuple(sorted(off[::-1] for off in pair)) for h in _CODE_HITS for _, pair, _ in h}


def _face_degree(view: memoryview, strides: tuple, cell: int) -> int:
    """The set face neighbours of the voxel at flat index ``cell`` of a
    padded volume, read from its codes (``grid._flip``'s ``view`` and
    ``strides``): the minimal voxel of the window at ``cell`` and the
    maximal one of the window one vertex below."""
    return _UP_FACES[view[cell]] + _DOWN_FACES[view[cell - sum(strides)]]


def _fix_window(view: memoryview, strides: tuple, vertex: int, hit) -> int:
    """``repair_3d``'s edit of the pathological window ``hit`` at the
    flat ``vertex`` of a padded volume's codes, ``view`` with
    ``strides`` (``grid._repair``): it flips one voxel through ``_flip``
    and returns its flat index.

    A complement window gets the empty voxel of its pair that shares the
    most faces with the set, the scan-first on a tie; any other loses the
    object voxel of its pair that shares the fewest, the scan-later on a
    tie.
    """
    kind, pair, _ = hit
    sz, sy, _ = strides
    (az, ay, ax), (bz, by, bx) = _PAIR_AT[pair]
    a, b = vertex + az * sz + ay * sy + ax, vertex + bz * sz + by * sy + bx
    da, db = _face_degree(view, strides, a), _face_degree(view, strides, b)
    if kind is Pathology3DKind.COMPLEMENT_VERTEX_PAIR:
        cell = b if db > da else a
    else:
        cell = a if da < db else b
    _flip(view, strides, cell)
    return cell


# ---------------------------------------------------------------------------
# surface extraction and classification


def _surface_mask(codes: np.ndarray) -> np.ndarray:
    """Which codes are surface points: neither all empty nor all object."""
    # Two comparisons beat a 256-entry boolean lookup on large grids.
    return (codes != 0) & (codes != 255)


def to_point_space(vol: Volume3D) -> SurfacePointSet:
    """All surface points of a volume on the dual vertex grid."""
    codes = _window_codes(_pad(vol.cells))
    return SurfacePointSet(codes, np.flatnonzero(_surface_mask(codes)))


def _surface_histogram(bins) -> SurfaceHistogram:
    """The histogram of a bincount of surface points by neighbor count."""
    return SurfaceHistogram(
        m3=int(bins[3]),
        m4=int(bins[4]),
        m5=int(bins[5]),
        m6=int(bins[6]),
        irregular=int(bins[0] + bins[1] + bins[2]),
    )


def _surface_graph(node_ids: np.ndarray, codes: np.ndarray):
    """The surface-edge components of the points ``node_ids``, flat vertex
    indices into ``codes`` in ascending order.

    ``codes`` are the vertex codes of the whole grid. Returns
    ``(node_ids, count, labels)``: the points, the number of components
    and each point's component, numbered by its smallest point. Edges are
    read from the points' own codes, and a surface edge joins two points
    of one surface, so when the points are a union of surfaces the edges
    never leave them.

    The points are joined a line at a time, as the labeller joins runs:
    O(P) for P points, plus a search and a union over the C chains. A
    point's edge toward +x ends at the next vertex, a surface point and
    so the next point (the frame keeps it on its line), so each run of
    +x edges is one chain of consecutive points, numbered by a cumulative
    sum. An edge toward +y or +z ends in the chain with the last first
    point not past its end, and the union joins chains, with the repeats
    of consecutive edges dropped. Chains ascend, so a component's first
    chain holds its smallest point.
    """
    up = _UP_EDGES[codes.ravel()[node_ids]]
    _, ny1, nx1 = codes.shape
    # A point starts a chain unless the point before it has a +x edge.
    starts = np.ones(node_ids.size, dtype=bool)
    starts[1:] = (up[:-1] & 1) == 0
    chain = starts.cumsum() - 1
    firsts = node_ids[starts]
    a, b = [], []
    for bit, step in ((2, nx1), (4, ny1 * nx1)):
        rows = np.flatnonzero(up & bit)
        ca = chain[rows]
        cb = firsts.searchsorted(node_ids[rows] + step, side="right") - 1
        # Neighbouring points of one chain often reach the same chain.
        new = np.ones(rows.size, dtype=bool)
        new[1:] = (ca[1:] != ca[:-1]) | (cb[1:] != cb[:-1])
        a.append(ca[new])
        b.append(cb[new])
    count, labels = _components(firsts.size, np.concatenate(a), np.concatenate(b))
    return node_ids, count, labels[chain]


def split_surface_components(s: SurfacePointSet) -> list[SurfacePointSet]:
    """Partition surface points by surface-edge connectivity.

    Components are ordered by their minimal vertex in scan order. Each
    part holds its points' flat vertex indices, not a mask of the grid.
    """
    if not s._ids.size:
        return []
    node_ids, count, labels = _surface_graph(s._ids, s._codes)
    # Components are numbered by their first node and node_ids ascend, so
    # they come by minimal vertex, and a stable sort keeps each one's
    # points ascending.
    members = node_ids[np.argsort(labels, kind="stable")]
    cuts = np.bincount(labels, minlength=count).cumsum()[:-1]
    return [SurfacePointSet(s._codes, ids) for ids in np.split(members, cuts)]


# A surface row's method: its index here.
_METHODS = ("formula", "euler-oracle")
_FORMULA, _ORACLE = range(2)


def _surface_rows(codes: np.ndarray, labels: np.ndarray, count: int):
    """The table (``grid._Hooks``) of the surfaces of every label, from the
    padded grid's ``codes``: a row per surface, by minimal vertex, of its
    bincount of points by neighbor count, its genus and its method
    (``_METHODS``); ``ok`` is False where one fails ``genus``'s test, here
    on arrays, and its genus means nothing. ``labels`` must keep
    26-adjacent voxels under one label; a surface belongs to the label of
    the voxels around its minimal vertex, read at its lowest object voxel."""
    node_ids, n, comp = _surface_graph(np.flatnonzero(_surface_mask(codes)), codes)
    counts = _DEGREE[codes.ravel()[node_ids]]
    # node_ids is ascending and surfaces are numbered by their first node,
    # so a surface's first node, its minimal vertex in scan order, is where
    # the running maximum of ``comp`` rises.
    top = np.maximum.accumulate(comp)
    rises = np.ones(comp.size, dtype=bool)
    rises[1:] = top[1:] != top[:-1]
    first = node_ids[rises]
    low = _window_cells(labels.shape, first, _LOW_BIT[codes.ravel()[first]])
    # Stable, so each label's surfaces keep the order of their first nodes.
    by_owner = np.argsort(labels.reshape(-1)[low], kind="stable")
    owner = labels.reshape(-1)[low][by_owner]
    bins = np.bincount(comp * 7 + counts, minlength=7 * n).reshape(n, 7)[by_owner]
    num = bins[:, 5] + 2 * bins[:, 6] - bins[:, 3]
    ok = np.ones(count + 1, dtype=bool)
    ok[owner[bins[:, :3].any(axis=1) | (num % 8 != 0) | (num < -8)]] = False
    rows = np.column_stack((bins, 1 + num // 8, np.full(n, _FORMULA)))
    return ok, owner.searchsorted(np.arange(count + 2)), rows


def classify_surface(s: SurfacePointSet) -> SurfaceHistogram:
    """Histogram of surface neighbor counts over one point set."""
    return _surface_histogram(np.bincount(_DEGREE[s._codes.ravel()[s._ids]], minlength=7))


def genus(hist: SurfaceHistogram) -> int:
    """Genus of a closed digital surface from its point histogram.

    Valid surfaces have no irregular points and a numerator divisible
    by 8; anything else is rejected. A histogram with no point is not a
    surface (a volume with no object voxel has none) and is rejected too.
    """
    if not hist.total:
        raise InvalidSurfaceError("no digital surface: the histogram has no point")
    num = hist.m5 + 2 * hist.m6 - hist.m3
    # A genus below 0 needs num < -8.
    if hist.irregular or num % 8 or num < -8:
        raise InvalidSurfaceError("not a valid digital surface")
    return 1 + num // 8


def _answer(rows) -> tuple[tuple[SurfaceReport, ...], tuple[int, int, int, int]]:
    """``(surfaces, betti)`` of a component from its surface rows: each
    one's bincount of points by neighbor count, its genus and its method."""
    surfaces = tuple(
        SurfaceReport(sum(bins), _surface_histogram(bins), g, 2 - 2 * g, _METHODS[method])
        for *bins, g, method in rows
    )
    return surfaces, (1, sum(s.genus for s in surfaces), len(surfaces) - 1, 0)


def _piece_rows(vol: Volume3D, fallback_oracle: bool = True, _component_id: int = 1):
    """The surface rows (``_surface_rows``) of one connected component:
    the formula's, or, when any surface fails ``genus``'s test, the
    boundary-face Euler characteristic's for every surface. With the
    fallback off, that raises before the oracle runs."""
    codes = _window_codes(_pad(vol.cells))
    # The cells as labels: every surface belongs to label 1.
    ok, _, rows = _surface_rows(codes, vol.cells.view(np.uint8), 1)
    if ok[1]:
        return rows
    if not fallback_oracle:
        raise _SurfaceFormulaRefused("not a valid digital surface")
    rows = []
    for summary, (vx, vy, vz) in _surface_components(vol.cells.view(np.uint8), [1])[0]:
        if summary.chi % 2 != 0:
            raise InvalidSurfaceError("non-orientable or non-manifold boundary")
        bins = np.bincount(_DEGREE[codes[vz, vy, vx]], minlength=7).tolist()
        rows.append([*bins, (2 - summary.chi) // 2, _ORACLE])
    return np.array(rows, dtype=np.int64)


def homology(vol: Volume3D, fallback_oracle: bool = True) -> TopoReport3D:
    """Betti numbers of one connected, repaired voxel component, reported
    as component 1 with no repair edits.

    When any boundary surface fails to classify (irregular points or a
    non-divisible histogram, both signs of a non-well-composed input) and
    the oracle fallback is enabled, all surfaces are recomputed from the
    boundary-face Euler characteristic instead. Raises ValueError unless
    ``vol`` is one 26-component.
    """
    if _count_components(vol.cells, Adjacency.INDIRECT_3D) != 1:
        raise ValueError("expected a single connected component")
    surfaces, betti = _answer(_piece_rows(vol, fallback_oracle).tolist())
    return TopoReport3D(1, vol.voxel_count, surfaces, betti)


def _scan(codes: np.ndarray, labeling: Labeling):
    """The driver's scan (``grid._Hooks``): the ids of the components
    that own a pathological window, ascending. A window's object voxels
    are 26-adjacent, so they carry one label, read at its lowest one. It
    makes no edit and gives no answers."""
    codes, labels = codes.reshape(-1), labeling.labels
    at = _where(codes, _CODE_DIRTY)
    owners = labels.reshape(-1)[_window_cells(labels.shape, at, _LOW_BIT[codes[at]])]
    dirty = np.flatnonzero(np.bincount(owners, minlength=labeling.count + 1))
    return dirty, (np.zeros(0, np.int64), np.zeros((0, 5), np.int64)), None


_HOOKS = _Hooks(
    capture=Adjacency.INDIRECT_3D,
    pieces=Adjacency.DIRECT_3D,
    scan=_scan,
    classify=_surface_rows,
    filled=None,
    repair=lambda stack, canvases: repair_3d(stack, _canvases=canvases),
    slow=_piece_rows,
    answer=_answer,
    report=lambda n, voxels, answer, edits: TopoReport3D(n, voxels, *answer, edits),
)
# ``analyze_volume``'s columns, which the command line reads: see
# ``grid._per_component``.
_columns = partial(_per_component, _HOOKS)


def analyze_volume(
    vol: Volume3D,
    repair: bool = True,
    fallback_oracle: bool = True,
) -> tuple[list[TopoReport3D], list[RepairAction]]:
    """Full pipeline: capture components, repair, then report homology.

    Components are captured with indirect (26-) adjacency. Each one is
    reported as if it were repaired on its own padded canvas, relabeled
    with direct (6-) adjacency and each resulting piece classified there
    (``grid._per_component``); edit coordinates are mapped back to the
    source volume. A repaired canvas has no pathological window, so its
    6-pieces are its 26-components and one formula pass keyed by their
    labels classifies them. The per-piece rows that ``homology`` reads
    (``_piece_rows``) run only on a piece whose histogram fails
    ``genus``, for the oracle fallback, and, without repair, on each
    piece of a dirty component.
    """
    return _analyze(_HOOKS, vol, repair, fallback_oracle)
