"""Hole counting for binary images by corner points at grid vertices.

Every grid vertex is the center of one 2x2 window; its 4-bit code (bit
dx + 2*dy holds pixel (dx, dy)) says what the object looks like there.
A window holding exactly one object pixel marks an outward corner point
(C2), one holding exactly three an inward corner point (C4). On a
component with no diagonal window (two object pixels meeting only at the
vertex), the boundary is a set of disjoint simple closed curves: the outer
one has four more outward than inward corner points, each hole's curve
four more inward than outward. So the corner law is exact:

    holes = 1 + (C4 - C2) / 4

This is Gray's bit-quad count ("Local properties of binary images in two
dimensions", 1971). The same window codes mark the diagonal windows, so
one table decides both whether the formula may answer and what it says;
a component with a diagonal window falls back to the flood-fill oracle.

The per-pixel ``CornerHistogram`` (boundary pixels by direct-neighbor
count) is kept as report data and read from the same codes: the four
windows around a pixel hold it and its 8 neighbors, so one code array
serves the histogram, the holes and speckle removal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import PreconditionFailure
from .grid import (
    Adjacency,
    Image2D,
    Labeling,
    RepairAction,
    RepairOp,
    RepairReason,
    _HIGH_BIT,
    _Hooks,
    _LOW_BIT,
    _SPECKLE,
    _actions,
    _analyze,
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
from .oracle import holes_by_floodfill

__all__ = [
    "Diag2D",
    "Pathology2D",
    "RepairOp",
    "RepairReason",
    "RepairAction",
    "CornerHistogram",
    "PreconditionReport",
    "HoleMethod",
    "HoleReport",
    "remove_speckles",
    "find_pathologies_2d",
    "repair_2d",
    "classify_boundary_2d",
    "check_preconditions_2d",
    "hole_count",
    "holes_pipeline",
]


class Diag2D(Enum):
    """The two pathological 2x2 window patterns.

    MAIN is foreground on the main diagonal ((x,y) and (x+1,y+1)); ANTI is
    foreground on the other diagonal. In both, the remaining two cells are
    background, so the two foreground pixels meet only at a corner point.
    """

    MAIN = "diag-main"
    ANTI = "diag-anti"


@dataclass(frozen=True)
class Pathology2D:
    """A pathological 2x2 window anchored at its minimum (x, y) cell."""

    x: int
    y: int
    kind: Diag2D


@dataclass(frozen=True, slots=True)
class CornerHistogram:
    """Counts of boundary pixels by direct foreground neighbor count.

    ``thin`` counts the cp2 pixels whose two neighbors are collinear
    (left+right or up+down), i.e. pixels on a width-1 run. ``cp0`` counts
    boundary pixels with no direct neighbor at all; it is nonzero only for
    degenerate single-pixel fragments. cp0 + cp1 + cp2 + cp3 + cp4 equals
    the number of boundary pixels.
    """

    cp1: int
    cp2: int
    cp3: int
    cp4: int
    thin: int
    cp0: int = 0

    @property
    def boundary_total(self) -> int:
        return self.cp0 + self.cp1 + self.cp2 + self.cp3 + self.cp4


@dataclass(frozen=True, slots=True)
class PreconditionReport:
    """Whether the corner formula may answer for a component.

    ``ok`` holds exactly when ``pathologies``, the component's diagonal
    windows, is empty.
    """

    ok: bool
    pathologies: tuple[Pathology2D, ...]


class HoleMethod(Enum):
    FORMULA = "formula"
    ORACLE_FALLBACK = "oracle-fallback"


@dataclass(frozen=True, slots=True)
class HoleReport:
    """Hole count for one component, with the evidence used to produce it."""

    component_id: int
    area: int
    histogram: CornerHistogram
    holes: int
    method: HoleMethod
    precondition_ok: bool


# A component row's method: its index here.
_METHODS = (HoleMethod.FORMULA, HoleMethod.ORACLE_FALLBACK)
_FORMULA, _ORACLE = range(2)

# ---------------------------------------------------------------------------
# kernels

# 2x2 window codes (``_window_codes``): bit dx + 2*dy holds pixel (dx, dy).
_MAIN, _ANTI = 0b1001, 0b0110
_DIAGONAL = np.isin(np.arange(16), (_MAIN, _ANTI))
# Per code: the pathological window it is, if any (``grid._hits``).
_HITS = tuple(
    {_MAIN: (Diag2D.MAIN,), _ANTI: (Diag2D.ANTI,)}.get(code, ()) for code in range(16)
)
# Per code: +1 at an inward corner point (three object pixels), -1 at an
# outward one (one object pixel), 0 elsewhere.
_TURN = np.array([(n == 3) - (n == 1) for n in map(int.bit_count, range(16))])
# Per code: the corner points it gives the component of its lowest pixel.
# A diagonal window is an outward corner of each of its two pixels.
_LOW_TURN = _TURN - _DIAGONAL
_CORNER = _LOW_TURN != 0


# A boundary pixel's N, W, E and S neighbors, as bits 0-3 of a 4-bit key,
# fold into cp0-cp4 by popcount and into thin by the collinear pairs.
_FOLD = np.zeros((16, 6), dtype=np.int64)
_FOLD[np.arange(16), [int.bit_count(k) for k in range(16)]] = 1
_FOLD[[0b1001, 0b0110], 5] = 1


def _quads(codes: np.ndarray):
    """The codes of the four windows around each pixel, from the vertex
    codes of its padded grid: up-left, up-right, down-left, down-right.

    A pixel is bit 3 of its up-left window, whose bits 1 and 2 are its
    north and west neighbors, and bit 0 of its down-right window, whose
    bits 1 and 2 are its east and south neighbors.
    """
    return codes[:-1, :-1], codes[:-1, 1:], codes[1:, :-1], codes[1:, 1:]


def _boundary_keys(ul, ur, dl, dr) -> tuple[np.ndarray, np.ndarray]:
    """The boundary pixels (object pixels with a background pixel among
    their 8 neighbors), as a mask, and their N/W/E/S keys, read from the
    codes of the four windows around each pixel (``_quads``).

    The grid is padded by empty cells or, in a streaming fold, by the
    neighboring rows; the pixels read are those inside the frame.
    """
    # Bit 3 of ul is the pixel; the four codes' AND is 15 only when all
    # nine cells are set.
    boundary = (ul >= 8) & ((ul & ur & dl & dr) != 15)
    return boundary, ((ul[boundary] & 6) >> 1) | ((dr[boundary] & 6) << 1)


def _boundary_bins(codes: np.ndarray) -> np.ndarray:
    """Bincount of the boundary pixels by their N/W/E/S key."""
    return np.bincount(_boundary_keys(*_quads(codes))[1], minlength=16)


def _histogram_of(counts) -> CornerHistogram:
    """The histogram of the counts (cp0, cp1, cp2, cp3, cp4, thin)."""
    cp0, cp1, cp2, cp3, cp4, thin = counts
    return CornerHistogram(cp1=cp1, cp2=cp2, cp3=cp3, cp4=cp4, thin=thin, cp0=cp0)


def _corner_histogram(bins) -> CornerHistogram:
    """The histogram of a ``_boundary_bins`` count."""
    return _histogram_of((bins @ _FOLD).tolist())


def _require_nonempty(cells: np.ndarray) -> None:
    if not cells.any():
        raise ValueError("empty component")


def classify_boundary_2d(component: Image2D) -> CornerHistogram:
    """Corner histogram of a single component's boundary pixels."""
    _require_nonempty(component.cells)
    return _corner_histogram(_boundary_bins(_window_codes(_pad(component.cells))))


def _one_pixel_holes(ul, ur, dl, dr) -> np.ndarray:
    """The background pixels whose 8 neighbors are all object, from the
    ``_quads`` of the padded grid's codes."""
    return (ul == 7) & (ur == 11) & (dl == 13) & (dr == 14)


def remove_speckles(img: Image2D) -> tuple[Image2D, list[RepairAction]]:
    """Fill single-pixel holes and delete single-pixel islands.

    A background pixel whose 8 indirect neighbors are all foreground is
    filled; a foreground pixel whose 8 indirect neighbors are all
    background is deleted. Both are tested on the image given: a pixel
    that touches another component diagonally is not 8-isolated and
    stays, though ``holes_pipeline``, which cleans each component as if
    it were alone, deletes it. One pass suffices: a filled pixel's
    neighbors are all foreground and a deleted pixel's all background, so
    no edit makes a fill or a deletion of another pixel possible, and a
    second pass finds nothing. Edits are listed in row-major order.
    """
    cells = img.cells.copy()
    ul, ur, dl, dr = _quads(_window_codes(_pad(cells)))
    fills = _one_pixel_holes(ul, ur, dl, dr)
    deletes = (ul == 8) & (ur == 4) & (dl == 2) & (dr == 1)
    ys, xs = np.nonzero(fills | deletes)
    edits = np.stack((ys, xs, fills[ys, xs], np.full_like(ys, _SPECKLE)), axis=1)
    cells[fills] = True
    cells[deletes] = False
    return Image2D(img.width, img.height, cells), _actions(edits)


def find_pathologies_2d(img: Image2D) -> list[Pathology2D]:
    """All pathological 2x2 windows, in row-major anchor order.

    A window overhanging the image holds at most one in-range cell of
    each diagonal, so it can never match.
    """
    codes = _window_codes(_pad(img.cells))
    hits = _hits(codes, _HITS, _DIAGONAL)
    # Vertex (y, x) of the padded image anchors the window at (x - 1, y - 1).
    at = np.unravel_index(np.array([v for v, _ in hits], dtype=np.intp), codes.shape)
    at = (np.column_stack(at) - 1).tolist()
    return [Pathology2D(x, y, kind) for (y, x), (_, kind) in zip(at, hits)]


def repair_2d(img: Image2D, *, _canvases=None) -> tuple[Image2D, list[RepairAction]]:
    """Remove pathological windows by local add/delete edits.

    For each pathology, candidates are tried in a fixed order: add the
    row-major-first background cell of the window, add the other one,
    delete the row-major-first foreground cell, delete the other. The first
    candidate that leaves the surrounding 4x4 region clean is kept. If all
    four create a new pathology nearby, the row-major-first foreground cell
    is deleted regardless. Rounds over the pathologies left repeat until
    none is (``grid._repair``); a round that starts from a state already
    seen, or more than 4 * width * height actions in all, raises
    ``RepairDidNotConverge``.

    ``grid._per_component`` passes a stack of canvases as ``img`` and
    their extents as ``_canvases``, and gets back ``grid._repair``'s
    rows of edits, not actions, and its codes as a third item.
    """
    cells, edits, codes = _repair(img.cells, _HITS, _DIAGONAL, _fix_window, _canvases)
    img = Image2D(img.width, img.height, cells)
    return (img, edits, codes) if _canvases else (img, _actions(edits))


def _fix_window(view: memoryview, strides: tuple, vertex: int, _kind) -> int:
    """``repair_2d``'s edit of the diagonal window at the flat ``vertex``
    of a padded image's codes, ``view`` with ``strides`` (``grid._repair``):
    the flat index of the cell it leaves flipped. Candidates are flipped
    through ``_flip`` and flipped back when they leave a diagonal window
    nearby."""
    y = strides[0]
    window = (vertex, vertex + 1, vertex + y, vertex + y + 1)
    bg = [c for c in window if not view[c] & 1]
    fg = [c for c in window if view[c] & 1]
    # The windows anchored within one pixel of this one.
    region = [v + dx for v in (vertex - y, vertex, vertex + y) for dx in (-1, 0, 1)]
    for cell in bg + fg:
        _flip(view, strides, cell)
        if not any(view[v] in (_MAIN, _ANTI) for v in region):
            break
        _flip(view, strides, cell)
    else:
        # Every candidate spawns a new pathology; fall back to deleting the
        # row-major-first foreground cell, which at least shrinks the object.
        cell = fg[0]
        _flip(view, strides, cell)
    return cell


def check_preconditions_2d(component: Image2D) -> PreconditionReport:
    """Decide whether the corner formula may answer for this component:
    it may when the component has no diagonal window, which are listed."""
    _require_nonempty(component.cells)
    pathologies = tuple(find_pathologies_2d(component))
    return PreconditionReport(not pathologies, pathologies)


def hole_count(component: Image2D) -> HoleReport:
    """Hole count of a single connected component, reported as component 1.

    One bincount of the window codes gives the vertex corner counts; the
    histogram is read from the same codes. With no diagonal window the
    corner law answers, and is exact; otherwise the flood-fill oracle
    does. Raises ValueError unless ``component`` is one 4-component.
    """
    if _count_components(component.cells, Adjacency.DIRECT_2D) != 1:
        raise ValueError("expected a single connected component")
    return HoleReport(1, component.area, *_answer(_piece_rows(component)))


def _answer(rows) -> tuple[CornerHistogram, int, HoleMethod, bool]:
    """``(histogram, holes, method, precondition_ok)`` of a component from
    its one row: its histogram's counts (``_histogram_of``), its holes
    and its method (``_METHODS``). The formula's preconditions held
    exactly when it answered."""
    ((*counts, holes, method),) = rows
    return _histogram_of(counts), holes, _METHODS[method], method == _FORMULA


def _piece_rows(component: Image2D, fallback_oracle: bool = True, component_id: int = 1):
    """The row (``_answer``) of one 4-component, in a list: the corner
    law's, or the flood fill's where the law may not answer. With the
    fallback off, that raises before the oracle runs."""
    codes = _window_codes(_pad(component.cells))
    counts = (_boundary_bins(codes) @ _FOLD).tolist()
    bins = np.bincount(codes.ravel(), minlength=16)
    if not bins[_DIAGONAL].any():
        return [[*counts, 1 + int(bins @ _TURN) // 4, _FORMULA]]
    if not fallback_oracle:
        raise PreconditionFailure(f"component {component_id} has a diagonal window")
    return [[*counts, holes_by_floodfill(component), _ORACLE]]


def _despeckle(codes: np.ndarray, labeling: Labeling):
    """Delete and fill the speckles of the labelled image whose window
    codes, in a frame of one empty pixel, are ``codes``, as each
    component's canvas sees them, in the codes (``grid._flip``), the
    labels and their sizes. Returns the owner's id of each edit and the
    edits (rows of ``grid._actions``), in row-major order.

    A pixel with no 4-neighbor is deleted, even one that touches another
    component diagonally, and a one-pixel hole is filled into the
    component of its 8 neighbors, which the ring of them 4-connects.
    """
    flat, width = labeling.labels.reshape(-1), labeling.labels.shape[1]
    ul, ur, dl, dr = _quads(codes)
    edits = ((ul & 14) == 8) & ((dr & 6) == 0)
    edits |= _one_pixel_holes(ul, ur, dl, dr)
    at = np.flatnonzero(edits)
    del ul, ur, dl, dr, edits
    owner = flat[at]
    fill = owner == 0
    owner[fill] = flat[at[fill] - width]
    flat[at] = np.where(fill, owner, 0)
    # A fill moves a pixel from the background to its owner, a deletion
    # back; ``add.at``, since several speckles can share an owner.
    moved = np.where(fill, 1, -1)
    np.add.at(labeling.sizes, owner, moved)
    labeling.sizes[0] -= moved.sum()
    ys, xs = np.divmod(at, width)
    _flip(codes.reshape(-1), codes.strides, np.ravel_multi_index((ys + 1, xs + 1), codes.shape))
    return owner, np.stack((ys, xs, fill, np.full_like(ys, _SPECKLE)), axis=1)


def _window_pass(codes: np.ndarray, labels: np.ndarray, count: int):
    """The answer of every label 0..``count`` of ``labels`` from the
    window codes of the labelled image in a frame of one empty pixel: the
    table ``(ok, cuts, rows)`` of ``grid._Hooks``, one row per label
    (``_answer``), with ``ok`` False for a component with a diagonal
    window between two of its own pixels. Such a row holds, in place of
    its holes, the corner points (C4 - C2) of its component's own canvas,
    for ``_filled_rows``.

    One bincount of the corner windows keyed by label gives every
    component's corner points, and one of the boundary pixels its
    histogram (``grid._per_component`` says why each window is read as
    on the component's own canvas). The one window read otherwise is a
    diagonal one between two pixels of one component: an outward corner
    of each here, 0 on the canvas.
    """
    flat = labels.reshape(-1)
    vertices = _where(codes, _CORNER)
    c = codes.reshape(-1)[vertices]
    low = flat[_window_cells(labels.shape, vertices, _LOW_BIT[c])]
    diagonal = _DIAGONAL[c]
    high = flat[_window_cells(labels.shape, vertices[diagonal], _HIGH_BIT[c[diagonal]])]
    # Weighted, so float; the counts are small integers and exact.
    turn = np.bincount(low, _LOW_TURN[c], minlength=count + 1)
    turn -= np.bincount(high, minlength=count + 1)
    low = low[diagonal]
    own = np.bincount(low[low == high], minlength=count + 1)
    turn = turn.astype(np.int64) + 2 * own
    ok = own == 0
    boundary, keys = _boundary_keys(*_quads(codes))
    keys = labels[boundary] * 16 + keys
    del boundary
    bins = np.bincount(keys, minlength=16 * (count + 1)).reshape(count + 1, 16)
    holes = np.where(ok, 1 + turn // 4, turn)
    rows = np.column_stack((bins @ _FOLD, holes, np.full(count + 1, _FORMULA)))
    return ok, np.arange(count + 2), rows


def _filled_rows(rows: np.ndarray, codes: np.ndarray, cells: np.ndarray, owner: np.ndarray):
    """The rows (``_answer``) of a stack's canvases that repair only
    filled (``grid._per_component``): ``rows``, each canvas's row in the
    grid's table (``_window_pass``, the canvas's corner points in place of
    its holes), plus what the fills changed in the 4 windows and the 9
    pixels around each. ``codes`` are the stack's window codes after
    repair, ``cells`` the fills as flat indices into them and ``owner``
    the canvas of each. The codes are read, then flipped back to those
    before repair (``grid._flip``) and read again; ``rows`` is completed
    in place.

    A fill sets a background cell of a diagonal window, which is
    4-adjacent to both of the window's pixels, so each canvas stays one
    4-piece, and with no diagonal window left the corner law answers.
    """
    n, y, flat = len(rows), codes.strides[0], codes.reshape(-1)
    windows = _once(cells[:, None] - [0, 1, y, y + 1], owner)
    pixels = _once(cells[:, None] + np.add.outer([-y, 0, y], [-1, 0, 1]).ravel(), owner)

    def read():
        """Per canvas: the counts of the boundary pixels among ``pixels``
        and the corner points of ``windows`` (``_window_pass``)."""
        (w, of_w), (p, of_p) = windows, pixels
        turn = np.bincount(of_w, _TURN[flat[w]], minlength=n).astype(np.int64)
        boundary, keys = _boundary_keys(flat[p - y - 1], flat[p - y], flat[p - 1], flat[p])
        bins = np.bincount(of_p[boundary] * 16 + keys, minlength=16 * n).reshape(n, 16)
        return np.column_stack((bins @ _FOLD, turn))

    rows[:, :-1] += read()
    _flip(flat, codes.strides, cells)
    rows[:, :-1] -= read()
    rows[:, -2] = 1 + rows[:, -2] // 4
    return rows


def _once(at: np.ndarray, owner: np.ndarray):
    """The distinct flat indices of ``at``, one row per entry of
    ``owner``, ascending, and the owner of each."""
    at, owner = at.ravel(), owner.repeat(at.shape[1])
    order = np.argsort(at, kind="stable")
    at, owner = at[order], owner[order]
    first = np.diff(at, prepend=-1) != 0
    return at[first], owner[first]


def _scan(codes: np.ndarray, labeling: Labeling):
    """The driver's scan (``grid._Hooks``): the speckles, then the answers
    of the despeckled image, whose ``ok`` marks the dirty ones."""
    speckles = _despeckle(codes, labeling)
    table = _window_pass(codes, labeling.labels, labeling.count)
    return np.flatnonzero(~table[0][1:] & (labeling.sizes[1:] > 0)) + 1, speckles, table


_HOOKS = _Hooks(
    capture=Adjacency.DIRECT_2D,
    pieces=Adjacency.DIRECT_2D,
    scan=_scan,
    classify=_window_pass,
    filled=_filled_rows,
    repair=lambda stack, canvases: repair_2d(stack, _canvases=canvases),
    slow=_piece_rows,
    answer=_answer,
    report=lambda n, area, answer, _: HoleReport(n, area, *answer),
)
# ``holes_pipeline``, and its columns, which the command line reads: see
# ``grid._per_component``.
_analyze_components = partial(_analyze, _HOOKS)
_columns = partial(_per_component, _HOOKS)


def holes_pipeline(
    img: Image2D,
    repair: bool = True,
    fallback_oracle: bool = True,
) -> tuple[list[HoleReport], list[RepairAction]]:
    """Label, clean, repair, and count holes for every component.

    Returns one report per surviving component (single-pixel speckles are
    deleted and produce none) plus the combined edit log in source
    coordinates. Each component is reported as if it were cleaned,
    repaired, relabelled and counted piece by piece on its own padded
    canvas (``grid._per_component``); the log lists, component by
    component, its speckle edits in row-major order and then its repair
    edits. Alone on its canvas, every single-pixel 4-component is
    deleted, even one that touches another component diagonally (so not
    8-isolated, and kept by ``remove_speckles`` on the whole image).
    """
    return _analyze_components(img, repair, fallback_oracle)
