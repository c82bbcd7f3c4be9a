"""The repair loop against the per-cell repair it replaced.

``repair_2d`` and ``repair_3d`` run one loop (``grid._repair``) over
the padded grid's window codes alone, which each edit keeps current;
each cell is bit 0 of the code of the window it anchors. The functions
below are the loops they replaced, kept as the reference: each round
rescans the whole grid, re-checks every window cell by cell and fixes it
with per-cell reads. Both must give the same cells, the same actions and
the same ``RepairDidNotConverge``, on raw grids with no filter. Where
repair converges, the public pathology scans find nothing left.
"""

import hashlib

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from digitopo import (
    Image2D,
    Pathology2D,
    Pathology3D,
    Pathology3DKind,
    RepairAction,
    RepairDidNotConverge,
    RepairOp,
    RepairReason,
    Volume3D,
    find_pathologies_2d as live_find_pathologies_2d,
    find_pathologies_3d as live_find_pathologies_3d,
    remove_speckles,
    repair_2d as live_repair_2d,
    repair_3d as live_repair_3d,
)
from digitopo.grid import _flip, _pad, _window_codes
from digitopo.topo2d import _DIAGONAL, _MAIN, Diag2D
from digitopo.topo3d import _CODE_DIRTY, _CODE_HITS

from gridtext import NONCONVERGENT_SLABS, REPAIR_CYCLE, volume

# ---------------------------------------------------------------------------
# 2D reference


def find_pathologies_2d(cells):
    codes = _window_codes(cells)
    ys, xs = np.nonzero(_DIAGONAL[codes])
    return [
        Pathology2D(x, y, Diag2D.MAIN if code == _MAIN else Diag2D.ANTI)
        for y, x, code in zip(ys.tolist(), xs.tolist(), codes[ys, xs].tolist())
    ]


def _get(cells, x, y):
    if 0 <= y < cells.shape[0] and 0 <= x < cells.shape[1]:
        return bool(cells[y, x])
    return False


def _window_pathological(cells, x, y):
    a = _get(cells, x, y)
    b = _get(cells, x + 1, y)
    c = _get(cells, x, y + 1)
    d = _get(cells, x + 1, y + 1)
    if a and d and not b and not c:
        return Diag2D.MAIN
    if b and c and not a and not d:
        return Diag2D.ANTI
    return None


def _region_clean(cells, x, y):
    """No pathological window within the 4x4 region around window (x, y)."""
    for ay in range(y - 1, y + 2):
        for ax in range(x - 1, x + 2):
            if _window_pathological(cells, ax, ay) is not None:
                return False
    return True


def _fix_window(cells, p):
    order = ((p.x, p.y), (p.x + 1, p.y), (p.x, p.y + 1), (p.x + 1, p.y + 1))
    bg = [c for c in order if not cells[c[1], c[0]]]
    fg = [c for c in order if cells[c[1], c[0]]]
    candidates = [
        (RepairOp.ADD, bg[0]),
        (RepairOp.ADD, bg[1]),
        (RepairOp.DELETE, fg[0]),
        (RepairOp.DELETE, fg[1]),
    ]
    for op, (cx, cy) in candidates:
        cells[cy, cx] = op is RepairOp.ADD
        if _region_clean(cells, p.x, p.y):
            return RepairAction(cx, cy, op, RepairReason.PATHOLOGY)
        cells[cy, cx] = op is not RepairOp.ADD
    cx, cy = fg[0]
    cells[cy, cx] = False
    return RepairAction(cx, cy, RepairOp.DELETE, RepairReason.PATHOLOGY)


def repair_2d(img):
    """Rescan, re-check and fix until clean, with a cap of 4 actions per
    pixel; this loop has no repeated-state check, so a cycle raises at
    the cap."""
    cells = img.cells.copy()
    actions = []
    cap = 4 * img.width * img.height
    while True:
        found = find_pathologies_2d(cells)
        if not found:
            break
        for p in found:
            if _window_pathological(cells, p.x, p.y) != p.kind:
                continue
            if len(actions) >= cap:
                raise RepairDidNotConverge("repair did not converge")
            actions.append(_fix_window(cells, p))
    return Image2D(img.width, img.height, cells), actions


# ---------------------------------------------------------------------------
# 3D reference


def find_pathologies_3d(cells):
    nz, ny, nx = cells.shape
    p = np.zeros((nz + 1, ny + 1, nx + 1), dtype=bool)
    p[:nz, :ny, :nx] = cells
    codes = _window_codes(p)
    at = np.flatnonzero(_CODE_DIRTY[codes])
    zs, ys, xs = np.unravel_index(at, codes.shape)
    found = []
    for z, y, x, code in zip(zs.tolist(), ys.tolist(), xs.tolist(), codes.ravel()[at].tolist()):
        for kind, (a, b), axis in _CODE_HITS[code]:
            pair = ((x + a[0], y + a[1], z + a[2]), (x + b[0], y + b[1], z + b[2]))
            found.append(Pathology3D(x, y, z, kind, pair, axis))
    return found


def _vget(cells, x, y, z):
    nz, ny, nx = cells.shape
    if 0 <= x < nx and 0 <= y < ny and 0 <= z < nz:
        return bool(cells[z, y, x])
    return False


def _object_degree(cells, p):
    x, y, z = p
    return sum(
        _vget(cells, x + dx, y + dy, z + dz)
        for dx, dy, dz in (
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        )
    )


def _flat(cells, p):
    nz, ny, nx = cells.shape
    x, y, z = p
    return (z * ny + y) * nx + x


def _matches_3d(cells, p):
    if p.kind is Pathology3DKind.EDGE_PAIR:
        lo = (p.x, p.y, p.z)
        offs = {0: ((0, 1, 0), (0, 0, 1), (0, 1, 1)),
                1: ((1, 0, 0), (0, 0, 1), (1, 0, 1)),
                2: ((1, 0, 0), (0, 1, 0), (1, 1, 0))}[p.axis]
        window = [lo] + [(lo[0] + o[0], lo[1] + o[1], lo[2] + o[2]) for o in offs]
        pair = set(p.pair)
        return all(_vget(cells, *cell) == (cell in pair) for cell in window)
    count = 0
    for dz in (0, 1):
        for dy in (0, 1):
            for dx in (0, 1):
                count += _vget(cells, p.x + dx, p.y + dy, p.z + dz)
    a, b = p.pair
    if p.kind is Pathology3DKind.VERTEX_PAIR:
        return count == 2 and _vget(cells, *a) and _vget(cells, *b)
    return count == 6 and not _vget(cells, *a) and not _vget(cells, *b)


def _fix_3d(cells, p):
    a, b = p.pair
    da, db = _object_degree(cells, a), _object_degree(cells, b)
    if p.kind is Pathology3DKind.COMPLEMENT_VERTEX_PAIR:
        # Fill the empty position that shares the most faces with the set;
        # ties go to the scan-first position.
        if (db, -_flat(cells, b)) > (da, -_flat(cells, a)):
            target = b
        else:
            target = a
        cells[target[2], target[1], target[0]] = True
        return RepairAction(
            target[0], target[1], RepairOp.ADD, RepairReason.PATHOLOGY, z=target[2]
        )
    # Delete the less connected voxel of the pair; ties delete the
    # scan-later one.
    if (da, -_flat(cells, a)) < (db, -_flat(cells, b)):
        target = a
    else:
        target = b
    cells[target[2], target[1], target[0]] = False
    return RepairAction(
        target[0], target[1], RepairOp.DELETE, RepairReason.PATHOLOGY, z=target[2]
    )


def repair_3d(vol):
    cells = vol.cells.copy()
    actions = []
    cap = 4 * vol.nx * vol.ny * vol.nz
    seen_states = set()
    found = find_pathologies_3d(cells)
    while found:
        digest = hashlib.blake2b(cells.tobytes(), digest_size=16).digest()
        if digest in seen_states:
            raise RepairDidNotConverge("repair did not converge")
        seen_states.add(digest)
        ordered = [p for p in found if p.kind is Pathology3DKind.COMPLEMENT_VERTEX_PAIR]
        ordered += [p for p in found if p.kind is not Pathology3DKind.COMPLEMENT_VERTEX_PAIR]
        for p in ordered:
            if not _matches_3d(cells, p):
                continue
            if len(actions) >= cap:
                raise RepairDidNotConverge("repair did not converge")
            actions.append(_fix_3d(cells, p))
        found = find_pathologies_3d(cells)
    return Volume3D(vol.nx, vol.ny, vol.nz, cells), actions


# ---------------------------------------------------------------------------
# tests


def outcome(fn, grid):
    """``(cells, actions)`` of a repair, or the type and message of what
    it raised."""
    try:
        fixed, actions = fn(grid)
    except Exception as e:  # compared, never swallowed: see the asserts
        return type(e), str(e)
    return fixed.cells.tolist(), actions


def bernoulli(ndim, side):
    """Raw Bernoulli grids of ``ndim`` axes of 1 to ``side`` cells."""
    return st.builds(
        lambda shape, density, seed: np.random.default_rng(seed).random(shape) < density,
        st.tuples(*[st.integers(1, side)] * ndim),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )


def _label(got):
    if isinstance(got[0], type):
        return got[0].__name__
    return "edited" if got[1] else "clean"


@settings(max_examples=400, deadline=None)
@given(cells=bernoulli(2, 16))
@example(cells=np.zeros((5, 7), dtype=bool))
@example(cells=np.ones((5, 7), dtype=bool))
@example(cells=np.array([[1, 0, 1, 1, 0, 1]], dtype=bool))
@example(cells=np.array([[1], [0], [1], [1]], dtype=bool))
@example(cells=np.indices((6, 6)).sum(axis=0) % 2 == 0)
def test_repair_2d_matches_reference(cells):
    img = Image2D(cells.shape[1], cells.shape[0], cells)
    want = outcome(repair_2d, img)
    event(_label(want))
    assert outcome(live_repair_2d, img) == want


@settings(max_examples=300, deadline=None)
@given(cells=bernoulli(3, 8))
@example(cells=REPAIR_CYCLE)
@example(cells=volume(*NONCONVERGENT_SLABS).cells)
@example(cells=np.zeros((3, 4, 5), dtype=bool))
@example(cells=np.ones((3, 4, 5), dtype=bool))
@example(cells=np.array([[[1, 0, 1, 1]]], dtype=bool))
@example(cells=np.array([[[1], [0]], [[0], [1]]], dtype=bool))
@example(cells=np.indices((4, 4, 4)).sum(axis=0) % 2 == 0)
def test_repair_3d_matches_reference(cells):
    vol = Volume3D(cells.shape[2], cells.shape[1], cells.shape[0], cells)
    want = outcome(repair_3d, vol)
    event(_label(want))
    assert outcome(live_repair_3d, vol) == want


# ``digitopo repair`` reports no remaining pathology without scanning its
# output again: wherever repair converges, the public scan finds none.


@settings(max_examples=150, deadline=None)
@given(cells=bernoulli(2, 16), speckles=st.booleans())
@example(cells=np.indices((6, 6)).sum(axis=0) % 2 == 0, speckles=True)
def test_a_converged_2d_repair_leaves_no_pathology(cells, speckles):
    img = Image2D(cells.shape[1], cells.shape[0], cells)
    if speckles:  # as ``digitopo repair`` does
        img, _ = remove_speckles(img)
    try:
        fixed, _ = live_repair_2d(img)
    except RepairDidNotConverge:
        event("RepairDidNotConverge")
        return
    assert live_find_pathologies_2d(fixed) == []


@settings(max_examples=150, deadline=None)
@given(cells=bernoulli(3, 8))
@example(cells=REPAIR_CYCLE)
@example(cells=np.indices((4, 4, 4)).sum(axis=0) % 2 == 0)
def test_a_converged_3d_repair_leaves_no_pathology(cells):
    vol = Volume3D(cells.shape[2], cells.shape[1], cells.shape[0], cells)
    try:
        fixed, _ = live_repair_3d(vol)
    except RepairDidNotConverge:
        event("RepairDidNotConverge")
        return
    assert live_find_pathologies_3d(fixed) == []


def held_grid(codes):
    """The padded grid whose cells the window ``codes`` hold: each cell
    set where any window holding it has its bit set."""
    held = np.zeros(tuple(n + 1 for n in codes.shape), dtype=bool)
    for bit, offset in enumerate(np.ndindex(*(2,) * codes.ndim)):
        held[tuple(slice(d, d + n) for d, n in zip(offset, codes.shape))] |= (
            codes >> bit & 1
        ).astype(bool)
    return held


def test_flipped_codes_stay_current():
    # Every cell of a small 2D and 3D grid, flipped in a random order:
    # after each flip the codes equal those computed afresh from the
    # toggled grid, the grid they hold differs from the one before in
    # the flipped cell only, and its pad stays empty.
    rng = np.random.default_rng(7)
    for shape in ((5, 6), (4, 3, 5)):
        p = _pad(rng.random(shape) < 0.5)
        codes = _window_codes(p)
        view = memoryview(codes).cast("B")
        cells = list(np.ndindex(*shape))
        for i in rng.permutation(len(cells)).tolist():
            cell = tuple(c + 1 for c in cells[i])
            before = held_grid(codes)
            _flip(view, codes.strides, int(np.ravel_multi_index(cell, codes.shape)))
            p[cell] = not p[cell]
            assert np.array_equal(codes, _window_codes(p)), (shape, cell)
            held = held_grid(codes)
            assert [tuple(i) for i in np.argwhere(held != before).tolist()] == [cell]
            assert not held[~_pad(np.ones(shape, dtype=bool))].any(), (shape, cell)


def test_flipping_many_cells_at_once_keeps_codes_current():
    # Random sets of distinct cells, many of them sharing windows, flipped
    # with one call on the flat codes: the codes equal those computed
    # afresh.
    rng = np.random.default_rng(11)
    for shape in ((9, 11), (30, 30), (5, 6, 7)):
        p = _pad(rng.random(shape) < 0.5)
        codes = _window_codes(p)
        for density in (0.05, 0.5, 1.0):
            at = tuple(i + 1 for i in np.nonzero(rng.random(shape) < density))
            p[at] = ~p[at]
            _flip(codes.reshape(-1), codes.strides, np.ravel_multi_index(at, codes.shape))
            assert np.array_equal(codes, _window_codes(p)), (shape, density)
