"""The stacked repair loop against repairing each canvas alone.

``grid._per_component`` stacks the dirty canvases of a grid and repairs
each stack with one ``grid._repair`` call, whose later rounds read only
the windows around the cells the round before edited, and which tells a
state by the cells edited an odd number of times. The loop below is the
one it replaced, kept as the reference: it repairs one canvas, reads
every window code each round and digests the whole grid to find a
repeated state. Driving the per-component references with it must give
the same reports, the same log and the same exceptions.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from digitopo import (
    Image2D,
    RepairAction,
    RepairDidNotConverge,
    RepairOp,
    RepairReason,
    Volume3D,
    analyze_volume,
    grid,
    holes_pipeline,
    repair_2d,
    topo2d,
    topo3d,
)
from digitopo.grid import _hits, _pad, _repair, _window_codes
from digitopo.topo2d import _DIAGONAL, _HITS, _columns
from digitopo.topo2d import _fix_window as fix_2d
from digitopo.topo3d import _CODE_HITS, _CODE_PASS
from digitopo.topo3d import _fix_window as fix_3d

from gridtext import REPAIR_CYCLE
from test_pipeline_reference import (
    DIRTY_OF_THREE_WIDTHS,
    DIRTY_SPLIT_BY_REPAIR,
    FILL_BESIDE_A_DIAGONAL_NEIGHBOUR,
    FILL_CLOSES_A_HOLE,
    OVERLAPPING_FILLS,
    raw_images,
    reference_analyze_components,
)
from test_topo3d import assert_same_answers, kept_canvases, outcome, reference_analyze


def reference_loop(cells, hits, order, fix):
    """One canvas: every round reads all window codes and digests the
    cells they hold; a repeated digest, or more than 4 edits per cell,
    raises."""
    codes = _window_codes(_pad(cells))
    view = memoryview(codes).cast("B")
    # A padded grid's cell is bit 0 of the code of the window it anchors.
    inside = (slice(1, None),) * cells.ndim
    cap = 4 * cells.size
    actions = []
    seen = set()
    while found := _hits(codes, hits, order):
        digest = hashlib.blake2b((codes[inside] & 1).tobytes(), digest_size=16).digest()
        if digest in seen:
            raise RepairDidNotConverge("repair did not converge")
        seen.add(digest)
        for vertex, hit in found:
            if hit not in hits[view[vertex]]:
                continue
            if len(actions) >= cap:
                raise RepairDidNotConverge("repair did not converge")
            cell = fix(view, codes.strides, vertex, hit)
            op = RepairOp.ADD if view[cell] & 1 else RepairOp.DELETE
            x, y, *z = (int(i) - 1 for i in reversed(np.unravel_index(cell, codes.shape)))
            actions.append(RepairAction(x, y, op, RepairReason.PATHOLOGY, *z))
    return (codes[inside] & 1).astype(bool), actions


def reference_repair_2d(img):
    cells, actions = reference_loop(img.cells, _HITS, _DIAGONAL, fix_2d)
    return Image2D(img.width, img.height, cells), actions


def reference_repair_3d(vol):
    cells, actions = reference_loop(vol.cells, _CODE_HITS, _CODE_PASS, fix_3d)
    return Volume3D(vol.nx, vol.ny, vol.nz, cells), actions


def _event(got):
    event(got[0].__name__ if isinstance(got[0], type) else "reports")


def three_copies(seed):
    """A Bernoulli image, three times side by side: its dirty components'
    canvases, three of each, stack together. Seed 73's take a second
    round of repair."""
    rng = np.random.default_rng(seed)
    h, w = rng.integers(4, 25, size=2).tolist()
    cells = rng.random((h, w)) < rng.uniform(0.3, 0.8)
    cells = np.hstack([cells, np.zeros((h, 1), dtype=bool)] * 3)
    return Image2D(cells.shape[1], h, cells)


def pinched_rings():
    """Three rings whose last corner meets the rest at a vertex only,
    at 6, 3 and 1 times a 3 x 3 ring: dirty 4-components whose canvases
    (20, 11 and 5 wide) round up to three powers of two, and fit in the
    image in one stack."""
    ring = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
    cells = np.zeros((24, 40), dtype=bool)
    for k, (y, x) in zip((6, 3, 1), ((1, 1), (1, 21), (12, 21))):
        cells[y : y + 3 * k, x : x + 3 * k] = np.kron(ring, np.ones((k, k), dtype=bool))
    return Image2D(40, 24, cells)


@settings(max_examples=150, deadline=None)
@given(img=raw_images())
@example(img=three_copies(73))
@example(img=pinched_rings())
@example(img=FILL_CLOSES_A_HOLE)
@example(img=FILL_BESIDE_A_DIAGONAL_NEIGHBOUR)
@example(img=OVERLAPPING_FILLS)
def test_2d_driver_matches_canvases_repaired_alone(img):
    got = outcome(holes_pipeline, img)
    want = outcome(reference_analyze_components, img, repair_fn=reference_repair_2d)
    if not isinstance(want[0], type):
        pieces = [piece for _, piece in want[0]]
        want = ([r for r, _ in want[0]], want[1])
        # With ``keep_pieces`` every stack is labelled again: the same
        # answers, and the pieces the reference cut.
        kept = _columns(img, keep_pieces=True)
        assert kept_canvases(kept) == pieces
        assert_same_answers(kept, _columns(img))
    _event(got)
    assert got == want


@pytest.mark.parametrize(
    "img, labelled",
    [
        (pinched_rings(), 1),
        (DIRTY_OF_THREE_WIDTHS, 1),
        (FILL_CLOSES_A_HOLE, 1),
        (FILL_BESIDE_A_DIAGONAL_NEIGHBOUR, 1),
        (OVERLAPPING_FILLS, 1),
        (DIRTY_SPLIT_BY_REPAIR, 2),
    ],
    ids=["pinched-rings", "three-widths", "closes-a-hole", "diagonal-neighbour", "overlapping",
         "split-by-repair"],
)
def test_a_stack_that_repair_only_filled_is_answered_from_the_grid_pass(
    monkeypatch, img, labelled
):
    # Repair only fills these images' stacks, each one stack or three,
    # except DIRTY_SPLIT_BY_REPAIR's, which it deletes from: that stack
    # alone is labelled and classified again.
    labels, passes = [], []
    label, window_pass = grid.label_components_2d, topo2d._window_pass

    def counting_label(*args, **kwargs):
        labels.append(args)
        return label(*args, **kwargs)

    def counting_pass(*args):
        passes.append(args)
        return window_pass(*args)

    monkeypatch.setattr(grid, "label_components_2d", counting_label)
    monkeypatch.setattr(topo2d, "_window_pass", counting_pass)
    hooks = topo2d._HOOKS._replace(classify=counting_pass)
    got = grid._analyze(hooks, img)
    assert len(labels) == len(passes) == labelled
    want = reference_analyze_components(img, repair_fn=reference_repair_2d)
    assert got == ([r for r, _ in want[0]], want[1])
    fills = all(a.op is RepairOp.ADD for a in got[1] if a.reason is RepairReason.PATHOLOGY)
    assert fills == (labelled == 1)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 12)] * 3),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    cycle=st.booleans(),
)
@example((12, 12, 12), 0.15, 25, False)
@example((12, 12, 12), 0.15, 25, True)
# 13 dirty canvases of four extent classes, in one stack.
@example((12, 12, 12), 0.05, 2, False)
def test_3d_driver_matches_canvases_repaired_alone(shape, density, seed, cycle):
    # Raw Bernoulli volumes, with the cycling pattern written into a
    # corner of some of them.
    cells = np.random.default_rng(seed).random(shape) < density
    if cycle and all(n >= k for n, k in zip(shape, REPAIR_CYCLE.shape)):
        cells[tuple(slice(0, k) for k in REPAIR_CYCLE.shape)] = REPAIR_CYCLE
    vol = Volume3D(shape[2], shape[1], shape[0], cells)
    got = outcome(analyze_volume, vol)
    _event(got)
    assert got == outcome(reference_analyze, vol, repair_fn=reference_repair_3d)


@st.composite
def split_grids(draw):
    """A raw Bernoulli image or volume, some volumes with the cycling
    pattern written in at a drawn place, and a drawn cut of its rows
    into canvases, ``(rows, cells)`` each: canvases with no empty frame,
    so a hit window may cross two of them."""
    ndim = draw(st.sampled_from((2, 3)))
    shape = draw(st.tuples(*[st.integers(1, 24 if ndim == 2 else 10)] * ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random(shape) < draw(st.floats(0.0, 1.0))
    if ndim == 3 and draw(st.booleans()):
        if all(n >= k for n, k in zip(shape, REPAIR_CYCLE.shape)):
            at = [draw(st.integers(0, n - k)) for n, k in zip(shape, REPAIR_CYCLE.shape)]
            cells[tuple(slice(i, i + k) for i, k in zip(at, REPAIR_CYCLE.shape))] = REPAIR_CYCLE
    cuts = sorted(draw(st.sets(st.integers(1, shape[0] - 1)))) if shape[0] > 1 else []
    rows = np.diff([0, *cuts, shape[0]]).tolist()
    return cells, [(n, n * cells[0].size) for n in rows]


@settings(max_examples=200, deadline=None)
@given(split=split_grids())
@example(split=(REPAIR_CYCLE, [(4, REPAIR_CYCLE.size)]))
@example(split=(np.pad(REPAIR_CYCLE, 1), [(3, 75), (3, 75)]))
@example(split=(np.indices((6, 6)).sum(axis=0) % 2 == 0, [(2, 12), (1, 6), (3, 18)]))
def test_repair_hands_back_the_codes_of_its_result(split):
    # Where repair converges, the codes it returns are those of its
    # result padded by one empty cell, and the result is bit 0 of each
    # window code past the first layer. The input is never written.
    cells, canvases = split
    kept = cells.copy()
    repair = repair_2d if cells.ndim == 2 else topo3d.repair_3d
    try:
        fixed, edits, codes = repair(grid._grid_of(cells), _canvases=canvases)
    except RepairDidNotConverge:
        event("RepairDidNotConverge")
        assert np.array_equal(cells, kept)
        return
    event("edited" if len(edits) else "clean")
    assert np.array_equal(cells, kept)
    assert not np.shares_memory(fixed.cells, cells)
    assert np.array_equal(codes, _window_codes(_pad(fixed.cells)))
    assert np.array_equal(fixed.cells, codes[(slice(1, None),) * cells.ndim] & 1)


def plate_pairs(count, cells=None):
    """``count`` dirty 26-components, each a 4x4 plate and one voxel that
    meets its corner at a vertex only, along x at z 1; their canvases are
    4 x 7 x 7, one stack. Repair deletes each lone voxel."""
    if cells is None:
        cells = np.zeros((4, 7, 7 * count), dtype=bool)
    for i in range(count):
        cells[1, 1:5, 7 * i + 1 : 7 * i + 5] = True
        cells[2, 5, 7 * i + 5] = True
    return cells


def test_a_cycling_canvas_among_converging_ones_raises(monkeypatch):
    calls = []
    repair_3d = topo3d.repair_3d

    def counting(vol, **kwargs):
        calls.append(kwargs["_canvases"])
        return repair_3d(vol, **kwargs)

    monkeypatch.setattr(topo3d, "repair_3d", counting)
    cells = plate_pairs(4, np.zeros((6, 7, 36), dtype=bool))
    reports, actions = analyze_volume(Volume3D(36, 7, 6, cells))
    assert len(reports) == 4 and len(actions) == 4
    assert len(calls) == 1 and len(calls[0]) == 4
    # The cycling pattern's canvas falls into the same stack, first (as
    # component 1) or last (moved two voxels up, as component 5).
    for z in (0, 2):
        cycling = cells.copy()
        cycling[z : z + 4, 1:4, 29:33] = REPAIR_CYCLE
        calls.clear()
        with pytest.raises(RepairDidNotConverge, match="did not converge"):
            analyze_volume(Volume3D(36, 7, 6, cycling))
        assert len(calls) == 1 and len(calls[0]) == 5
    with pytest.raises(RepairDidNotConverge):
        reference_repair_3d(Volume3D(4, 3, 4, REPAIR_CYCLE))


def test_a_canvas_that_reaches_its_own_cap_raises():
    # Made-up rules over 2x2 windows. Codes 4 and 12 (a set cell with no
    # set cell above it or above-right, alone or with its right
    # neighbour) each list 100 hits. On the spinner, a 1 x 2 bar, a fix
    # flips the window's bit-3 cell, the bar's right end, which turns code
    # 12 into 4 and back, so its window takes all 100 hits in each round.
    # Elsewhere a fix deletes the window's bit-2 cell, which empties a
    # 3 x 3 block in three rounds of 3 edits.
    hits = tuple(tuple(range(100)) if code in (4, 12) else () for code in range(16))
    order = np.array([bool(hits[code]) for code in range(16)])
    spinner = np.zeros((3, 4), dtype=bool)
    spinner[1, 1:3] = True
    block = np.zeros((5, 5), dtype=bool)
    block[1:4, 1:4] = True
    stack = np.zeros((13, 5), dtype=bool)
    stack[0:5], stack[5:10], stack[10:13, :4] = block, block, spinner
    canvases = [(5, 25), (5, 25), (3, 12)]
    fixes = []

    def spinning_from(row):
        def fix(view, strides, vertex, _hit):
            line = strides[0]
            fixes.append(vertex)
            cell = vertex + line + (vertex >= row * line)
            grid._flip(view, strides, cell)
            return cell

        return fix

    # The blocks' first 6 edits, then the spinner's 48 = 4 x 12, far
    # below the 248 of all three caps.
    with pytest.raises(RepairDidNotConverge):
        _repair(stack, hits, order, spinning_from(10), canvases)
    assert len(fixes) == 6 + 48
    # With the stack as one canvas, the spinner spins on to the stack's
    # cap, 4 x 65 edits in all.
    fixes.clear()
    with pytest.raises(RepairDidNotConverge):
        _repair(stack, hits, order, spinning_from(10))
    assert len(fixes) == 260
    # Alone, a block converges and the spinner reaches its cap.
    fixes.clear()
    fixed, edits, _ = _repair(block, hits, order, spinning_from(5))
    assert not fixed.any() and len(edits) == len(fixes) == 9
    fixes.clear()
    with pytest.raises(RepairDidNotConverge):
        _repair(spinner, hits, order, spinning_from(0))
    assert len(fixes) == 48


def test_one_stack_is_one_repair_call_that_reads_every_code_once(monkeypatch):
    # 50 dirty components whose canvases are all 4 x 7 x 7: one stack.
    repairs, full_reads, coded = [], [], []
    repair_3d, hits, window_codes = topo3d.repair_3d, grid._hits, grid._window_codes

    def counting_repair(vol, **kwargs):
        repairs.append(len(kwargs["_canvases"]))
        return repair_3d(vol, **kwargs)

    def counting_hits(codes, table, order, at=None):
        if at is None:
            full_reads.append(codes.shape)
        return hits(codes, table, order, at)

    def counting_codes(p):
        coded.append(p.shape)
        return window_codes(p)

    monkeypatch.setattr(topo3d, "repair_3d", counting_repair)
    monkeypatch.setattr(grid, "_hits", counting_hits)
    monkeypatch.setattr(grid, "_window_codes", counting_codes)
    cells = np.concatenate([plate_pairs(10)] * 5, axis=0)
    reports, actions = analyze_volume(Volume3D(70, 7, 20, cells))
    assert len(reports) == 50 and len(actions) == 50
    assert repairs == [50]
    # The codes of the stack of 50 canvases of 4 x 7 x 7, padded by one
    # voxel: one window per vertex.
    assert full_reads == [(201, 8, 8)]
    # The padded grid and the padded stack are each coded once: the stack
    # is classified from the codes its repair kept current.
    assert sorted(coded) == [(22, 9, 72), (202, 9, 9)]


def plate_pair(cells, z, y, x, side):
    """A side x side plate at ``z`` and one voxel that meets its far
    corner at a vertex only, at ``z + 1``: a dirty 26-component whose
    canvas is 4 x (side + 3) x (side + 3). Repair deletes the voxel."""
    cells[z, y : y + side, x : x + side] = True
    cells[z + 1, y + side, x + side] = True


def counted_repairs(monkeypatch):
    """The stack of each ``repair_3d`` call the driver makes."""
    stacks = []
    repair_3d = topo3d.repair_3d

    def counting(vol, **kwargs):
        stacks.append((vol.cells.shape, len(kwargs["_canvases"])))
        return repair_3d(vol, **kwargs)

    monkeypatch.setattr(topo3d, "repair_3d", counting)
    return stacks


def test_canvases_of_several_classes_that_fit_go_to_one_stack(monkeypatch):
    # Canvases of 4 x 11 x 11, three of 4 x 7 x 7 and 4 x 4 x 4, which
    # round up to three classes, 20 x 11 x 11 = 2,420 cells in one stack
    # in a grid of 2,880: one repair call, which reads every code once.
    cells = np.zeros((6, 12, 40), dtype=bool)
    plate_pair(cells, 1, 1, 1, 8)
    for x in (14, 21, 28):
        plate_pair(cells, 1, 1, x, 4)
    plate_pair(cells, 1, 1, 35, 1)
    vol = Volume3D(40, 12, 6, cells)
    want = outcome(reference_analyze, vol, repair_fn=reference_repair_3d)
    full_reads, hits = [], grid._hits

    def counting_hits(codes, table, order, at=None):
        if at is None:
            full_reads.append(codes.shape)
        return hits(codes, table, order, at)

    stacks = counted_repairs(monkeypatch)
    monkeypatch.setattr(grid, "_hits", counting_hits)
    got = outcome(analyze_volume, vol)
    assert len(got[0]) == 5 and len(got[1]) == 5
    assert got == want
    assert stacks == [((20, 11, 11), 5)]
    assert full_reads == [(21, 12, 12)]


def test_canvases_that_would_overfill_one_stack_keep_their_classes(monkeypatch):
    # One canvas of 4 x 11 x 11 and six of 4 x 7 x 7: in one stack they
    # would take 28 x 11 x 11 = 3,388 cells, more than the grid's 2,332.
    # So each class has its stack, and none holds more than the grid.
    cells = np.zeros((4, 11, 53), dtype=bool)
    plate_pair(cells, 1, 1, 1, 8)
    for i in range(6):
        plate_pair(cells, 1, 1, 12 + 7 * i, 4)
    vol = Volume3D(53, 11, 4, cells)
    want = outcome(reference_analyze, vol, repair_fn=reference_repair_3d)
    stacks = counted_repairs(monkeypatch)
    got = outcome(analyze_volume, vol)
    assert len(got[0]) == 7 and len(got[1]) == 7
    assert got == want
    assert sorted(stacks) == [((4, 11, 11), 1), ((24, 7, 7), 6)]
    assert all(np.prod(shape) <= cells.size for shape, _ in stacks)
