"""The whole-image 2D pipeline against the per-component one it replaced.

``topo2d._analyze_components`` labels the image once and reads the
speckles, holes, histograms and areas of every component from one window
code array; only a component with a diagonal window between two of its
own pixels is cut onto a canvas. The reference below is the old pipeline,
which cut every component onto its own canvas and ran speckle removal,
repair, relabelling and ``hole_count`` there. Both must give the same
reports, the same edits in the same order, the same pieces and the same
``PreconditionFailure`` text.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from digitopo import Image2D, PreconditionFailure, Volume3D, analyze_volume, grid, holes_pipeline
from digitopo.grid import (
    Adjacency,
    RepairAction,
    _component_boxes,
    _component_canvas,
    label_components_2d,
)
from digitopo.topo2d import (
    _analyze_components,
    _columns,
    hole_count,
    remove_speckles,
    repair_2d,
)
from gridtext import image
from test_topo3d import assert_same_answers, kept_canvases, reference_analyze


def _shift_actions(actions, origin):
    ox, oy = origin
    return [RepairAction(a.x + ox, a.y + oy, a.op, a.reason) for a in actions]


def reference_analyze_components(img, repair=True, fallback_oracle=True, repair_fn=repair_2d):
    labeling = label_components_2d(img, Adjacency.DIRECT_2D)
    actions = []
    results = []
    next_id = 1
    for cid in range(1, labeling.count + 1):
        canvas = _component_canvas(labeling, cid)
        origin = [s.start - 1 for s in _component_boxes(labeling, [cid])[cid]][::-1]
        canvas, speckle_actions = remove_speckles(canvas)
        actions.extend(_shift_actions(speckle_actions, origin))
        if not canvas.cells.any():
            continue
        if repair:
            canvas, repair_actions = repair_fn(canvas)
            actions.extend(_shift_actions(repair_actions, origin))
        sub = label_components_2d(canvas, Adjacency.DIRECT_2D)
        for sid in range(1, sub.count + 1):
            piece = _component_canvas(sub, sid)
            report = dataclasses.replace(hole_count(piece), component_id=next_id)
            if not report.precondition_ok and not fallback_oracle:
                raise PreconditionFailure(f"component {next_id} has a diagonal window")
            results.append((report, piece))
            next_id += 1
    return results, actions


def _outcome(fn, img, repair, fallback_oracle, **kwargs):
    try:
        return fn(img, repair, fallback_oracle, **kwargs)
    except PreconditionFailure as exc:
        return str(exc)


@st.composite
def raw_images(draw):
    """Bernoulli images, sides 1-40, scaled up 1-4 times by Kronecker product."""
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.integers(1, 4))
    coarse = np.random.default_rng(seed).random((h, w)) < density
    cells = np.kron(coarse, np.ones((scale, scale), dtype=bool))
    return Image2D(cells.shape[1], cells.shape[0], cells)


# A single pixel that touches a block only diagonally: its own canvas
# deletes it although it is not 8-isolated in the image.
SPECKLE_ON_A_CORNER = image(
    """
    1100
    1100
    0010
    """
)

# A diagonal window between two components: one outward corner each.
DIAGONAL_BETWEEN_TWO = image(
    """
    11100
    11100
    11100
    00011
    00011
    """
)

# A one-pixel hole, filled into the ring around it.
ONE_PIXEL_HOLE = image(
    """
    00000
    01110
    01010
    01110
    00000
    """
)

# A component with diagonal windows of its own, which repair splits into
# two pieces, then a ring around a one-pixel hole and a lone pixel. The
# ring's fill comes first in row-major order, but after the first
# component's repair edits in the log.
DIRTY_SPLIT_BY_REPAIR = image(
    """
    11100001110
    10111001010
    00101001110
    11100000000
    10011000000
    11010000001
    01110000000
    """
)

# Rings closed by a diagonal window, 3, 8, 3 and 16 pixels wide, so their
# canvases (widths 5, 10, 5 and 18) go to three stacks, the first holding
# two canvases.
DIRTY_OF_THREE_WIDTHS = image(
    """
    111011111111011101111111111111111
    101010000001010101000000000000001
    110011111110011001111111111111110
    """
)


# Repair fills the pinched top-left corner of this ring, which closes its
# hole.
FILL_CLOSES_A_HOLE = image(
    """
    0111
    1001
    1001
    1111
    """
)

# The same ring beside a bar that touches it only diagonally: the fill's
# outer 4-neighbour, at (0, 1), belongs to the bar.
FILL_BESIDE_A_DIAGONAL_NEIGHBOUR = image(
    """
    10000
    10111
    01001
    01001
    01111
    """
)

# Three diagonal windows of one component anchored in one 3x3 block of
# vertices: repair fills (2, 2) and then (3, 3), whose windows and
# pixels overlap.
OVERLAPPING_FILLS = image(
    """
    111111
    101111
    110111
    111011
    111101
    111111
    """
)


@settings(max_examples=200, deadline=None)
@given(img=raw_images())
@example(img=SPECKLE_ON_A_CORNER)
@example(img=DIAGONAL_BETWEEN_TWO)
@example(img=ONE_PIXEL_HOLE)
@example(img=DIRTY_SPLIT_BY_REPAIR)
@example(img=DIRTY_OF_THREE_WIDTHS)
@example(img=FILL_CLOSES_A_HOLE)
@example(img=FILL_BESIDE_A_DIAGONAL_NEIGHBOUR)
@example(img=OVERLAPPING_FILLS)
def test_pipeline_matches_reference(img):
    for repair in (True, False):
        for fallback_oracle in (True, False):
            ref = _outcome(reference_analyze_components, img, repair, fallback_oracle)
            got = _outcome(_analyze_components, img, repair, fallback_oracle)
            kept = _outcome(_columns, img, repair, fallback_oracle, keep_pieces=True)
            if isinstance(ref, str):
                assert got == kept == ref
            else:
                assert got == ([r for r, _ in ref[0]], ref[1])
                assert kept_canvases(kept) == [piece for _, piece in ref[0]]
                assert_same_answers(kept, _columns(img, repair, fallback_oracle))


def test_examples_take_the_paths_they_name():
    reports, actions = holes_pipeline(SPECKLE_ON_A_CORNER)
    assert [r.area for r in reports] == [4]
    assert [(a.x, a.y, a.op.value) for a in actions] == [(2, 2, "delete")]

    reports, _ = holes_pipeline(DIAGONAL_BETWEEN_TWO)
    assert [(r.holes, r.method.value) for r in reports] == [(0, "formula")] * 2

    reports, actions = holes_pipeline(ONE_PIXEL_HOLE)
    assert [(r.area, r.holes) for r in reports] == [(9, 0)]
    assert [(a.x, a.y, a.op.value) for a in actions] == [(2, 2, "add")]

    reports, actions = holes_pipeline(DIRTY_SPLIT_BY_REPAIR)
    assert [(r.area, r.holes) for r in reports] == [(8, 0), (11, 0), (9, 0)]
    assert [(a.x, a.y, a.op.value) for a in actions] == [
        (2, 3, "delete"),
        (2, 2, "delete"),
        (8, 1, "add"),
        (10, 5, "delete"),
    ]
    reports, _ = holes_pipeline(DIRTY_SPLIT_BY_REPAIR, repair=False)
    assert [(r.holes, r.method.value) for r in reports] == [
        (1, "oracle-fallback"),
        (0, "formula"),
    ]
    with pytest.raises(PreconditionFailure, match="^component 1 has a diagonal window$"):
        holes_pipeline(DIRTY_SPLIT_BY_REPAIR, repair=False, fallback_oracle=False)

    reports, actions = holes_pipeline(FILL_CLOSES_A_HOLE)
    assert [(r.area, r.holes) for r in reports] == [(12, 1)]
    assert [(a.x, a.y, a.op.value) for a in actions] == [(0, 0, "add")]

    reports, actions = holes_pipeline(FILL_BESIDE_A_DIAGONAL_NEIGHBOUR)
    assert [(r.area, r.holes) for r in reports] == [(2, 0), (12, 1)]
    assert [(a.x, a.y, a.op.value) for a in actions] == [(1, 1, "add")]

    reports, actions = holes_pipeline(OVERLAPPING_FILLS)
    assert [(r.area, r.holes) for r in reports] == [(34, 2)]
    assert [(a.x, a.y, a.op.value) for a in actions] == [(2, 2, "add"), (3, 3, "add")]


def test_clean_components_are_labelled_once(monkeypatch):
    calls = []
    label = grid.label_components_2d

    def counting(*args, **kwargs):
        calls.append(args)
        return label(*args, **kwargs)

    monkeypatch.setattr(grid, "label_components_2d", counting)
    # A 2x2 block and a 2x1 bar in each 4x4 cell of a 15 x 15 grid: 450
    # clean components, each touching others only diagonally.
    cells = np.zeros((60, 60), dtype=bool)
    for y in range(0, 60, 4):
        for x in range(0, 60, 4):
            cells[y : y + 2, x : x + 2] = True
            cells[y + 2, x + 2 : x + 4] = True
    reports, actions = holes_pipeline(Image2D(60, 60, cells))
    assert len(reports) == 450
    assert actions == []
    assert len(calls) == 1


def test_equal_answers_share_one_object():
    # Each distinct answer is built once, and every report of it shares
    # its objects: one histogram per distinct 2D answer, one tuple of
    # surfaces per distinct 3D answer. Distinct answers may still hold
    # equal parts in objects of their own.
    # 10% salt: about 1,000 components, with a few dozen distinct
    # answers among them.
    img = Image2D(256, 256, np.random.default_rng(1).random((256, 256)) < 0.10)
    reports, actions = holes_pipeline(img)
    ref = reference_analyze_components(img)
    assert reports == [r for r, _ in ref[0]] and actions == ref[1]
    answers = {(r.histogram, r.holes, r.method, r.precondition_ok) for r in reports}
    assert len({id(r.histogram) for r in reports}) == len(answers) < len(reports) // 10

    # 2% salt: mostly one-voxel components, with one surface each.
    vol = Volume3D(32, 32, 32, np.random.default_rng(2).random((32, 32, 32)) < 0.02)
    reports, actions = analyze_volume(vol)
    assert (reports, actions) == reference_analyze(vol)
    answers = {(r.boundary_surfaces, r.betti) for r in reports}
    assert len({id(r.boundary_surfaces) for r in reports}) == len(answers) < len(reports) // 10

    # A 5^3 cube around a one-voxel cavity beside a solid 5^3 cube: two
    # distinct answers, whose outer surfaces are equal values in two
    # objects.
    cells = np.zeros((5, 12, 5), dtype=bool)
    cells[:, :5] = cells[:, 6:11] = True
    cells[2, 2, 2] = False
    reports, actions = analyze_volume(Volume3D(5, 12, 5, cells))
    assert (reports, actions) == reference_analyze(Volume3D(5, 12, 5, cells))
    assert [len(r.boundary_surfaces) for r in reports] == [2, 1]
    assert len({id(r.boundary_surfaces) for r in reports}) == 2
    surfaces = [s for r in reports for s in r.boundary_surfaces]
    assert len({id(s) for s in surfaces}) == 3 and len(set(surfaces)) == 2
