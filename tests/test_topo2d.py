from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from digitopo import (
    CornerHistogram,
    HoleMethod,
    Image2D,
    RepairAction,
    RepairOp,
    RepairReason,
    check_preconditions_2d,
    classify_boundary_2d,
    euler_2d,
    find_pathologies_2d,
    hole_count,
    holes_by_floodfill,
    holes_pipeline,
    label_components_2d,
    remove_speckles,
    repair_2d,
)
from digitopo.grid import _pad, _window_codes
from digitopo.shapes import gen_fat_polyomino_2d, gen_holey_polyomino_2d, gen_noisy_image_2d
from digitopo.topo2d import (
    Diag2D,
    _TURN,
    _analyze_components,
    _answer,
    _columns,
    _despeckle,
    _piece_rows,
)
from gridtext import image
from test_topo3d import kept_canvases

# The two worked 8x8 matrices: a blob without holes (cp2=8, cp4=4) and a
# blob with one hole (cp2=6, cp4=6).
BLOB_NO_HOLE = image(
    """
    00000000
    00111100
    01111100
    01110000
    00110000
    00111000
    00111000
    00000000
    """
)

BLOB_ONE_HOLE = image(
    """
    00000000
    00111111
    01111111
    01110011
    01110011
    00111111
    00111111
    00000000
    """
)

# Fat 45-degree staircase of five 2x2 blocks overlapping by one pixel.
# Counted per boundary pixel its corners give h = 1 + (4 - 12)/4 = -1;
# counted at grid vertices they give the true 0.
STAIRCASE_FAT = image(
    """
    00000000
    01100000
    01110000
    00111000
    00011100
    00001110
    00000110
    00000000
    """
)


# ---------------------------------------------------------------------------
# speckles


def test_fill_center_speckle():
    img = image("111\n101\n111")
    out, actions = remove_speckles(img)
    assert out.cells.all()
    assert len(actions) == 1
    assert actions[0].op is RepairOp.ADD
    assert actions[0].reason is RepairReason.SPECKLE
    assert (actions[0].x, actions[0].y) == (1, 1)


def test_delete_isolated_pixel():
    img = image("000\n010\n000")
    out, actions = remove_speckles(img)
    assert not out.cells.any()
    assert [a.op for a in actions] == [RepairOp.DELETE]


def test_no_speckles_identity():
    out, actions = remove_speckles(BLOB_NO_HOLE)
    assert actions == []
    assert (out.cells == BLOB_NO_HOLE.cells).all()


def test_speckle_removal_rescans():
    # both pixels are isolated before either is deleted; both must go
    img = image(
        """
        00000
        01010
        00000
        """
    )
    out, actions = remove_speckles(img)
    assert not out.cells.any()
    assert len(actions) == 2


# ---------------------------------------------------------------------------
# pathologies


def test_single_main_diagonal():
    img = image("10\n01")
    found = find_pathologies_2d(img)
    assert len(found) == 1
    assert (found[0].x, found[0].y) == (0, 0)
    assert found[0].kind is Diag2D.MAIN


def test_single_anti_diagonal():
    img = image("01\n10")
    found = find_pathologies_2d(img)
    assert [p.kind for p in found] == [Diag2D.ANTI]


def test_solid_block_clean():
    img = image("111\n111\n111")
    assert find_pathologies_2d(img) == []


def test_staircase_of_width_one():
    img = image(
        """
        1000
        0100
        0010
        0001
        """
    )
    found = find_pathologies_2d(img)
    assert len(found) == 3
    # row-major report order
    assert [(p.x, p.y) for p in found] == [(0, 0), (1, 1), (2, 2)]


# ---------------------------------------------------------------------------
# repair


def test_repair_single_diagonal():
    img = image("10\n01")
    out, actions = repair_2d(img)
    assert find_pathologies_2d(out) == []
    assert len(actions) == 1
    assert actions[0].reason is RepairReason.PATHOLOGY


def test_repair_clean_is_identity():
    out, actions = repair_2d(BLOB_ONE_HOLE)
    assert actions == []
    assert (out.cells == BLOB_ONE_HOLE.cells).all()


def test_repair_chained_staircase_terminates_clean():
    img = image(
        """
        10000
        01000
        00100
        00010
        00001
        """
    )
    out, actions = repair_2d(img)
    assert find_pathologies_2d(out) == []
    again, more = repair_2d(out)
    assert more == []
    assert (again.cells == out.cells).all()


def test_repair_is_idempotent_on_noise():
    for seed in range(25):
        img = gen_noisy_image_2d(seed)
        out, _ = repair_2d(img)
        assert find_pathologies_2d(out) == []
        again, more = repair_2d(out)
        assert more == []
        assert (again.cells == out.cells).all()


# ---------------------------------------------------------------------------
# classification


def test_matrix_no_hole_histogram():
    hist = classify_boundary_2d(BLOB_NO_HOLE)
    assert hist.cp2 == 8
    assert hist.cp4 == 4
    assert hist.thin == 0


def test_matrix_one_hole_histogram():
    hist = classify_boundary_2d(BLOB_ONE_HOLE)
    assert hist.cp2 == 6
    assert hist.cp4 == 6


def test_square_block_histogram():
    hist = classify_boundary_2d(image("11\n11"))
    assert (hist.cp1, hist.cp2, hist.cp3, hist.cp4) == (0, 4, 0, 0)
    assert hist.thin == 0


def test_histogram_counts_boundary_only():
    img = image(
        """
        11111
        11111
        11111
        11111
        11111
        """
    )
    hist = classify_boundary_2d(img)
    # the 3x3 interior is not boundary; 16 edge pixels split 4 corners + 12 sides
    assert hist.boundary_total == 16
    assert hist.cp2 == 4
    assert hist.cp3 == 12


def test_classify_empty_raises():
    with pytest.raises(ValueError):
        classify_boundary_2d(Image2D(3, 3, np.zeros((3, 3), dtype=bool)))


# ---------------------------------------------------------------------------
# preconditions


def test_preconditions_pass_on_worked_matrix():
    assert check_preconditions_2d(BLOB_ONE_HOLE).ok


THIN_RING = image(
    """
    11111
    10001
    10001
    10001
    11111
    """
)
STRAY_PIXEL = image("1")
DIAGONAL_PAIR = image("1100\n0011")


def test_pathological_window_fails():
    pre = check_preconditions_2d(DIAGONAL_PAIR)
    assert not pre.ok
    assert len(pre.pathologies) > 0


# ---------------------------------------------------------------------------
# hole counts


def test_hole_count_no_hole():
    rep = hole_count(BLOB_NO_HOLE)
    assert rep.holes == 0
    assert rep.method is HoleMethod.FORMULA
    assert rep.precondition_ok


def test_hole_count_one_hole():
    rep = hole_count(BLOB_ONE_HOLE)
    assert rep.holes == 1
    assert rep.method is HoleMethod.FORMULA


def test_hole_count_square():
    rep = hole_count(image("11\n11"))
    assert rep.holes == 0
    assert rep.area == 4


@pytest.mark.parametrize(
    "img, holes",
    [(STAIRCASE_FAT, 0), (THIN_RING, 1), (STRAY_PIXEL, 0)],
    ids=["staircase", "thin", "stray"],
)
def test_formula_answers_without_diagonal_window(img, holes):
    # Shapes a per-pixel corner count gets wrong or must refuse: a fat
    # staircase, a width-1 ring and a lone pixel. Vertex corners are exact.
    assert check_preconditions_2d(img).ok
    rep = hole_count(img)
    assert rep.method is HoleMethod.FORMULA
    assert rep.precondition_ok
    assert rep.holes == holes


def test_hole_count_empty_raises():
    with pytest.raises(ValueError):
        hole_count(Image2D(2, 2, np.zeros((2, 2), dtype=bool)))


def test_hole_count_single_component_guard():
    two = image(
        """
        11011
        11011
        """
    )
    with pytest.raises(ValueError, match="single connected component"):
        hole_count(two)
    for half in (two.cells[:, :2], two.cells[:, 3:]):
        rep = hole_count(Image2D(2, 2, half))
        assert (rep.component_id, rep.area, rep.holes) == (1, 4, 0)


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_both_matrices_side_by_side():
    canvas = np.zeros((8, 18), dtype=bool)
    canvas[:, :8] = BLOB_NO_HOLE.cells
    canvas[:, 10:] = BLOB_ONE_HOLE.cells
    reports, actions = holes_pipeline(Image2D(18, 8, canvas))
    assert [r.holes for r in reports] == [0, 1]
    assert actions == []


def test_pipeline_empty_canvas():
    reports, actions = holes_pipeline(Image2D(4, 4, np.zeros((4, 4), dtype=bool)))
    assert reports == []
    assert actions == []


# An 18x13 component whose per-pixel corner counts balance (cp2 = cp4 = 40
# once scaled) although it has four holes.
REPLAY_DEFECT = image(
    """
    0000001000000
    0000001100000
    0000001000000
    0000001000000
    0000111000000
    0000011100000
    0000011000000
    0000110000000
    0000011110000
    0000011010000
    0011111000000
    0011101110000
    0001010111100
    0011110110110
    0111111011010
    1100110001011
    1000010000001
    0000000000001
    """
)


@pytest.mark.parametrize("scale", [3, 16])
def test_pipeline_counts_defect_holes_by_formula(scale):
    cells = np.kron(REPLAY_DEFECT.cells, np.ones((scale, scale), dtype=bool))
    img = Image2D(cells.shape[1], cells.shape[0], cells)
    reports, _ = holes_pipeline(img)
    assert [(r.holes, r.method) for r in reports] == [(4, HoleMethod.FORMULA)]


def test_pipeline_speckle_hole_is_filled():
    ring = image(
        """
        111
        101
        111
        """
    )
    reports, actions = holes_pipeline(ring)
    assert len(reports) == 1
    assert reports[0].holes == 0
    assert any(a.reason is RepairReason.SPECKLE and a.op is RepairOp.ADD for a in actions)


# ---------------------------------------------------------------------------
# properties over generated corpora


def test_lemma_simply_connected_boundary_balance():
    """cp2 = cp4 + 4 on simply connected fat shapes."""
    for seed in range(40):
        img = gen_fat_polyomino_2d(seed, 64 + 13 * seed)
        hist = classify_boundary_2d(img)
        assert check_preconditions_2d(img).ok
        assert hist.cp2 == hist.cp4 + 4


def test_formula_matches_both_oracles():
    for seed in range(30):
        img = gen_holey_polyomino_2d(seed, 300, holes=seed % 3)
        rep = hole_count(img)
        assert rep.method is HoleMethod.FORMULA
        flood = holes_by_floodfill(img)
        chi = euler_2d(img).chi
        assert rep.holes == flood == 1 - chi


def test_divisibility_on_passing_components():
    # Vertex corners: C4 - C2 is a multiple of 4 without any diagonal window.
    for seed in range(30):
        img = gen_holey_polyomino_2d(seed + 1000, 280, holes=seed % 3)
        if check_preconditions_2d(img).ok:
            bins = np.bincount(_window_codes(_pad(img.cells)).ravel(), minlength=16)
            assert int(bins @ _TURN) % 4 == 0


def test_drilling_a_hole_adds_four_cp4():
    """An interior 2x2 hole raises cp4 by 4 and the count by 1."""
    rng = random.Random(77)
    checked = 0
    for seed in range(40):
        img = gen_fat_polyomino_2d(seed, 420)
        cells = img.cells.copy()
        interior = np.argwhere(cells)
        spots = [
            (y, x)
            for y, x in interior
            if y >= 2
            and x >= 2
            and y + 4 <= img.height
            and x + 4 <= img.width
            and cells[y - 2 : y + 4, x - 2 : x + 4].all()
        ]
        if not spots:
            continue
        y, x = spots[rng.randrange(len(spots))]
        before = hole_count(img)
        cells[y : y + 2, x : x + 2] = False
        drilled = hole_count(Image2D(img.width, img.height, cells))
        assert drilled.method is HoleMethod.FORMULA
        assert drilled.histogram.cp4 == before.histogram.cp4 + 4
        assert drilled.holes == before.holes + 1
        checked += 1
    assert checked >= 10


@st.composite
def raw_images(draw):
    """Bernoulli images, sides 1-19, scaled up 1-4 times by Kronecker product."""
    h = draw(st.integers(1, 19))
    w = draw(st.integers(1, 19))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.integers(1, 4))
    coarse = np.random.default_rng(seed).random((h, w)) < density
    cells = np.kron(coarse, np.ones((scale, scale), dtype=bool))
    return Image2D(cells.shape[1], cells.shape[0], cells)


@settings(max_examples=150, deadline=None)
@given(img=raw_images())
def test_every_piece_matches_both_oracles(img):
    for repair in (True, False):
        reports, _ = _analyze_components(img, repair)
        pieces = kept_canvases(_columns(img, repair, keep_pieces=True))
        assert len(pieces) == len(reports)
        for rep, piece in zip(reports, pieces):
            assert rep.holes == holes_by_floodfill(piece) == 1 - euler_2d(piece).chi
            formula = rep.method is HoleMethod.FORMULA
            assert formula == (not find_pathologies_2d(piece))


@settings(max_examples=200, deadline=None)
@given(img=raw_images())
@example(img=image("1"))
@example(img=image("11111\n10101\n11111"))  # two fills with one owner
@example(img=image("101\n000\n101"))  # four deletions
def test_speckle_scan_keeps_the_sizes_a_recount(img):
    # The driver's 2D scan edits the labels in place, and their sizes
    # beside them.
    labeling = label_components_2d(img)
    p = _pad(img.cells)
    _despeckle(_window_codes(p), labeling)
    want = np.bincount(labeling.labels.ravel(), minlength=labeling.count + 1)
    assert labeling.sizes.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# references: the per-pixel 3x3 kernel and the fixpoint speckle loop that
# the window-code reads replaced


def _ref_indirect_fold(p: np.ndarray, op) -> np.ndarray:
    """``op`` folded over the 8 indirect neighbors, read from a padded grid."""
    h, w = p.shape[0] - 2, p.shape[1] - 2
    acc = None
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            if dx == 1 and dy == 1:
                continue
            part = p[dy : dy + h, dx : dx + w]
            acc = part if acc is None else op(acc, part)
    return acc


def _ref_histogram(cells: np.ndarray) -> CornerHistogram:
    p = _pad(cells)
    n, s, w, e = p[:-2, 1:-1], p[2:, 1:-1], p[1:-1, :-2], p[1:-1, 2:]
    counts = n.astype(np.int8) + s + w + e
    boundary = cells & ~_ref_indirect_fold(p, np.logical_and)
    thin = boundary & (((n & s) & ~(w | e)) | ((w & e) & ~(n | s)))
    bins = np.bincount(counts[boundary], minlength=5)
    return CornerHistogram(
        cp1=int(bins[1]),
        cp2=int(bins[2]),
        cp3=int(bins[3]),
        cp4=int(bins[4]),
        thin=int(thin.sum()),
        cp0=int(bins[0]),
    )


def _ref_remove_speckles(img: Image2D) -> tuple[Image2D, list[RepairAction]]:
    cells = img.cells.copy()
    actions = []
    while True:
        p = _pad(cells)
        fills = ~cells & _ref_indirect_fold(p, np.logical_and)
        deletes = cells & ~_ref_indirect_fold(p, np.logical_or)
        if not fills.any() and not deletes.any():
            break
        ys, xs = np.nonzero(fills | deletes)
        for y, x in zip(ys.tolist(), xs.tolist()):
            op = RepairOp.ADD if fills[y, x] else RepairOp.DELETE
            actions.append(RepairAction(x, y, op, RepairReason.SPECKLE))
        cells[fills] = True
        cells[deletes] = False
    return Image2D(img.width, img.height, cells), actions


@settings(max_examples=300, deadline=None)
@given(img=raw_images())
@example(img=image("1"))
@example(img=image("1101011"))
@example(img=image("1\n0\n1\n1\n0"))
def test_window_code_reads_match_3x3_kernel(img):
    out, actions = remove_speckles(img)
    ref, ref_actions = _ref_remove_speckles(img)
    assert actions == ref_actions
    assert (out.cells == ref.cells).all()
    assert remove_speckles(out)[1] == []
    if img.cells.any():
        hist = _ref_histogram(img.cells)
        assert classify_boundary_2d(img) == hist
        assert _answer(_piece_rows(img))[0] == hist
