"""Answers that do not depend on the file's axis order.

A topological invariant must not change when the grid is flipped, its
axes are swapped or it is framed by empty cells. The grids are raw
Bernoulli draws, none re-drawn. Every draw is checked under padding,
which moves no cell relative to another, so even greedy repair, which
visits windows in scan order, gives the same answers. Greedy repair's
answer on dirty input depends on the orientation (README), so the
symmetries are checked on clean grids, where each answer is the
component's own topology: the draw itself when it has no pathological
window, and the draw after the ``repair`` command's whole-grid repair,
which leaves none, when that converges.
"""

import itertools

import numpy as np
from hypothesis import event, given, settings, strategies as st

from digitopo import (
    Image2D,
    RepairDidNotConverge,
    Volume3D,
    analyze_volume,
    find_pathologies_2d,
    find_pathologies_3d,
    holes_pipeline,
    remove_speckles,
    repair_2d,
    repair_3d,
)


def symmetries(cells: np.ndarray):
    """``cells`` under every symmetry of the square or the cube: each
    permutation of the axes with each set of flipped axes."""
    for axes in itertools.permutations(range(cells.ndim)):
        for flips in itertools.product((False, True), repeat=cells.ndim):
            moved = cells.transpose(axes)[
                tuple(slice(None, None, -1) if f else slice(None) for f in flips)
            ]
            yield np.ascontiguousarray(moved)


def grid_of(cells: np.ndarray):
    if cells.ndim == 2:
        return Image2D(cells.shape[1], cells.shape[0], cells)
    return Volume3D(cells.shape[2], cells.shape[1], cells.shape[0], cells)


def answers(cells: np.ndarray):
    """The sorted answers of every piece, or the type of what the
    pipeline raised: (area, holes) in 2D; (voxels, Betti numbers, sorted
    surface genera) in 3D."""
    try:
        if cells.ndim == 2:
            reports, _ = holes_pipeline(grid_of(cells))
            return sorted((r.area, r.holes) for r in reports)
        reports, _ = analyze_volume(grid_of(cells))
    except RepairDidNotConverge as e:
        return type(e)
    return sorted(
        (r.voxel_count, r.betti, sorted(s.genus for s in r.boundary_surfaces)) for r in reports
    )


def clean_grids(cells: np.ndarray):
    """The draw if it is clean, and its whole-grid repair if that
    converges."""
    find = find_pathologies_2d if cells.ndim == 2 else find_pathologies_3d
    if not find(grid_of(cells)):
        event("the draw is clean")
        yield cells
    try:
        if cells.ndim == 2:
            repaired, _ = repair_2d(remove_speckles(grid_of(cells))[0])
        else:
            repaired, _ = repair_3d(grid_of(cells))
    except RepairDidNotConverge:
        event("whole-grid repair cycles")
        return
    yield repaired.cells


@st.composite
def raw_grids(draw, ndim: int, side: int):
    shape = draw(st.tuples(*[st.integers(2, side)] * ndim))
    density = draw(st.floats(0.0, 0.95))
    seed = draw(st.integers(0, 2**32 - 1))
    cells = np.random.default_rng(seed).random(shape) < density
    pad = draw(st.tuples(*[st.tuples(st.integers(0, 2), st.integers(0, 2))] * ndim))
    return cells, pad


def check(cells, pad):
    assert answers(np.pad(cells, pad)) == answers(cells)
    for clean in clean_grids(cells):
        want = answers(clean)
        for moved in symmetries(clean):
            assert answers(moved) == want


@settings(max_examples=60, deadline=None)
@given(drawn=raw_grids(3, 6))
def test_volume_answers_keep_under_symmetry_and_padding(drawn):
    check(*drawn)


@settings(max_examples=150, deadline=None)
@given(drawn=raw_grids(2, 16))
def test_image_answers_keep_under_symmetry_and_padding(drawn):
    check(*drawn)
