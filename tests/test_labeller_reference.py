"""The numpy run labeller, box finder and union against scipy.

``grid`` labels components from runs along x joined by a min-id union,
finds boxes from the same runs, and ``topo3d._surface_graph`` takes its
surface components from that union. scipy is the reference here only:
``ndimage.label`` renumbered in scan order, ``ndimage.find_objects`` and
``csgraph.connected_components`` on the graph the union is given.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage, sparse
from scipy.sparse import csgraph

from digitopo import grid, topo3d
from digitopo.grid import (
    Adjacency,
    Image2D,
    Labeling,
    Volume3D,
    _component_boxes,
    _count_components,
    _pad,
    _window_codes,
    label_components_2d,
    label_components_3d,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def scipy_labels(cells: np.ndarray, adjacency: Adjacency):
    """``ndimage.label``, renumbered so labels increase with each
    component's first cell in scan order."""
    rank = 1 if adjacency.is_direct else cells.ndim
    raw, count = ndimage.label(cells, ndimage.generate_binary_structure(cells.ndim, rank))
    values, first = np.unique(raw.ravel(), return_index=True)
    values, first = values[values > 0], first[values > 0]
    remap = np.zeros(count + 1, dtype=np.int64)
    remap[values[np.argsort(first)]] = np.arange(1, count + 1)
    return remap[raw], count


def label(cells: np.ndarray, adjacency: Adjacency) -> Labeling:
    if cells.ndim == 2:
        return label_components_2d(Image2D(cells.shape[1], cells.shape[0], cells), adjacency)
    nz, ny, nx = cells.shape
    return label_components_3d(Volume3D(nx, ny, nz, cells), adjacency)


def assert_matches_scipy(cells: np.ndarray, adjacency: Adjacency) -> None:
    lab = label(cells, adjacency)
    want, count = scipy_labels(cells, adjacency)
    assert lab.labels.dtype == np.int32
    assert lab.labels.flags.c_contiguous
    assert lab.count == count
    assert np.array_equal(lab.labels, want)
    assert lab.sizes.tolist() == np.bincount(want.ravel(), minlength=count + 1).tolist()
    assert _count_components(cells, adjacency) == count
    boxes = _component_boxes(lab, range(1, count + 1))
    assert [boxes[cid] for cid in range(1, count + 1)] == ndimage.find_objects(want)


@st.composite
def raw_grids(draw):
    """Unfiltered Bernoulli grids under any adjacency, sides 1-12."""
    adjacency = draw(st.sampled_from(list(Adjacency)))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(adjacency.ndim))
    density = draw(st.floats(0, 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape) < density, adjacency


def _examples():
    for adjacency in Adjacency:
        shape = (7, 5) if adjacency.ndim == 2 else (4, 7, 5)
        yield np.zeros(shape, dtype=bool), adjacency  # empty
        yield np.ones(shape, dtype=bool), adjacency  # full
        one_wide = np.zeros(shape[:-1] + (1,), dtype=bool)
        one_wide[..., ::2, :] = True
        yield one_wide, adjacency
        one_tall = np.zeros(shape[:-2] + (1, shape[-1]), dtype=bool)
        one_tall[..., ::2] = True
        yield one_tall, adjacency


def with_examples(test):
    for drawn in _examples():
        test = example(drawn=drawn)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(drawn=raw_grids())
@with_examples
def test_labels_and_boxes_match_scipy(drawn):
    assert_matches_scipy(*drawn)


@pytest.mark.parametrize("seed", [0, 64, 1 << 30])
def test_union_matches_csgraph(seed):
    # The union on random graphs of 0-600 edges, small ones included, and
    # on the run graphs of random volumes.
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        a, b = rng.integers(0, n, (2, int(rng.integers(0, 600))))
        keep = a < b
        a, b = a[keep], b[keep]
        graph = sparse.coo_matrix((np.ones(a.size), (a, b)), shape=(n, n))
        want = csgraph.connected_components(graph, directed=False)
        count, comp = grid._components(n, a, b)
        assert count == want[0]
        assert np.array_equal(comp, want[1])
        assert_matches_scipy(rng.random((9, 11, 13)) < rng.random(), Adjacency.INDIRECT_3D)


def csgraph_surface_components(node_ids: np.ndarray, codes: np.ndarray):
    """The surface-edge components of the points ``node_ids`` (ascending
    flat vertex indices into ``codes``), computed with scipy: every edge
    point to point, each end found by a search over all the points, and
    ``csgraph.connected_components`` numbering components by their
    smallest point."""
    n = node_ids.size
    up = topo3d._UP_EDGES[codes.ravel()[node_ids]]
    _, ny1, nx1 = codes.shape
    rows = [np.flatnonzero(up & bit) for bit in (1, 2, 4)]
    ends = [node_ids[r] + step for r, step in zip(rows, (1, nx1, ny1 * nx1))]
    a = np.concatenate(rows)
    b = np.searchsorted(node_ids, np.concatenate(ends))
    assert np.array_equal(node_ids[b], np.concatenate(ends))
    graph = sparse.coo_matrix((np.ones(a.size, dtype=np.int8), (a, b)), shape=(n, n)).tocsr()
    count, labels = csgraph.connected_components(graph, directed=False)
    return node_ids, count, labels


def assert_surface_graph_matches(cells: np.ndarray, rng) -> None:
    """``_surface_graph`` equals the reference on all the surface points
    of ``cells``, and on the points of random unions of its surfaces, as
    ``split_surface_components`` gets from a part."""
    codes = _window_codes(_pad(cells))
    node_ids = np.flatnonzero(topo3d._surface_mask(codes))
    want = csgraph_surface_components(node_ids, codes)
    parts = [node_ids]
    for _ in range(3):
        keep = rng.random(want[1]) < rng.random()
        parts.append(node_ids[keep[want[2]]])
    for ids in parts:
        got = topo3d._surface_graph(ids, codes)
        want = csgraph_surface_components(ids, codes)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert np.array_equal(got[2], want[2])


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(*(st.integers(1, 12),) * 3),
    density=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_surface_graph_matches_csgraph(shape, density, seed):
    rng = np.random.default_rng(seed)
    assert_surface_graph_matches(rng.random(shape) < density, rng)


def rods(n: int) -> np.ndarray:
    """One-voxel rods along x, one voxel apart along y and z: every line
    of surface points is one chain, from one end of the grid to the
    other."""
    cells = np.zeros((n, n, 3 * n), dtype=bool)
    cells[::2, ::2] = True
    return cells


def _thin(shape, density: float) -> np.ndarray:
    return np.random.default_rng(sum(shape)).random(shape) < density


@pytest.mark.parametrize(
    "cells",
    [
        pytest.param(rods(7), id="rods-7"),
        pytest.param(rods(8), id="rods-8"),
        pytest.param(np.ones((3, 4, 40), dtype=bool), id="box-3x4x40"),
    ]
    + [
        pytest.param(_thin(shape, density), id=f"{'x'.join(map(str, shape))}-{density}")
        for shape in [(1, 1, 1), (1, 1, 9), (1, 9, 1), (9, 1, 1), (1, 6, 7), (6, 1, 7), (6, 7, 1)]
        for density in (0.5, 1.0)
    ],
)
def test_surface_graph_on_long_chains_and_thin_grids(cells):
    assert_surface_graph_matches(cells, np.random.default_rng(cells.size))


def serpentine_2d(n: int) -> np.ndarray:
    """One-pixel vertical bars at even x, joined alternately at the top
    and bottom rows: a run per bar and row, chained end to end."""
    cells = np.zeros((n, n), dtype=bool)
    cells[:, ::2] = True
    cells[0, 1::4] = True
    cells[n - 1, 3::4] = True
    return cells


def serpentine_3d(n: int) -> np.ndarray:
    """A 2D serpentine on every even z-slab, joined alternately at two
    corners of the odd slabs."""
    cells = np.zeros((n, n, n), dtype=bool)
    cells[::2] = serpentine_2d(n)
    cells[1::4, 0, 0] = True
    cells[3::4, n - 1, 0] = True
    return cells


def spiral(n: int) -> np.ndarray:
    """A square spiral of one-pixel width with one-pixel gaps, walked
    clockwise from the top-left corner inward."""
    cells = np.zeros((n, n), dtype=bool)
    y = x = 0
    dy, dx = 0, 1
    cells[0, 0] = True
    for length in [n - 1] + [k for k in range(n - 1, 0, -2) for _ in (0, 1)]:
        for _ in range(length):
            y, x = y + dy, x + dx
            cells[y, x] = True
        dy, dx = dx, -dy
    return cells


SERPENTINE, SPIRAL, SERPENTINE_3D = serpentine_2d(1024), spiral(1024), serpentine_3d(128)


@pytest.mark.parametrize(
    "cells, adjacency",
    [
        (SERPENTINE, Adjacency.DIRECT_2D),
        (SERPENTINE, Adjacency.INDIRECT_2D),
        (SPIRAL, Adjacency.DIRECT_2D),
        (SPIRAL, Adjacency.INDIRECT_2D),
        (SERPENTINE_3D, Adjacency.DIRECT_3D),
        (SERPENTINE_3D, Adjacency.INDIRECT_3D),
    ],
    ids=["serpentine-4", "serpentine-8", "spiral-4", "spiral-8", "serpentine3d-6", "serpentine3d-26"],
)
def test_long_chains_of_runs_match_scipy(cells, adjacency):
    assert_matches_scipy(cells, adjacency)


def test_boxes_of_chosen_labels_only():
    rng = np.random.default_rng(3)
    lab = label(rng.random((20, 30)) < 0.4, Adjacency.DIRECT_2D)
    every = _component_boxes(lab, range(1, lab.count + 1))
    chosen = [1, lab.count, lab.count // 2]
    assert _component_boxes(lab, chosen) == {cid: every[cid] for cid in chosen}
    assert _component_boxes(lab, []) == {}


def test_cli_import_loads_no_scipy():
    code = (
        "import digitopo.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
