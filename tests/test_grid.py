from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitopo import (
    Adjacency,
    Image2D,
    NoSuchComponentError,
    Volume3D,
    analyze_volume,
    cli_dispatch,
    extract_component,
    gen_frame,
    holes_pipeline,
    label_components_2d,
    label_components_3d,
    topo2d,
    topo3d,
    write_pbm,
    write_vox3,
)
from digitopo import grid
from digitopo.grid import (
    _HIGH_BIT,
    _LOW_BIT,
    _component_boxes,
    _component_canvas,
    _distinct_lists,
    _distinct_rows,
    _grid_of,
    _pad,
    _window_cells,
    _window_codes,
)
from gridtext import image, volume

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

RING_3X3 = volume(
    """
    111
    101
    111
    """
)


def test_out_of_range_reads_background():
    img = image("11\n11")
    assert img.get(-1, 0) is False
    assert img.get(0, 2) is False
    assert img.get(1, 1) is True
    vol = volume("1")
    assert vol.get(0, 0, 0) is True
    assert vol.get(0, 0, -1) is False
    assert vol.get(5, 5, 5) is False


def test_extent_and_shape_errors():
    for extents in ((0, 3), (3, -1)):
        with pytest.raises(ValueError, match="image extents must be positive"):
            Image2D(*extents)
    for extents in ((0, 1, 1), (1, 1, -2)):
        with pytest.raises(ValueError, match="volume extents must be positive"):
            Volume3D(*extents)
    # cells are (height, width) and (nz, ny, nx): the extents reversed.
    with pytest.raises(ValueError, match=r"shape \(3, 2\) does not match extent \(2, 3\)"):
        Image2D(3, 2, np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"shape \(2, 3, 4\) does not match extent \(4, 3, 2\)"):
        Volume3D(2, 3, 4, np.zeros((2, 3, 4)))


def test_labellers_reject_an_adjacency_of_the_other_dimension():
    img, vol = image("1"), volume("1")
    for a in (Adjacency.DIRECT_3D, Adjacency.INDIRECT_3D):
        with pytest.raises(ValueError, match="2D labeling requires a 2D adjacency"):
            label_components_2d(img, a)
    for a in (Adjacency.DIRECT_2D, Adjacency.INDIRECT_2D):
        with pytest.raises(ValueError, match="3D labeling requires a 3D adjacency"):
            label_components_3d(vol, a)


def test_label_empty_image_count_zero():
    img = Image2D(8, 8, np.zeros((8, 8), dtype=bool))
    assert label_components_2d(img).count == 0


def test_label_single_blob():
    assert label_components_2d(BLOB_NO_HOLE, Adjacency.DIRECT_2D).count == 1


def test_diagonal_pixels_direct_vs_indirect():
    img = image("10\n01")
    assert label_components_2d(img, Adjacency.DIRECT_2D).count == 2
    assert label_components_2d(img, Adjacency.INDIRECT_2D).count == 1


def test_label_order_is_scan_order():
    img = image(
        """
        010
        000
        101
        """
    )
    lab = label_components_2d(img, Adjacency.DIRECT_2D)
    assert lab.count == 3
    assert lab.labels[0, 1] == 1
    assert lab.labels[2, 0] == 2
    assert lab.labels[2, 2] == 3


def test_label_single_voxel():
    assert label_components_3d(volume("1")).count == 1


def test_vertex_sharing_voxels_direct_vs_indirect():
    vol = volume("10\n00", "00\n01")
    assert label_components_3d(vol, Adjacency.DIRECT_3D).count == 2
    assert label_components_3d(vol, Adjacency.INDIRECT_3D).count == 1


def test_ring_connected_under_direct():
    assert label_components_3d(RING_3X3, Adjacency.DIRECT_3D).count == 1


def test_extract_component_pads_by_one():
    img = image(
        """
        0000
        0110
        0000
        """
    )
    lab = label_components_2d(img)
    part = extract_component(lab, 1)
    assert (part.width, part.height) == (4, 3)
    assert part.cells[1, 1] and part.cells[1, 2]
    assert not part.cells[0].any() and not part.cells[2].any()


def test_extract_second_component():
    img = image("101")
    lab = label_components_2d(img)
    part = extract_component(lab, 2)
    assert part.cells.sum() == 1


def test_extract_component_preserves_blob():
    lab = label_components_2d(BLOB_NO_HOLE)
    part = extract_component(lab, 1)
    assert part.cells.sum() == BLOB_NO_HOLE.cells.sum()
    assert label_components_2d(part).count == 1


def test_extract_unknown_id():
    lab = label_components_2d(image("1"))
    with pytest.raises(NoSuchComponentError):
        extract_component(lab, 2)


def test_extract_component_3d():
    vol = volume("10\n00", "00\n01")
    lab = label_components_3d(vol, Adjacency.DIRECT_3D)
    part = extract_component(lab, 2)
    assert isinstance(part, Volume3D)
    assert part.cells.sum() == 1
    assert part.cells[1, 1, 1]


def test_direct_count_at_least_indirect_count():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cells = rng.random((9, 9)) < 0.4
        img = Image2D(9, 9, cells)
        direct = label_components_2d(img, Adjacency.DIRECT_2D).count
        indirect = label_components_2d(img, Adjacency.INDIRECT_2D).count
        assert direct >= indirect


def test_relabel_extracted_component_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cells = rng.random((8, 8)) < 0.45
        img = Image2D(8, 8, cells)
        lab = label_components_2d(img)
        for cid in range(1, lab.count + 1):
            piece = extract_component(lab, cid)
            assert label_components_2d(piece).count == 1


def test_component_canvas_with_and_without_box():
    rng = np.random.default_rng(5)
    for adjacency in Adjacency:
        shape = (6, 7) if adjacency.ndim == 2 else (4, 5, 6)
        label = label_components_2d if adjacency.ndim == 2 else label_components_3d
        for _ in range(10):
            lab = label(_grid_of(rng.random(shape) < 0.4), adjacency)
            boxes = _component_boxes(lab, range(1, lab.count + 1))
            for cid in range(1, lab.count + 1):
                canvas = _component_canvas(lab, cid, boxes[cid])
                assert canvas == _component_canvas(lab, cid)
                # The box, in a frame of one empty cell.
                inside = (slice(1, -1),) * adjacency.ndim
                assert np.array_equal(canvas.cells[inside], lab.labels[boxes[cid]] == cid)
                assert not canvas.cells.sum() - canvas.cells[inside].sum()
            for cid in (0, lab.count + 1):
                with pytest.raises(NoSuchComponentError):
                    _component_canvas(lab, cid)


def test_driver_cuts_pieces_through_component_canvas(monkeypatch, capsys, tmp_path):
    # A dirty component goes straight into its stack, with no canvas of
    # its own, and 3D ``validate`` counts each piece's surfaces in the
    # labeling that the driver gave it. A piece cut out alone (for the 2D
    # oracles of ``validate``, or without an answer in its table) goes
    # through ``_component_canvas``, which ``_canvases`` looks up when it
    # runs, so a wrapper (the benchmark's tracer) sees every such cut.
    cut = []

    def counted(labeling, component_id, box=None):
        cut.append(component_id)
        return real(labeling, component_id, box)

    real = grid._component_canvas
    monkeypatch.setattr(grid, "_component_canvas", counted)
    ring, pair = image("111\n101\n110"), volume("10\n00", "00\n01")
    holes_pipeline(ring)
    analyze_volume(pair)
    assert cut == []
    rng = np.random.default_rng(3)
    salt = Volume3D(12, 12, 12, rng.random((12, 12, 12)) < 0.1)
    write_vox3(salt, tmp_path / "salt.vox3")
    write_pbm(Image2D(30, 30, rng.random((30, 30)) < 0.3), tmp_path / "salt.pbm")
    for flags in ([], ["--no-repair"]):
        # 3D ``validate`` cuts only what the driver alone cuts: nothing
        # with repair, and without it the pieces of the dirty components,
        # which go to ``slow``.
        topo3d._columns(salt, not flags)
        slow, cut[:] = cut[:], []
        assert bool(slow) == bool(flags)
        cli_dispatch(["validate", "--json", *flags, str(tmp_path / "salt.vox3")])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(checks) > 50 and cut == slow
        cut.clear()
        # Every 2D piece is cut once, for the flood fill and the Euler count.
        cli_dispatch(["validate", "--json", *flags, str(tmp_path / "salt.pbm")])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(checks) > 30 and len(cut) == len(checks)
        cut.clear()
    # Unrepaired, the pair is two 6-pieces, each cut out for the oracle.
    analyze_volume(pair, repair=False)
    assert cut == [1, 2]


def _validate_out(digest, *checks):
    return json.dumps(
        {
            "agree": True,
            "checks": [{"agree": True, "component": i, **c} for i, c in enumerate(checks, 1)],
            "command": "validate",
            "input": f"sha256:{digest}",
            "schema_version": 1,
        },
        separators=(",", ":"),
    ) + "\n"


NIL = {"euler": 0, "formula": 0}


@pytest.mark.parametrize(
    "vol, flags, want",
    [
        # One 26-component, dirty: no clean component, one stack.
        (
            volume("10\n00", "00\n01"),
            [],
            _validate_out("eedaf2d517a9990d0a3515c5af67babc25a6eeb6cf1e399590b1c783af0373f0", NIL),
        ),
        (
            volume("10\n00", "00\n01"),
            ["--no-repair"],
            _validate_out(
                "eedaf2d517a9990d0a3515c5af67babc25a6eeb6cf1e399590b1c783af0373f0", NIL, NIL
            ),
        ),
        # An edge pair and a vertex pair, both dirty.
        (
            volume("10001\n01000", "00000\n00010"),
            [],
            _validate_out(
                "a312f07ac35b4fbe787abf2215754fd4dc9e31605b26a51e4a3e75b319d5e36a", NIL, NIL
            ),
        ),
        (
            volume("10001\n01000", "00000\n00010"),
            ["--no-repair"],
            _validate_out(
                "a312f07ac35b4fbe787abf2215754fd4dc9e31605b26a51e4a3e75b319d5e36a", *[NIL] * 4
            ),
        ),
        # No component at all.
        (
            Volume3D(5, 4, 3),
            [],
            _validate_out("1180ab7e405fd6291138997aa6d4ac0cb2cc19762dc2a17486c39b7db35cc7a3"),
        ),
        (
            Volume3D(5, 4, 3),
            ["--no-repair"],
            _validate_out("1180ab7e405fd6291138997aa6d4ac0cb2cc19762dc2a17486c39b7db35cc7a3"),
        ),
    ],
)
def test_validate_with_no_clean_component(capsys, tmp_path, vol, flags, want):
    # The grid's table of clean components is empty on each of these.
    path = tmp_path / "in.vox3"
    write_vox3(vol, path)
    assert cli_dispatch(["validate", "--json", *flags, str(path)]) == 0
    assert capsys.readouterr().out == want


@settings(max_examples=200, deadline=None)
@given(
    columns=st.sampled_from([6, 7]),
    pool=st.integers(1, 40),
    values=st.sampled_from([3, 2**40]),
    size=st.integers(0, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_distinct_rows_match_np_unique(columns, pool, values, size, seed):
    # Rows drawn from a small pool of 6 or 7 non-negative columns, so many
    # repeat, and with small values many share a prefix. The callers
    # read the inverse flat.
    rng = np.random.default_rng(seed)
    distinct = rng.integers(0, values, size=(pool, columns), endpoint=True)
    rows = distinct[rng.integers(0, pool, size=size)]
    got, inverse = _distinct_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(got[inverse], rows)


@settings(max_examples=100, deadline=None)
@given(
    width=st.sampled_from([8, 9]),
    lengths=st.lists(st.integers(1, 3), max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
def test_distinct_lists_match_a_dict_of_tuples(width, lengths, seed):
    # Lists of 1-3 rows from a pool of four, so many lists repeat and
    # lists of one length share rows with lists of another.
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 3, size=(4, width))
    rows = pool[rng.integers(0, 4, size=sum(lengths))].reshape(-1, width)
    index, distinct = _distinct_lists(np.array(lengths, dtype=np.int64), rows)
    starts = np.cumsum([0, *lengths]).tolist()
    lists = [rows[a:b].tolist() for a, b in zip(starts, starts[1:])]
    assert [distinct[i] for i in index.tolist()] == lists
    assert len(distinct) == len({str(x) for x in lists})


def reference_window_pixels(vertices, bits, width):
    """The 2D closed form that ``_window_cells`` replaced: flat pixel index
    of bit ``bits`` of each window, at flat vertices of the padded image's
    (height + 1, width + 1) codes."""
    return vertices - vertices // (width + 1) + (bits >> 1) * width + (bits & 1) - width - 1


def reference_vertex_owner(labels, vertices):
    """The largest label among the up-to-eight voxels incident to each
    vertex: the 3D owner lookup that reading the lowest voxel replaced."""
    nz, ny, nx = labels.shape
    p = np.zeros((nz + 2, ny + 2, nx + 2), dtype=labels.dtype)
    p[1:-1, 1:-1, 1:-1] = labels
    at = np.ravel_multi_index(np.unravel_index(vertices, (nz + 1, ny + 1, nx + 1)), p.shape)
    flat = p.ravel()
    offsets = [(dz, dy, dx) for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
    return np.maximum.reduce([flat[at + np.ravel_multi_index(d, p.shape)] for d in offsets])


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 16), st.integers(1, 16)),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_cells_match_2d_closed_form(shape, density, seed):
    cells = np.random.default_rng(seed).random(shape) < density
    codes = _window_codes(_pad(cells)).reshape(-1)
    vertices = np.flatnonzero(codes)
    for table in (_LOW_BIT, _HIGH_BIT):
        bits = table[codes[vertices]]
        got = _window_cells(shape, vertices, bits)
        assert got.tolist() == reference_window_pixels(vertices, bits, shape[1]).tolist()
        assert cells.reshape(-1)[got].all()


@settings(max_examples=300, deadline=None)
@given(
    shape=st.lists(st.integers(1, 12), min_size=2, max_size=3).map(tuple),
    size=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
)
def test_where_is_the_table_lookup(shape, size, seed):
    # Random uint8 codes in 2D and 3D, and tables of every length, as
    # ``_hits`` passes its ``order``: an entry past the end reads 0.
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, shape, dtype=np.uint8)
    table = rng.integers(0, 3, size, dtype=np.uint8)
    full = np.zeros(256, dtype=np.uint8)
    full[:size] = table
    want = np.flatnonzero(full[codes])
    assert grid._where(codes, table).tolist() == want.tolist()
    assert grid._where(codes, table.astype(bool)).tolist() == want.tolist()
    # Codes within the table, such as 2D codes against a 16-entry table.
    low = (codes % np.uint16(size)).astype(np.uint8)
    assert grid._where(low, table).tolist() == np.flatnonzero(table[low]).tolist()
    # A view that is not contiguous is read in its own scan order.
    view = codes[..., ::-2]
    assert grid._where(view, table).tolist() == np.flatnonzero(full[view]).tolist()


@pytest.mark.parametrize("shape", [(16, 16), (4, 8, 8)])
def test_where_reads_every_entry(shape):
    codes = np.arange(256, dtype=np.uint8)[::-1].reshape(shape)
    for code in range(256):
        for size in (code + 1, 256):
            table = np.zeros(size, dtype=np.uint8)
            table[code] = 1
            assert grid._where(codes, table).tolist() == [255 - code]


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 10)] * 3),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lowest_voxel_owner_is_max_of_eight(shape, density, seed):
    # Every object voxel of a window carries one 26-label, so the label of
    # its lowest object voxel is the largest label around the vertex.
    cells = np.random.default_rng(seed).random(shape) < density
    vol = _grid_of(cells)
    lab = label_components_3d(vol, Adjacency.INDIRECT_3D)
    p = _pad(cells)
    codes = _window_codes(p).reshape(-1)
    dirty = np.flatnonzero(topo3d._CODE_DIRTY[codes])
    surface = np.flatnonzero((codes != 0) & (codes != 255))
    for vertices in (dirty, surface):
        low = _window_cells(shape, vertices, _LOW_BIT[codes[vertices]])
        owner = lab.labels.reshape(-1)[low]
        assert owner.tolist() == reference_vertex_owner(lab.labels, vertices).tolist()
    want = sorted(set(reference_vertex_owner(lab.labels, dirty).tolist()))
    assert topo3d._scan(codes, lab)[0].tolist() == want


def test_driver_codes_each_grid_once(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p.shape)
        return _window_codes(p)

    for module in (grid, topo2d, topo3d):
        monkeypatch.setattr(module, "_window_codes", counting)
    analyze_volume(gen_frame(1))
    assert len(calls) == 1
    # A 2x2 block and a 2x1 bar in each 4x4 cell of a 15 x 15 grid: 450
    # clean components. The image is coded once: despeckling keeps its
    # codes current.
    cells = np.zeros((60, 60), dtype=bool)
    for y in range(0, 60, 4):
        for x in range(0, 60, 4):
            cells[y : y + 2, x : x + 2] = True
            cells[y + 2, x + 2 : x + 4] = True
    calls.clear()
    reports, _ = holes_pipeline(Image2D(60, 60, cells))
    assert len(reports) == 450
    assert calls == [(62, 62)]
