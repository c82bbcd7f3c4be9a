from __future__ import annotations

import numpy as np
import pytest

from digitopo import (
    Adjacency,
    Image2D,
    NoSuchComponentError,
    Volume3D,
    extract_component,
    label_background_2d,
    label_components_2d,
    label_components_3d,
    window2,
    window8,
)
from digitopo import grid
from digitopo.grid import (
    _component_canvas,
    _label_sizes,
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


def test_background_solid_block_one_region():
    img = image(
        """
        00000
        01110
        01110
        01110
        00000
        """
    )
    assert label_background_2d(img).count == 1


def test_background_one_hole_two_regions():
    lab = label_background_2d(BLOB_ONE_HOLE, Adjacency.DIRECT_2D)
    assert lab.count == 2
    # outer region is label 1 even though the hole appears first in scan
    # order of the interior
    assert lab.labels[0, 0] == 1
    assert lab.labels[3, 5] == 2


def test_background_ring_two_regions():
    ring = image(
        """
        11111
        10001
        10001
        10001
        11111
        """
    )
    assert label_background_2d(ring).count == 2


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


def test_window2_interior_and_outside():
    img = image(
        """
        111
        111
        111
        """
    )
    assert window2(img, 0, 0) == (True, True, True, True)
    assert window2(img, -2, -2) == (False, False, False, False)
    edge = window2(img, 2, 0)
    assert edge == (True, False, True, False)


def test_window8_on_ring_corner():
    # anchored at the hole corner: the window holds the center hole, three
    # ring voxels above/beside it, and four empty cells of the z+1 layer
    w = window8(RING_3X3, 0, 0, 0)
    assert w == (True, True, True, False, False, False, False, False)
    assert window8(RING_3X3, 9, 9, 9) == (False,) * 8


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


@pytest.mark.parametrize("block", [1, 2, 5, 1 << 18])
def test_label_passes_agree_across_block_sizes(monkeypatch, block):
    # The sizes run a block of cells at a time; the answer must not
    # depend on where the blocks end.
    monkeypatch.setattr(grid, "_BLOCK", block)
    rng = np.random.default_rng(4)
    for _ in range(100):
        ordered = label_components_2d(Image2D(9, 7, rng.random((7, 9)) < 0.5))
        labels, count = ordered.labels, ordered.count
        assert _label_sizes(labels, count).tolist() == np.bincount(
            labels.ravel(), minlength=count + 1
        ).tolist()
