from __future__ import annotations

import numpy as np
import pytest

from digitopo import (
    Image2D,
    InvalidSurfaceError,
    SurfaceHistogram,
    Volume3D,
    curvature_audit,
    euler_2d,
    euler_surface_3d,
    holes_by_floodfill,
)
from digitopo.shapes import gen_holey_polyomino_2d, gen_shell
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


def test_floodfill_no_hole():
    assert holes_by_floodfill(BLOB_NO_HOLE) == 0
    # No background pixel in range: the frame still gives the outer region.
    for h, w in ((1, 1), (3, 5), (6, 2)):
        assert holes_by_floodfill(Image2D(w, h, np.ones((h, w), dtype=bool))) == 0


def test_floodfill_one_hole():
    assert holes_by_floodfill(BLOB_ONE_HOLE) == 1


def test_floodfill_ring():
    ring = image(
        """
        11111
        10001
        10001
        10001
        11111
        """
    )
    assert holes_by_floodfill(ring) == 1


def test_euler_2d_solid_3x3():
    s = euler_2d(image("111\n111\n111"))
    assert (s.v, s.e, s.f) == (16, 24, 9)
    assert s.chi == 1


def test_euler_2d_single_pixel():
    s = euler_2d(image("1"))
    assert (s.v, s.e, s.f) == (4, 4, 1)
    assert s.chi == 1


def test_euler_2d_one_hole_matrix():
    assert euler_2d(BLOB_ONE_HOLE).chi == 0


def test_euler_oracles_agree():
    for seed in range(25):
        img = gen_holey_polyomino_2d(seed, 350, holes=seed % 3)
        assert 1 - euler_2d(img).chi == holes_by_floodfill(img)


def test_surface_single_voxel():
    (s,) = euler_surface_3d(volume("1"))
    assert (s.v, s.e, s.f) == (8, 12, 6)
    assert s.chi == 2


def test_surface_ring():
    (s,) = euler_surface_3d(RING_3X3)
    assert (s.v, s.e, s.f) == (32, 64, 32)
    assert s.chi == 0


def test_surface_shell_two_components():
    shell = gen_shell((3, 3, 3), (1, 1, 1))
    summaries = euler_surface_3d(shell)
    assert [s.chi for s in summaries] == [2, 2]
    assert summaries[0].f > summaries[1].f  # outer listed before cavity


def test_surface_empty_volume():
    vol = Volume3D(2, 2, 2, np.zeros((2, 2, 2), dtype=bool))
    assert euler_surface_3d(vol) == []


def test_vertex_pair_splits_into_two_cubes():
    # faces connect through shared edges, so a vertex pinch does not merge
    # the two cube surfaces
    vol = volume("10\n00", "00\n01")
    assert [s.chi for s in euler_surface_3d(vol)] == [2, 2]


def test_nonmanifold_edge_pair_rejected():
    # two voxels sharing exactly one edge: 4 boundary faces meet there,
    # v - e + f = 14 - 23 + 12 = 3, and odd chi must be refused
    vol = volume("10\n01")
    with pytest.raises(InvalidSurfaceError):
        euler_surface_3d(vol)


def test_translation_invariance():
    base = RING_3X3.cells
    shifted = np.zeros((4, 6, 7), dtype=bool)
    shifted[2:3, 2:5, 3:6] = base
    a = euler_surface_3d(RING_3X3)
    b = euler_surface_3d(Volume3D(7, 6, 4, shifted))
    assert [(s.v, s.e, s.f) for s in a] == [(s.v, s.e, s.f) for s in b]


def test_rotation_invariance():
    vol = gen_shell((4, 3, 2), None)
    rot = np.rot90(vol.cells, axes=(1, 2))
    vol_r = Volume3D(rot.shape[2], rot.shape[1], rot.shape[0], rot)
    a = euler_surface_3d(vol)
    b = euler_surface_3d(vol_r)
    assert [(s.v, s.e, s.f) for s in a] == [(s.v, s.e, s.f) for s in b]


def test_curvature_audit_cube():
    assert curvature_audit(SurfaceHistogram(m3=8, m4=0, m5=0, m6=0), 0)


def test_curvature_audit_torus_frame():
    assert curvature_audit(SurfaceHistogram(m3=8, m4=16, m5=8, m6=0), 1)


def test_curvature_audit_corrupted():
    assert not curvature_audit(SurfaceHistogram(m3=9, m4=0, m5=0, m6=0), 0)
