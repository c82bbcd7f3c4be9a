"""3D pipeline tests: pathologies, repair, surfaces, genus, homology.

Expected histograms and Betti numbers were frozen from the cubical Euler
oracle and hand enumeration on small volumes before the classification
code existed.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from digitopo import (
    Adjacency,
    InvalidSurfaceError,
    Pathology3D,
    Pathology3DKind,
    RepairDidNotConverge,
    RepairOp,
    Volume3D,
    analyze_volume,
    classify_surface,
    euler_surface_3d,
    find_pathologies_3d,
    genus,
    gen_block_3d,
    gen_frame,
    gen_shell,
    grid,
    homology,
    label_components_3d,
    repair_3d,
    split_surface_components,
    to_point_space,
)
from digitopo.grid import (
    RepairAction,
    _canvases,
    _component_boxes,
    _component_canvas,
    _pad,
    _window_codes,
)
from digitopo.oracle import _euler_surfaces
from digitopo.topo3d import (
    SurfaceHistogram,
    SurfaceReport,
    TopoReport3D,
    _CODE_DIRTY,
    _CODE_HITS,
    _DEGREE,
    _UP_EDGES,
    _columns,
    _face_degree,
)

from gridtext import NONCONVERGENT_SLABS, REPAIR_CYCLE, volume
from test_repair_reference import _fix_3d, _matches_3d


def hist_tuple(h):
    return (h.m3, h.m4, h.m5, h.m6, h.irregular)


def solid(nx, ny, nz):
    # Unpadded block, for tests that assert exact coordinates.
    return Volume3D(nx, ny, nz, np.ones((nz, ny, nx), dtype=bool))


# ---------------------------------------------------------------------------
# pathology detection


class TestFindPathologies:
    def test_clean_block(self):
        assert find_pathologies_3d(gen_block_3d(3, 3, 3)) == []

    def test_vertex_pair(self):
        vol = volume("10\n00", "00\n01")
        found = find_pathologies_3d(vol)
        assert len(found) == 1
        p = found[0]
        assert p.kind is Pathology3DKind.VERTEX_PAIR
        assert (p.x, p.y, p.z) == (0, 0, 0)
        assert set(p.pair) == {(0, 0, 0), (1, 1, 1)}

    def test_vertex_pair_other_diagonal(self):
        vol = volume("01\n00", "00\n10")
        found = find_pathologies_3d(vol)
        assert len(found) == 1
        assert found[0].kind is Pathology3DKind.VERTEX_PAIR
        assert set(found[0].pair) == {(1, 0, 0), (0, 1, 1)}

    def test_edge_pair_x_axis(self):
        # Two voxels sharing the x-directed edge between them.
        vol = volume("1\n0", "0\n1")
        found = find_pathologies_3d(vol)
        assert len(found) == 1
        p = found[0]
        assert p.kind is Pathology3DKind.EDGE_PAIR
        assert p.axis == 0
        assert set(p.pair) == {(0, 0, 0), (0, 1, 1)}

    def test_edge_pair_y_axis(self):
        vol = volume("10", "01")
        found = find_pathologies_3d(vol)
        assert len(found) == 1
        assert found[0].axis == 1
        assert set(found[0].pair) == {(0, 0, 0), (1, 0, 1)}

    def test_edge_pair_z_axis(self):
        vol = volume("10\n01")
        found = find_pathologies_3d(vol)
        assert len(found) == 1
        assert found[0].axis == 2
        assert set(found[0].pair) == {(0, 0, 0), (1, 1, 0)}

    def test_complement_vertex_pair(self):
        vol = volume("01\n11", "11\n10")
        found = find_pathologies_3d(vol)
        assert len(found) == 1
        p = found[0]
        assert p.kind is Pathology3DKind.COMPLEMENT_VERTEX_PAIR
        assert set(p.pair) == {(0, 0, 0), (1, 1, 1)}

    def test_vertex_pair_with_companion_is_not_reported(self):
        # A third voxel 6-adjacent to one of the diagonal pair gives the
        # window an object count of 3, which matches no pattern.
        vol = volume("10\n10", "00\n01")
        kinds = {p.kind for p in find_pathologies_3d(vol)}
        assert Pathology3DKind.VERTEX_PAIR not in kinds

    def test_scan_order(self):
        # Two separated vertex pairs; anchors must come out in z, y, x order.
        cells = np.zeros((2, 2, 5), dtype=bool)
        cells[0, 0, 0] = cells[1, 1, 1] = True
        cells[0, 0, 3] = cells[1, 1, 4] = True
        vol = Volume3D(5, 2, 2, cells)
        found = find_pathologies_3d(vol)
        assert [(p.x, p.y, p.z) for p in found] == [(0, 0, 0), (3, 0, 0)]


# ---------------------------------------------------------------------------
# repair


class TestRepair:
    def test_vertex_pair_deletes_one(self):
        vol = volume("10\n00", "00\n01")
        fixed, actions = repair_3d(vol)
        assert len(actions) == 1
        assert actions[0].op is RepairOp.DELETE
        assert find_pathologies_3d(fixed) == []
        assert fixed.voxel_count == 1

    def test_delete_prefers_less_connected(self):
        # Edge pair (1,0,0)/(1,1,1); the first is reinforced by the
        # 6-neighbor at (0,0,0), so the bare (1,1,1) must go.
        cells = np.zeros((2, 2, 3), dtype=bool)
        cells[0, 0, 1] = cells[1, 1, 1] = True
        cells[0, 0, 0] = True
        vol = Volume3D(3, 2, 2, cells)
        fixed, actions = repair_3d(vol)
        deletes = [a for a in actions if a.op is RepairOp.DELETE]
        assert (deletes[0].x, deletes[0].y, deletes[0].z) == (1, 1, 1)
        assert find_pathologies_3d(fixed) == []

    def test_delete_tie_breaks_to_scan_later(self):
        # Both pair voxels isolated: degrees tie at 0, the later flat
        # index is deleted and the anchor voxel survives.
        vol = volume("10\n00", "00\n01")
        fixed, actions = repair_3d(vol)
        a = actions[0]
        assert (a.x, a.y, a.z) == (1, 1, 1)
        assert fixed.get(0, 0, 0)

    def test_complement_fills_first(self):
        vol = volume("01\n11", "11\n10")
        fixed, actions = repair_3d(vol)
        assert len(actions) == 1
        assert actions[0].op is RepairOp.ADD
        assert fixed.voxel_count == 7
        assert find_pathologies_3d(fixed) == []

    def test_fill_prefers_more_face_contact(self):
        # Complement pair with holes at (1,0,0) and (2,1,1); the extra
        # voxel at (0,0,0) gives the first hole four object faces against
        # the second hole's three, so the fill lands there.
        cells = np.zeros((2, 2, 3), dtype=bool)
        cells[:, :, 1:] = True
        cells[0, 0, 1] = False
        cells[1, 1, 2] = False
        cells[0, 0, 0] = True
        vol = Volume3D(3, 2, 2, cells)
        fixed, actions = repair_3d(vol)
        adds = [a for a in actions if a.op is RepairOp.ADD]
        assert len(adds) == 1
        assert (adds[0].x, adds[0].y, adds[0].z) == (1, 0, 0)
        assert find_pathologies_3d(fixed) == []

    def test_fill_tie_breaks_to_scan_first(self):
        # Bare 6-voxel complement case: both holes have 3 object faces, so
        # the add lands on the scan-earlier (0,0,0).
        vol = volume("01\n11", "11\n10")
        _, actions = repair_3d(vol)
        a = actions[0]
        assert (a.x, a.y, a.z) == (0, 0, 0)

    def test_torus_frame_untouched(self):
        frame = gen_frame(1)
        fixed, actions = repair_3d(frame)
        assert actions == []
        assert np.array_equal(fixed.cells, frame.cells)

    def test_repair_idempotent(self):
        vol = volume("10\n00", "00\n01")
        fixed, _ = repair_3d(vol)
        again, actions = repair_3d(fixed)
        assert actions == []
        assert np.array_equal(again.cells, fixed.cells)

    def test_input_not_mutated(self):
        vol = volume("10\n00", "00\n01")
        before = vol.cells.copy()
        repair_3d(vol)
        assert np.array_equal(vol.cells, before)

    def test_chain_of_pairs_terminates(self):
        # Diagonal string of voxels: every consecutive pair is a vertex
        # pair. Repair must end with no pathologies.
        n = 6
        cells = np.zeros((n, n, n), dtype=bool)
        for i in range(n):
            cells[i, i, i] = True
        vol = Volume3D(n, n, n, cells)
        fixed, actions = repair_3d(vol)
        assert find_pathologies_3d(fixed) == []
        assert len(actions) >= n // 2

    def test_noise_repair_idempotent(self):
        from digitopo import gen_noisy_volume_3d

        for seed in range(15):
            vol = gen_noisy_volume_3d(seed)
            fixed, _ = repair_3d(vol)
            assert find_pathologies_3d(fixed) == []
            _, again = repair_3d(fixed)
            assert again == []


# ---------------------------------------------------------------------------
# point space


class TestPointSpace:
    def test_point_space_single_voxel(self):
        vol = solid(1, 1, 1)
        pts = to_point_space(vol)
        assert len(pts) == 8
        assert pts.points == {
            (x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)
        }

    def test_point_space_2x2x2(self):
        pts = to_point_space(solid(2, 2, 2))
        assert len(pts) == 26
        assert (1, 1, 1) not in pts.points

    def test_point_space_frame(self):
        vol = volume("111\n101\n111")
        assert len(to_point_space(vol)) == 32

    def test_point_space_repr_counts_its_points(self):
        assert repr(to_point_space(solid(2, 2, 2))) == "SurfacePointSet(26 points)"


# ---------------------------------------------------------------------------
# surface neighbors and classification


def surface_neighbors(p: tuple[int, int, int], vol: Volume3D) -> int:
    """Number of surface neighbors of the surface point ``p`` of ``vol``.

    Recomputed directly from voxel occupancy, one voxel at a time through
    ``vol.get``, independently of the vectorized classification path.
    """
    x, y, z = p
    count = 0
    # Incident voxels of the edge from min-vertex v along each axis.
    for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)):
        v = [x, y, z]
        if sign < 0:
            v[axis] -= 1
        vx, vy, vz = v
        if axis == 0:
            voxels = [(vx, vy - 1, vz - 1), (vx, vy, vz - 1), (vx, vy - 1, vz), (vx, vy, vz)]
        elif axis == 1:
            voxels = [(vx - 1, vy, vz - 1), (vx, vy, vz - 1), (vx - 1, vy, vz), (vx, vy, vz)]
        else:
            voxels = [(vx - 1, vy - 1, vz), (vx, vy - 1, vz), (vx - 1, vy, vz), (vx, vy, vz)]
        vals = [vol.get(*q) for q in voxels]
        if any(vals) and not all(vals):
            count += 1
    return count


class TestSurfaceNeighbors:
    def test_cube_corner_has_three(self):
        vol = solid(1, 1, 1)
        assert (0, 0, 0) in to_point_space(vol).points
        assert surface_neighbors((0, 0, 0), vol) == 3

    def test_face_center_of_2x2x2(self):
        vol = solid(2, 2, 2)
        assert (1, 1, 0) in to_point_space(vol).points
        assert surface_neighbors((1, 1, 0), vol) == 4

    def test_edge_midpoint_of_2x2x2(self):
        vol = solid(2, 2, 2)
        assert (1, 0, 0) in to_point_space(vol).points
        assert surface_neighbors((1, 0, 0), vol) == 4

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(*[st.integers(1, 10)] * 3),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_vectorized_counts(self, shape, density, seed):
        # Raw Bernoulli volumes, neither generated nor filtered: pathological
        # windows and irregular points included.
        cells = np.random.default_rng(seed).random(shape) < density
        vol = Volume3D(shape[2], shape[1], shape[0], cells)
        pts = to_point_space(vol)
        by_hand = np.bincount(
            [surface_neighbors(p, vol) for p in pts.points], minlength=7
        ).tolist()
        assert hist_tuple(classify_surface(pts)) == (*by_hand[3:7], sum(by_hand[:3]))
        merged = set()
        for part in split_surface_components(pts):
            assert not (merged & part.points)
            merged |= part.points
        assert merged == pts.points


class TestClassify:
    def test_single_voxel(self):
        hist = classify_surface(to_point_space(gen_block_3d(1, 1, 1)))
        assert hist_tuple(hist) == (8, 0, 0, 0, 0)
        assert hist.total == 8

    def test_solid_2x2x2(self):
        hist = classify_surface(to_point_space(gen_block_3d(2, 2, 2)))
        assert hist_tuple(hist) == (8, 18, 0, 0, 0)

    def test_frame_3x3x1(self):
        hist = classify_surface(to_point_space(volume("111\n101\n111")))
        assert hist_tuple(hist) == (8, 16, 8, 0, 0)

    def test_seven_voxel_notch(self):
        # 2x2x2 minus one corner: simply connected, so m3 = 8 + m5 + 2*m6.
        cells = np.ones((2, 2, 2), dtype=bool)
        cells[1, 1, 1] = False
        hist = classify_surface(to_point_space(Volume3D(2, 2, 2, cells)))
        assert hist.irregular == 0
        assert hist.m3 == 8 + hist.m5 + 2 * hist.m6
        assert genus(hist) == 0


# ---------------------------------------------------------------------------
# surface splitting


class TestSplitSurfaces:
    def test_solid_block_one_surface(self):
        comps = split_surface_components(to_point_space(gen_block_3d(3, 2, 2)))
        assert len(comps) == 1

    def test_shell_has_two(self):
        vol = gen_shell((3, 3, 3), (1, 1, 1))
        comps = split_surface_components(to_point_space(vol))
        assert [len(c) for c in comps] == [56, 8]

    def test_two_blocks(self):
        cells = np.zeros((2, 2, 5), dtype=bool)
        cells[:, :, :2] = True
        cells[:, :, 3:] = True
        comps = split_surface_components(
            to_point_space(Volume3D(5, 2, 2, cells))
        )
        assert len(comps) == 2
        # Ordered by minimal vertex: the x<=2 surface first.
        assert max(x for x, _, _ in comps[0].points) == 2
        assert min(x for x, _, _ in comps[1].points) == 3

    def test_empty(self):
        vol = Volume3D(2, 2, 2, np.zeros((2, 2, 2), dtype=bool))
        assert split_surface_components(to_point_space(vol)) == []

    @pytest.mark.parametrize(
        "cells",
        [
            gen_shell((7, 7, 7), (3, 3, 3)).cells,
            np.pad(np.ones((2, 2, 2), dtype=bool), ((0, 0), (0, 0), (0, 3)))
            | np.pad(np.ones((2, 2, 2), dtype=bool), ((0, 0), (0, 0), (3, 0))),
        ],
        ids=["shell", "two-blocks"],
    )
    def test_resplit_part_returns_it(self, cells):
        # A part shares its owner's whole grid; its own split must still
        # see only its own points and edges.
        nz, ny, nx = cells.shape
        parts = split_surface_components(to_point_space(Volume3D(nx, ny, nz, cells)))
        assert len(parts) == 2
        for part in parts:
            again = split_surface_components(part)
            assert len(again) == 1
            assert np.array_equal(again[0].mask, part.mask)
            assert classify_surface(again[0]) == classify_surface(part)

    def test_union_recovers_all_points(self):
        vol = gen_shell((4, 3, 3), (2, 1, 1))
        pts = to_point_space(vol)
        comps = split_surface_components(pts)
        merged = set()
        for c in comps:
            assert not (merged & c.points)
            merged |= c.points
        assert merged == pts.points

    def test_parts_hold_their_points_not_a_grid_mask(self):
        # 48^3 at 2%: about 1,700 parts over 117,649 vertices. A whole-grid
        # mask per part would take about 190 MiB; indices take a few.
        cells = np.random.default_rng(3).random((48, 48, 48)) < 0.02
        pts = to_point_space(Volume3D(48, 48, 48, cells))
        tracemalloc.start()
        try:
            parts = split_surface_components(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parts) > 1500
        assert peak < 8 << 20
        assert sum(len(part) for part in parts) == len(pts)
        part = parts[len(parts) // 2]
        assert len(part.points) == len(part)
        assert np.array_equal(np.flatnonzero(part.mask), part._ids)


# ---------------------------------------------------------------------------
# genus


class TestGenus:
    def test_sphere_like(self):
        assert genus(SurfaceHistogram(8, 0, 0, 0)) == 0

    def test_frame_is_torus(self):
        hist = classify_surface(to_point_space(volume("111\n101\n111")))
        assert genus(hist) == 1

    def test_double_frame(self):
        vol = volume("11111\n10101\n11111")
        hist = classify_surface(to_point_space(vol))
        assert genus(hist) == 2

    def test_irregular_rejected(self):
        with pytest.raises(InvalidSurfaceError):
            genus(SurfaceHistogram(8, 0, 0, 0, irregular=1))

    def test_indivisible_rejected(self):
        with pytest.raises(InvalidSurfaceError):
            genus(SurfaceHistogram(8, 0, 3, 0))

    def test_negative_rejected(self):
        with pytest.raises(InvalidSurfaceError):
            genus(SurfaceHistogram(16, 0, 0, 0))

    def test_no_point_is_no_surface(self):
        # A volume with no object voxel has an empty histogram.
        empty = classify_surface(to_point_space(Volume3D(2, 3, 4)))
        assert empty == SurfaceHistogram(0, 0, 0, 0)
        with pytest.raises(InvalidSurfaceError, match="the histogram has no point"):
            genus(empty)

    def test_matches_euler_oracle_on_frames(self):
        for k in range(4):
            vol = gen_frame(k)
            hist = classify_surface(to_point_space(vol))
            g = genus(hist)
            assert g == k
            summaries = euler_surface_3d(vol)
            assert len(summaries) == 1
            assert g == (2 - summaries[0].chi) // 2


# ---------------------------------------------------------------------------
# homology


class TestHomology:
    def test_solid_ball(self):
        rep = homology(gen_block_3d(2, 2, 2))
        assert rep.betti == (1, 0, 0, 0)
        assert rep.voxel_count == 8
        assert len(rep.boundary_surfaces) == 1
        assert rep.boundary_surfaces[0].method == "formula"
        assert rep.boundary_surfaces[0].euler_characteristic == 2

    def test_solid_torus(self):
        rep = homology(volume("111\n101\n111"))
        assert rep.betti == (1, 1, 0, 0)
        surf = rep.boundary_surfaces[0]
        assert surf.points == 32
        assert surf.genus == 1
        assert surf.euler_characteristic == 0

    def test_shell_encloses_cavity(self):
        rep = homology(gen_shell((3, 3, 3), (1, 1, 1)))
        assert rep.betti == (1, 0, 1, 0)
        assert [s.genus for s in rep.boundary_surfaces] == [0, 0]
        assert [s.points for s in rep.boundary_surfaces] == [56, 8]

    def test_genus_two(self):
        rep = homology(gen_frame(2))
        assert rep.betti == (1, 2, 0, 0)

    def test_empty_rejected(self):
        vol = Volume3D(2, 2, 2, np.zeros((2, 2, 2), dtype=bool))
        with pytest.raises(ValueError):
            homology(vol)

    def test_fallback_recovers_vertex_pair(self):
        # Unrepaired vertex pair: the shared point has six surface edges,
        # so the single classified sheet has m3 = 14, m6 = 1, which fails
        # divisibility. The oracle fallback splits the boundary into two
        # chi-2 cube surfaces instead.
        vol = volume("10\n00", "00\n01")
        rep = homology(vol, fallback_oracle=True)
        assert [s.method for s in rep.boundary_surfaces] == [
            "euler-oracle",
            "euler-oracle",
        ]
        assert [s.genus for s in rep.boundary_surfaces] == [0, 0]
        assert rep.betti == (1, 0, 1, 0)

    def test_no_fallback_raises(self):
        vol = volume("10\n00", "00\n01")
        with pytest.raises(InvalidSurfaceError):
            homology(vol, fallback_oracle=False)

    def test_odd_chi_boundary_rejected_even_with_fallback(self):
        # Edge-sharing voxel pair: one fused boundary sheet with
        # chi = 14 - 23 + 12 = 3, unusable by either route.
        vol = volume("10\n01")
        with pytest.raises(InvalidSurfaceError):
            homology(vol, fallback_oracle=True)

    def test_flat_plate_formula_route(self):
        rep = homology(volume("111\n111\n111"))
        assert rep.betti == (1, 0, 0, 0)
        surf = rep.boundary_surfaces[0]
        assert surf.method == "formula"
        assert surf.points == 32
        assert hist_tuple(surf.histogram) == (8, 24, 0, 0, 0)


# ---------------------------------------------------------------------------
# the full pipeline


class TestAnalyzeVolume:
    def test_separate_components_get_sequential_ids(self):
        cells = np.zeros((2, 2, 7), dtype=bool)
        cells[:, :, :2] = True
        cells[:, :, 4:6] = True
        reports, actions = analyze_volume(Volume3D(7, 2, 2, cells))
        assert [r.component_id for r in reports] == [1, 2]
        assert actions == []
        assert all(r.betti == (1, 0, 0, 0) for r in reports)

    def test_repair_actions_in_source_coordinates(self):
        # Vertex pair far from the origin; the delete must be reported at
        # volume coordinates, not canvas coordinates.
        cells = np.zeros((4, 4, 6), dtype=bool)
        cells[2, 2, 4] = True
        cells[3, 3, 5] = True
        reports, actions = analyze_volume(Volume3D(6, 4, 4, cells))
        assert len(actions) == 1
        a = actions[0]
        assert (a.x, a.y, a.z) == (5, 3, 3)
        assert len(reports) == 1
        assert reports[0].voxel_count == 1

    def test_vertex_pair_becomes_one_ball(self):
        vol = volume("10\n00", "00\n01")
        reports, actions = analyze_volume(vol)
        assert len(reports) == 1
        assert reports[0].betti == (1, 0, 0, 0)
        assert len(actions) == 1

    def test_no_repair_mode(self):
        vol = volume("10\n00", "00\n01")
        reports, actions = analyze_volume(vol, repair=False)
        assert actions == []
        # Without repair the 26-component splits into two 6-components.
        assert len(reports) == 2

    def test_frame_report(self):
        reports, _ = analyze_volume(gen_frame(1))
        assert len(reports) == 1
        assert reports[0].betti == (1, 1, 0, 0)

    def test_empty_volume(self):
        vol = Volume3D(3, 3, 3, np.zeros((3, 3, 3), dtype=bool))
        reports, actions = analyze_volume(vol)
        assert reports == []
        assert actions == []

    def test_relabel_after_repair(self):
        # Two voxels joined only through a vertex pair: repair deletes one,
        # then 6-relabeling finds a single one-voxel component.
        vol = volume("10\n00", "00\n01")
        reports, _ = analyze_volume(vol)
        lab = label_components_3d(vol, Adjacency.INDIRECT_3D)
        assert lab.count == 1  # captured as one 26-component
        assert reports[0].voxel_count == 1


# ---------------------------------------------------------------------------
# invariants over generated volumes


class TestProperties:
    def test_gauss_bonnet_over_frames_and_shells(self):
        volumes = [
            gen_block_3d(2, 3, 4),
            gen_frame(1),
            gen_frame(2, ring_width=2),
            gen_frame(3),
            gen_shell((4, 4, 4), (2, 2, 2)),
        ]
        for vol in volumes:
            for comp in split_surface_components(to_point_space(vol)):
                hist = classify_surface(comp)
                g = genus(hist)
                assert hist.m3 - hist.m5 - 2 * hist.m6 == 8 * (1 - g)

    def test_oracle_equivalence_on_noise(self):
        # After whole-volume repair the volume is clean, so the pipeline's
        # per-component repair must be a no-op, and every surface genus
        # must match the face-count oracle on the same voxel set.
        from digitopo import gen_noisy_volume_3d

        for seed in range(24):
            fixed, _ = repair_3d(gen_noisy_volume_3d(seed))
            reports, actions = analyze_volume(fixed)
            assert actions == []
            formula = sorted(
                s.genus for r in reports for s in r.boundary_surfaces
            )
            oracle = sorted(
                (2 - s.chi) // 2 for s in euler_surface_3d(fixed)
            )
            assert formula == oracle

    def test_oracle_equivalence_on_blobs(self):
        from digitopo import gen_fat_blob_3d

        for seed in range(18):
            vol = gen_fat_blob_3d(seed, 60)
            reports, actions = analyze_volume(vol)
            # Blobs are fattened during accretion, never pathological.
            assert actions == []
            formula = sorted(
                s.genus for r in reports for s in r.boundary_surfaces
            )
            oracle = sorted((2 - s.chi) // 2 for s in euler_surface_3d(vol))
            assert formula == oracle

    def test_histogram_totals_match_point_counts(self):
        vol = gen_shell((5, 4, 3), (3, 2, 1))
        for comp in split_surface_components(to_point_space(vol)):
            assert classify_surface(comp).total == len(comp)


# ---------------------------------------------------------------------------
# non-convergence


class TestNonConvergence:
    def test_frozen_oscillator_raises(self):
        vol = volume(*NONCONVERGENT_SLABS)
        with pytest.raises(RepairDidNotConverge, match="did not converge"):
            repair_3d(vol)

    def test_oscillator_detected_quickly(self):
        # Cycle detection must fire well before the 4*n action cap; a
        # repeated grid state is proof the cap would be hit.
        import time

        vol = volume(*NONCONVERGENT_SLABS)
        t0 = time.perf_counter()
        with pytest.raises(RepairDidNotConverge):
            repair_3d(vol)
        assert time.perf_counter() - t0 < 1.0

    def test_checkerboard_either_cleans_or_raises(self):
        # Densest adversarial pattern a small box allows: every diagonal
        # pair pathological. Whatever the rules do, they must not return
        # a dirty volume.
        cells = np.indices((4, 4, 4)).sum(axis=0) % 2 == 0
        vol = Volume3D(4, 4, 4, cells)
        try:
            fixed, _ = repair_3d(vol)
        except RepairDidNotConverge as e:
            assert "did not converge" in str(e)
        else:
            assert find_pathologies_3d(fixed) == []


# ---------------------------------------------------------------------------
# the whole-grid driver against a per-component reference


def reference_homology(piece, fallback_oracle, component_id, actions):
    """One piece through the public point-space, split and classify path;
    a piece whose histogram fails ``genus`` goes to ``homology``."""
    surfaces = []
    for comp in split_surface_components(to_point_space(piece)):
        hist = classify_surface(comp)
        try:
            g = genus(hist)
        except InvalidSurfaceError:
            rep = homology(piece, fallback_oracle)
            return dataclasses.replace(rep, component_id=component_id, repair_actions=actions)
        surfaces.append(SurfaceReport(len(comp), hist, g, 2 - 2 * g, "formula"))
    b1 = sum(s.genus for s in surfaces)
    betti = (1, b1, len(surfaces) - 1, 0)
    return TopoReport3D(
        component_id, piece.voxel_count, tuple(surfaces), betti, actions
    )


def reference_analyze(vol, repair=True, fallback_oracle=True, repair_fn=repair_3d):
    """``analyze_volume`` as a loop over components: each 26-component is
    repaired on its own canvas by ``repair_fn``, relabeled with
    6-adjacency, and every piece is classified by itself."""
    lab26 = label_components_3d(vol, Adjacency.INDIRECT_3D)
    reports = []
    all_actions = []
    for cid in range(1, lab26.count + 1):
        canvas = _component_canvas(lab26, cid)
        oz, oy, ox = (s.start - 1 for s in _component_boxes(lab26, [cid])[cid])
        shifted = []
        if repair:
            canvas, acts = repair_fn(canvas)
            shifted = [
                RepairAction(a.x + ox, a.y + oy, a.op, a.reason, a.z + oz)
                for a in acts
            ]
            all_actions.extend(shifted)
        if not canvas.cells.any():
            continue
        lab6 = label_components_3d(canvas, Adjacency.DIRECT_3D)
        for sid in range(1, lab6.count + 1):
            piece = _component_canvas(lab6, sid)
            reports.append(
                reference_homology(
                    piece, fallback_oracle, len(reports) + 1, tuple(shifted)
                )
            )
    return reports, all_actions


def assert_same_answers(kept, lean):
    """Driver columns with and without ``keep_pieces`` hold the same
    answers and edits; only the second keeps no pieces. The kept tables
    place every piece once, each with its size."""
    assert lean.pieces is None
    places = np.concatenate([at for *_, at in kept.pieces])
    assert sorted(places.tolist()) == list(range(len(kept.sizes)))
    for labeling, ids, at in kept.pieces:
        assert kept.sizes[at].tolist() == labeling.sizes[ids].tolist()
    assert kept.answers == lean.answers
    for field in ("sizes", "answer", "edits", "log"):
        assert np.array_equal(getattr(kept, field), getattr(lean, field)), field


def kept_canvases(columns):
    """The canvas of each piece of ``keep_pieces`` columns, in report order."""
    out = [None] * len(columns.sizes)
    for labeling, ids, places in columns.pieces:
        for place, canvas in zip(places.tolist(), _canvases(labeling, ids.tolist())):
            out[place] = canvas
    return out


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # compared, never swallowed: see the asserts
        return type(e), str(e)


class TestWholeGridDriver:
    @settings(max_examples=240, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)
        ),
        density=st.floats(0.02, 0.35),
        seed=st.integers(0, 2**32 - 1),
        repair=st.booleans(),
        fallback_oracle=st.booleans(),
        cycle_at=st.none() | st.tuples(*[st.integers(0, 8)] * 3),
    )
    # 15 dirty components whose canvases fall into six stacks, repaired
    # and not.
    @example((12, 12, 12), 0.15, 25, True, True, None)
    @example((12, 12, 12), 0.15, 25, False, True, None)
    def test_matches_per_component_reference(
        self, shape, density, seed, repair, fallback_oracle, cycle_at
    ):
        # Raw Bernoulli volumes: nothing re-draws the ones repair cannot
        # clean, so cycles and oracle fallbacks are compared too. Cycles
        # are rare at this size, so some draws also get the cycling
        # pattern written over them, at a drawn place where it fits.
        cells = np.random.default_rng(seed).random(shape) < density
        if cycle_at is not None and all(
            n >= k for n, k in zip(shape, REPAIR_CYCLE.shape)
        ):
            at = [min(a, n - k) for a, n, k in zip(cycle_at, shape, REPAIR_CYCLE.shape)]
            box = tuple(slice(a, a + k) for a, k in zip(at, REPAIR_CYCLE.shape))
            cells[box] = REPAIR_CYCLE
        vol = Volume3D(shape[2], shape[1], shape[0], cells)
        got = outcome(analyze_volume, vol, repair, fallback_oracle)
        want = outcome(reference_analyze, vol, repair, fallback_oracle)
        assert got == want
        event(got[0].__name__ if isinstance(got[0], type) else "reports")
        if repair and not isinstance(got[0], type):
            kept = _columns(vol, repair, fallback_oracle, keep_pieces=True)
            assert_same_answers(kept, _columns(vol, repair, fallback_oracle))
            # One oracle call per table of pieces, as ``validate`` makes.
            surfaces = [None] * len(got[0])
            for labeling, ids, places in kept.pieces:
                for place, summaries in zip(
                    places.tolist(), _euler_surfaces(labeling.labels, ids.tolist())
                ):
                    surfaces[place] = summaries
            for rep, summaries in zip(got[0], surfaces):
                assert len(summaries) == len(rep.boundary_surfaces)
                assert sum(s.genus for s in rep.boundary_surfaces) == sum(
                    (2 - s.chi) // 2 for s in summaries
                )

    @pytest.mark.parametrize("repair", [True, False])
    @pytest.mark.parametrize("fallback_oracle", [True, False])
    def test_cavities_and_tunnels_match_reference(self, repair, fallback_oracle):
        # Several components with more than one boundary surface, so the
        # surface order within a component and the owner of a cavity
        # surface are both compared, and a block of noise that repair
        # edits, that the oracle fallback classifies without repair, and
        # that fails without either.
        cells = np.zeros((12, 14, 40), dtype=bool)
        cells[1:6, 1:6, 1:6] = True  # one cavity
        cells[3, 3, 3] = False
        cells[1:8, 1:9, 8:18] = True  # two cavities
        cells[3:5, 3:5, 10:12] = False
        cells[3:5, 3:5, 14:16] = False
        cells[0:3, 1:6, 19:28] = gen_frame(3).cells  # genus 3
        cells[7:12, 8:14, 1:7] = np.random.default_rng(5).random((5, 6, 6)) < 0.4
        vol = Volume3D(40, 14, 12, cells)
        got = outcome(analyze_volume, vol, repair, fallback_oracle)
        assert got == outcome(reference_analyze, vol, repair, fallback_oracle)
        if repair:
            reports, _ = got
            assert [len(r.boundary_surfaces) for r in reports[:3]] == [2, 3, 1]

    def test_pieces_are_not_kept_by_default(self):
        assert _columns(gen_frame(1)).pieces is None

    def test_each_stack_is_labelled_once(self, monkeypatch):
        # 30 dirty components: bars of 1, 5 and 13 voxels along x, each
        # with one voxel meeting its end at a vertex only. Their canvases
        # are 4 voxels deep and high and 4, 8 or 16 wide: three stacks.
        calls = []
        label = grid.label_components_3d

        def counting(*args, **kwargs):
            calls.append(args)
            return label(*args, **kwargs)

        cells = np.zeros((15, 18, 15), dtype=bool)
        for i in range(30):
            z, y, n = 3 * (i % 5), 3 * (i // 5), (1, 5, 13)[i % 3]
            cells[z, y, :n] = True
            cells[z + 1, y + 1, n] = True
        vol = Volume3D(15, 18, 15, cells)
        monkeypatch.setattr(grid, "label_components_3d", counting)
        got = analyze_volume(vol)
        assert len(calls) <= 1 + 3
        monkeypatch.undo()
        assert len(got[1]) == 30
        assert got == reference_analyze(vol)


def cycle_among_clean_components():
    """The cycling pattern in a corner, with clean components numbered
    both before and after it."""
    cells = np.zeros((12, 12, 14), dtype=bool)
    cells[0, 8:11, 9:12] = True  # scan-first: component 1
    cells[1:5, 1:4, 1:5] = REPAIR_CYCLE
    cells[6:9, 2:9, 7:12] = True  # a solid torus
    cells[6:9, 4:7, 9:10] = False
    cells[9:11, 9:11, 2:4] = True
    return Volume3D(14, 12, 12, cells)


class TestRepairCycleAmongCleanComponents:
    def test_cycle_raises(self):
        vol = cycle_among_clean_components()
        lab = label_components_3d(vol, Adjacency.INDIRECT_3D)
        assert lab.count == 4
        assert lab.labels[1, 2, 2] == 2  # the pattern is not component 1
        for fallback_oracle in (True, False):
            with pytest.raises(RepairDidNotConverge, match="did not converge"):
                analyze_volume(vol, fallback_oracle=fallback_oracle)

    def test_without_repair(self):
        # No repair, no cycle. The pattern's complement window leaves one
        # of its 6-pieces with a non-manifold boundary, which only the
        # surface classification can reject; the clean components around
        # it are reported as before.
        vol = cycle_among_clean_components()
        with pytest.raises(InvalidSurfaceError, match="non-manifold"):
            analyze_volume(vol, repair=False)
        with pytest.raises(InvalidSurfaceError, match="not a valid digital surface"):
            analyze_volume(vol, repair=False, fallback_oracle=False)
        cells = vol.cells.copy()
        cells[:6, :6, :6] = False
        reports, actions = analyze_volume(Volume3D(14, 12, 12, cells), repair=False)
        assert actions == []
        assert [r.component_id for r in reports] == [1, 2, 3]
        assert [r.betti for r in reports] == [
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (1, 0, 0, 0),
        ]


# ---------------------------------------------------------------------------
# window codes against the boolean mask kernel they replaced


# The reference's own window geometry: voxel offsets (dx, dy, dz) of a
# 2x2x2 window, its antipodal pairs, and the two unit offsets spanning the
# 2x2 block around an edge along x, y and z.
CUBE = tuple((dx, dy, dz) for dz in (0, 1) for dy in (0, 1) for dx in (0, 1))
ANTIPODAL = (
    ((0, 0, 0), (1, 1, 1)),
    ((1, 0, 0), (0, 1, 1)),
    ((0, 1, 0), (1, 0, 1)),
    ((0, 0, 1), (1, 1, 0)),
)
EDGE_SPANS = (
    ((0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0)),
)


def _window_view(c, off, ext):
    nz, ny, nx = c.shape
    (dx, dy, dz), (ex, ey, ez) = off, ext
    return c[dz : nz - ez + dz, dy : ny - ey + dy, dx : nx - ex + dx]


def reference_hits(c):
    """Anchor masks of the three patterns, one boolean pass per voxel of a
    window: ``(mask, kind, pair, axis)``. Windows overhanging the border
    cannot match (each pattern needs object voxels, or six of them,
    spanning the window), so only interior windows are scanned."""
    hits = []
    s = {off: _window_view(c, off, (1, 1, 1)) for off in CUBE}
    total = np.zeros(s[(0, 0, 0)].shape, dtype=np.int8)
    for part in s.values():
        total += part
    for a, b in ANTIPODAL:
        vp = s[a] & s[b] & (total == 2)
        cp = ~s[a] & ~s[b] & (total == 6)
        hits.append((vp, Pathology3DKind.VERTEX_PAIR, (a, b), None))
        hits.append((cp, Pathology3DKind.COMPLEMENT_VERTEX_PAIR, (a, b), None))
    for axis, (u, v) in enumerate(EDGE_SPANS):
        ext = tuple(int(i != axis) for i in range(3))
        uv = tuple(i + j for i, j in zip(u, v))
        p, q, r, t = (_window_view(c, off, ext) for off in ((0, 0, 0), u, v, uv))
        hits.append((p & t & ~q & ~r, Pathology3DKind.EDGE_PAIR, ((0, 0, 0), uv), axis))
        hits.append((q & r & ~p & ~t, Pathology3DKind.EDGE_PAIR, (u, v), axis))
    return hits


def reference_pathologies(vol):
    """``find_pathologies_3d`` from the mask kernel and one sort."""
    rank = {
        Pathology3DKind.VERTEX_PAIR: 0,
        Pathology3DKind.EDGE_PAIR: 1,
        Pathology3DKind.COMPLEMENT_VERTEX_PAIR: 2,
    }
    found = []
    for mask, kind, (a, b), axis in reference_hits(vol.cells):
        zs, ys, xs = np.nonzero(mask)
        for z, y, x in zip(zs.tolist(), ys.tolist(), xs.tolist()):
            pair = ((x + a[0], y + a[1], z + a[2]), (x + b[0], y + b[1], z + b[2]))
            found.append((z, y, x, kind, pair, axis))
    found.sort(key=lambda t: (t[0], t[1], t[2], rank[t[3]], -1 if t[5] is None else t[5]))
    return [Pathology3D(x, y, z, kind, pair, axis) for z, y, x, kind, pair, axis in found]


def reference_repair(vol):
    """``repair_3d`` driven by ``reference_pathologies``."""
    cells = vol.cells.copy()
    actions = []
    cap = 4 * vol.nx * vol.ny * vol.nz
    seen = set()
    while True:
        found = reference_pathologies(Volume3D(vol.nx, vol.ny, vol.nz, cells))
        if not found:
            return Volume3D(vol.nx, vol.ny, vol.nz, cells), actions
        if cells.tobytes() in seen:
            raise RepairDidNotConverge("repair did not converge")
        seen.add(cells.tobytes())
        complement = Pathology3DKind.COMPLEMENT_VERTEX_PAIR
        ordered = [p for p in found if p.kind is complement]
        ordered += [p for p in found if p.kind is not complement]
        for p in ordered:
            if not _matches_3d(cells, p):
                continue
            if len(actions) >= cap:
                raise RepairDidNotConverge("repair did not converge")
            actions.append(_fix_3d(cells, p))


class TestWindowCodes:
    def test_table_matches_reference_on_every_window(self):
        # Each window alone, with one empty voxel on every side: the hits
        # anchored at it are the table's, in the table's order, and edge
        # windows on its high faces come from the windows next to it.
        for code in range(256):
            cells = np.zeros((4, 4, 4), dtype=bool)
            for dx, dy, dz in CUBE:
                cells[1 + dz, 1 + dy, 1 + dx] = code >> (dx + 2 * dy + 4 * dz) & 1
            vol = Volume3D(4, 4, 4, cells)
            want = reference_pathologies(vol)
            anchored = [
                (p.kind, tuple(tuple(i - 1 for i in q) for q in p.pair), p.axis)
                for p in want
                if (p.x, p.y, p.z) == (1, 1, 1)
            ]
            assert list(_CODE_HITS[code]) == anchored, code
            assert bool(_CODE_DIRTY[code]) == bool(anchored), code
            assert find_pathologies_3d(vol) == want, code

    def test_surface_tables_match_reference_on_every_window(self):
        # Each window alone in a 4x4x4 volume, around vertex (2, 2, 2).
        for code in range(256):
            cells = np.zeros((4, 4, 4), dtype=bool)
            for dx, dy, dz in CUBE:
                cells[1 + dz, 1 + dy, 1 + dx] = code >> (dx + 2 * dy + 4 * dz) & 1
            vol = Volume3D(4, 4, 4, cells)
            pts = to_point_space(vol)
            if code in (0, 255):
                assert (2, 2, 2) not in pts.points, code
                assert _DEGREE[code] == 0 and _UP_EDGES[code] == 0, code
                continue
            assert _DEGREE[code] == surface_neighbors((2, 2, 2), vol), code
            for axis in range(3):
                # The edge toward +axis: the 4 voxels at axis coordinate 2.
                u, v = (i for i in range(3) if i != axis)
                vals = []
                for a in (1, 2):
                    for b in (1, 2):
                        q = [2, 2, 2]
                        q[u], q[v] = a, b
                        vals.append(vol.get(*q))
                surface_edge = any(vals) and not all(vals)
                assert bool(_UP_EDGES[code] >> axis & 1) == surface_edge, (code, axis)

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(*[st.integers(1, 10)] * 3),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_mask_kernel_on_bernoulli_volumes(self, shape, density, seed):
        cells = np.random.default_rng(seed).random(shape) < density
        vol = Volume3D(shape[2], shape[1], shape[0], cells)
        found = find_pathologies_3d(vol)
        assert found == reference_pathologies(vol)
        event("dirty" if found else "clean")
        got = outcome(repair_3d, vol)
        want = outcome(reference_repair, vol)
        if isinstance(want[0], type):
            event(want[0].__name__)
            assert got == want
        else:
            assert np.array_equal(got[0].cells, want[0].cells)
            assert got[1] == want[1]

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(*[st.integers(1, 8)] * 3),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_face_degree_tables_count_face_neighbours(self, shape, density, seed):
        # Every voxel of a padded grid: the two codes' table sums equal a
        # direct count of its set face neighbours.
        p = _pad(np.random.default_rng(seed).random(shape) < density)
        codes = _window_codes(p)
        view = memoryview(codes).cast("B")
        for cell in np.ndindex(*shape):
            z, y, x = (i + 1 for i in cell)
            want = sum(
                bool(p[z + dz, y + dy, x + dx])
                for dz, dy, dx in (
                    (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0),
                )
            )
            at = int(np.ravel_multi_index((z, y, x), codes.shape))
            assert _face_degree(view, codes.strides, at) == want, cell
