"""Generator tests: determinism, validity of advertised invariants."""

import hashlib
from functools import partial

import numpy as np
import pytest

from digitopo import (
    HoleMethod,
    check_preconditions_2d,
    classify_boundary_2d,
    euler_surface_3d,
    extract_component,
    extrude,
    find_pathologies_2d,
    find_pathologies_3d,
    gen_block_2d,
    gen_block_3d,
    gen_fat_blob_3d,
    gen_fat_polyomino_2d,
    gen_frame,
    gen_holey_polyomino_2d,
    gen_noisy_image_2d,
    gen_noisy_volume_3d,
    gen_scene_2d,
    gen_shell,
    holes_by_floodfill,
    holes_pipeline,
    hole_count,
    iter_frame_slabs,
    label_components_2d,
    label_components_3d,
    Adjacency,
    repair_3d,
    split_surface_components,
    classify_surface,
    genus,
    to_point_space,
)
from digitopo import shapes
from digitopo.shapes import frame_slab


class TestBlocks:
    def test_block_2d_pad(self):
        img = gen_block_2d(3, 2)
        assert (img.width, img.height) == (5, 4)
        assert img.cells.sum() == 6
        assert not img.cells[0].any() and not img.cells[-1].any()

    def test_block_3d_pad(self):
        vol = gen_block_3d(2, 3, 4)
        assert (vol.nx, vol.ny, vol.nz) == (4, 5, 6)
        assert vol.voxel_count == 24

    def test_bad_extents(self):
        with pytest.raises(ValueError):
            gen_block_2d(0, 3)
        with pytest.raises(ValueError):
            gen_block_3d(2, -1, 2)


class TestFrame:
    def test_genus_matches_hole_count(self):
        for k in range(4):
            vol = gen_frame(k)
            assert find_pathologies_3d(vol) == []
            summaries = euler_surface_3d(vol)
            assert len(summaries) == 1
            assert (2 - summaries[0].chi) // 2 == k

    def test_one_component(self):
        for k in (1, 3):
            lab = label_components_3d(gen_frame(k), Adjacency.DIRECT_3D)
            assert lab.count == 1

    def test_ring_width_scales(self):
        thin = gen_frame(1, ring_width=1)
        wide = gen_frame(1, ring_width=3)
        assert wide.voxel_count > thin.voxel_count
        assert (2 - euler_surface_3d(wide)[0].chi) // 2 == 1

    def test_thickness(self):
        vol = gen_frame(2, thickness=3)
        assert (2 - euler_surface_3d(vol)[0].chi) // 2 == 2

    def test_zero_holes_is_block(self):
        vol = gen_frame(0)
        assert euler_surface_3d(vol)[0].chi == 2

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_frame(-1)
        with pytest.raises(ValueError):
            gen_frame(1, ring_width=0)

    def test_slab_equality(self):
        for holes, rw, t in ((1, 1, 1), (2, 2, 1), (1, 2, 3), (0, 1, 2)):
            vol = gen_frame(holes, ring_width=rw, thickness=t)
            for z in range(vol.nz):
                slab = frame_slab(z, holes, ring_width=rw, thickness=t)
                assert np.array_equal(slab, vol.cells[z]), (holes, rw, t, z)

    def test_slab_outside_is_empty(self):
        assert not frame_slab(99, 2, 1, 1).any()

    @pytest.mark.parametrize("args", [(-1, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_every_path_checks_the_parameters_before_a_slab(self, args):
        # The batch volume and the streamed slabs both check them in
        # frame_slab, so both raise the same error.
        for make in (gen_frame, lambda *a: next(iter_frame_slabs(*a)), partial(frame_slab, 0)):
            with pytest.raises(ValueError, match="bad frame parameters"):
                make(*args)


class TestShell:
    def test_cavity_makes_two_surfaces(self):
        vol = gen_shell((4, 4, 4), (2, 2, 2))
        assert len(euler_surface_3d(vol)) == 2

    def test_none_cavity_is_solid(self):
        vol = gen_shell((3, 3, 3), None)
        assert vol.voxel_count == 27
        assert len(euler_surface_3d(vol)) == 1

    def test_cavity_must_stay_interior(self):
        with pytest.raises(ValueError):
            gen_shell((3, 3, 3), (3, 1, 1))
        with pytest.raises(ValueError):
            gen_shell((4, 4, 2), (2, 2, 2))

    def test_bad_outer(self):
        with pytest.raises(ValueError):
            gen_shell((0, 3, 3), None)


class TestPolyominoes:
    def test_deterministic(self):
        a = gen_fat_polyomino_2d(7, 200)
        b = gen_fat_polyomino_2d(7, 200)
        assert np.array_equal(a.cells, b.cells)
        c = gen_fat_polyomino_2d(8, 200)
        assert not np.array_equal(a.cells, c.cells)

    def test_passes_preconditions(self):
        for seed in range(20):
            img = gen_fat_polyomino_2d(seed, 150)
            lab = label_components_2d(img, Adjacency.INDIRECT_2D)
            assert lab.count == 1
            piece = extract_component(lab, 1)
            rep = check_preconditions_2d(piece)
            assert rep.ok, (seed, rep)

    def test_simply_connected_lemma(self):
        # No holes, so the corner histogram obeys cp2 = cp4 + 4.
        for seed in range(20):
            img = gen_fat_polyomino_2d(seed, 120)
            hist = classify_boundary_2d(img)
            assert hist.cp2 == hist.cp4 + 4, seed
            assert holes_by_floodfill(img) == 0

    def test_area_scales(self):
        small = gen_fat_polyomino_2d(3, 32)
        large = gen_fat_polyomino_2d(3, 512)
        assert large.cells.sum() > small.cells.sum()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_fat_polyomino_2d(0, 0)


class TestHoleyPolyominoes:
    def test_hole_count_by_floodfill(self):
        fitted = 0
        for seed in range(15):
            img = gen_holey_polyomino_2d(seed, 300, holes=2)
            got = holes_by_floodfill(img)
            assert got <= 2
            if got == 2:
                fitted += 1
            assert hole_count(img).holes == got
        assert fitted >= 10  # most shapes of this size fit both holes

    def test_no_holes_requested(self):
        img = gen_holey_polyomino_2d(4, 200, holes=0)
        assert holes_by_floodfill(img) == 0

    def test_still_formula_clean(self):
        for seed in range(10):
            img = gen_holey_polyomino_2d(seed, 250, holes=1)
            assert find_pathologies_2d(img) == []
            rep = hole_count(img)
            assert rep.method is HoleMethod.FORMULA


class TestBlobs:
    def test_deterministic(self):
        a = gen_fat_blob_3d(5, 80)
        b = gen_fat_blob_3d(5, 80)
        assert np.array_equal(a.cells, b.cells)

    def test_single_genus_zero_surface(self):
        for seed in range(10):
            vol = gen_fat_blob_3d(seed, 60)
            assert find_pathologies_3d(vol) == []
            lab = label_components_3d(vol, Adjacency.DIRECT_3D)
            assert lab.count == 1
            comps = split_surface_components(to_point_space(vol))
            assert len(comps) == 1
            assert genus(classify_surface(comps[0])) == 0

    def test_volume_scales(self):
        small = gen_fat_blob_3d(2, 30)
        large = gen_fat_blob_3d(2, 300)
        assert large.voxel_count > small.voxel_count


class TestExtrude:
    def test_doubling_bridge(self):
        # Two-layer extrusion of a clean 2D shape: m6 = 0, m3 = 2*cp2,
        # m5 = 2*cp4, and surface genus equals the 2D hole count.
        for seed in range(12):
            img = gen_holey_polyomino_2d(seed, 220, holes=seed % 3)
            vol = extrude(img, 2)
            hist2d = classify_boundary_2d(img)
            comps = split_surface_components(to_point_space(vol))
            # Interior holes add their own tunnel walls to the outer
            # sheet, so a clean extrusion still has one surface.
            assert len(comps) == 1
            hist = classify_surface(comps[0])
            assert hist.m6 == 0, seed
            assert hist.m3 == 2 * hist2d.cp2, seed
            assert hist.m5 == 2 * hist2d.cp4, seed
            assert genus(hist) == holes_by_floodfill(img), seed

    def test_layer_count(self):
        img = gen_block_2d(2, 2)
        vol = extrude(img, 5)
        assert vol.nz == 5
        assert vol.voxel_count == 20

    def test_bad_layers(self):
        with pytest.raises(ValueError):
            extrude(gen_block_2d(1, 1), 0)


class TestScene:
    def test_deterministic(self):
        assert np.array_equal(gen_scene_2d(9).cells, gen_scene_2d(9).cells)

    def test_decorations_present(self):
        img = gen_scene_2d(1, decorations=True)
        # The bait strip guarantees at least one pathological or
        # speckle-sized feature for the repair path.
        lab = label_components_2d(img, Adjacency.INDIRECT_2D)
        assert lab.count >= 2

    def test_pipeline_handles_scene(self):
        for seed in range(8):
            reports, _ = holes_pipeline(gen_scene_2d(seed))
            assert reports
            for rep in reports:
                assert rep.holes >= 0

    def test_undecorated_is_clean(self):
        for seed in range(8):
            img = gen_scene_2d(seed, decorations=False)
            assert find_pathologies_2d(img) == []


class TestNoisy:
    def test_image_deterministic(self):
        a = gen_noisy_image_2d(11)
        b = gen_noisy_image_2d(11)
        assert np.array_equal(a.cells, b.cells)

    def test_image_dimensions(self):
        img = gen_noisy_image_2d(3, width=32, height=20)
        assert (img.width, img.height) == (32, 20)

    def test_zero_rate_is_clean_blob(self):
        img = gen_noisy_image_2d(5, rate=0.0)
        assert find_pathologies_2d(img) == []

    def test_volume_deterministic(self):
        a = gen_noisy_volume_3d(13)
        b = gen_noisy_volume_3d(13)
        assert np.array_equal(a.cells, b.cells)

    def test_volume_within_repair_reach(self):
        # The generator's contract: every emitted volume can be cleaned.
        for seed in range(25):
            vol = gen_noisy_volume_3d(seed)
            fixed, _ = repair_3d(vol)
            assert find_pathologies_3d(fixed) == []

    def test_volume_dimensions(self):
        vol = gen_noisy_volume_3d(1, nx=10, ny=12, nz=8)
        assert (vol.nx, vol.ny, vol.nz) == (10, 12, 8)

    @pytest.mark.parametrize("make", [gen_noisy_image_2d, gen_noisy_volume_3d])
    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan"), float("inf")])
    def test_rate_outside_unit_interval_raises_before_any_draw(self, monkeypatch, make, rate):
        def drawn(*_):
            raise AssertionError("the shape was drawn before the rate was checked")

        monkeypatch.setattr(shapes, "_grow", drawn)
        with pytest.raises(ValueError, match="bad noise parameters"):
            make(0, rate=rate)

    def test_rates_0_and_1_stay_valid(self):
        clean, flipped = (gen_noisy_image_2d(3, width=9, height=7, rate=r) for r in (0, 1))
        assert np.array_equal(flipped.cells, ~clean.cells)
        for rate in (0, 1):
            assert gen_noisy_volume_3d(3, 6, 5, 4, rate=rate).cells.shape == (4, 5, 6)


# Frozen outputs: (generator, args, kwargs, cells shape, SHA-256 of
# cells.tobytes()). The fat polyominoes use criterion 2's area schedule,
# round(16 * 256 ** (i / 999)) for seed i; noisy volume seeds 7 and 18 take
# the re-draw path (2 and 3 attempts). Any drift in the draw protocol or in
# the rasterization of the coarse shape changes a digest.
PINNED = [
    ("gen_fat_polyomino_2d", (0, 16), {}, (6, 6),
     "d68c6f3ff44146395393b5e2fd1b229c99172942431e40d8029a1e6bc0936826"),
    ("gen_fat_polyomino_2d", (250, 64), {}, (14, 12),
     "24255d891274146745ab8b7742995d7cc72bc5ea01ccbec1cfd3969fc6fe72ff"),
    ("gen_fat_polyomino_2d", (500, 257), {}, (32, 22),
     "62b71c3e244d146344bdebb9f853395630e723b662b9eada00fe02668e64ebbf"),
    ("gen_fat_polyomino_2d", (750, 1028), {}, (56, 50),
     "87f20016abde37e7e02613b507bf329d178b1c6344dea6bceb6c786e84a5e07a"),
    ("gen_fat_polyomino_2d", (999, 4096), {}, (102, 86),
     "499628cc7eb3f9bce31112da53c265548ba37d79e30a23390cc7a58d18062bef"),
    ("gen_holey_polyomino_2d", (0, 200), {'holes': 0}, (26, 18),
     "b124c949f58eccc9a808d1184d76a149aa29fc0c37d5be3bf74727d58ef58d60"),
    ("gen_holey_polyomino_2d", (1, 207), {'holes': 1}, (26, 20),
     "350c32dae7f26ca7c0d3108f860d20135459c05c0613502e1336ddc9d2e886e6"),
    ("gen_holey_polyomino_2d", (2, 214), {'holes': 2}, (24, 24),
     "e03138e5c86208553a4d6c61836d12d5d455125ae301d3e6a8c04e09348f4597"),
    ("gen_scene_2d", (0,), {}, (32, 56),
     "453e60742d075207e047b64f0b82f9a4b98030c3ad9db1497f0daf762f88c9c4"),
    ("gen_scene_2d", (1,), {}, (16, 16),
     "8f0a743f6d765305da106e489c8e0b76aa6920b08fdf2506849dcdfc58eeac57"),
    ("gen_scene_2d", (2,), {}, (38, 24),
     "0763f6de33632292afb14ada1ed80b931ac86191cad7f25dce2ddb96b61870f5"),
    ("gen_noisy_image_2d", (0,), {}, (48, 48),
     "5233d01f9b97e440f302741bf00678653ee84af39edfabf44b9724aa0096a411"),
    ("gen_noisy_image_2d", (1,), {}, (48, 48),
     "b203dfc287374e429293a549e3c37fd6f47f8235aa66c6f2b95e834e34409b5e"),
    ("gen_noisy_image_2d", (2,), {}, (48, 48),
     "c1e41969fcc895d59120685a6b35c03addb09be90823624e0809f517face2ead"),
    ("gen_fat_blob_3d", (0, 120), {}, (8, 10, 18),
     "14feab9e73232c33813191d63af5a45961a433f419e98d29a9e614b0d7255d6b"),
    ("gen_fat_blob_3d", (1, 120), {}, (12, 10, 12),
     "7da589f8ffea1775ebb4d8e56a4737a0dd57772378ac1856203091ba7fba5ff3"),
    ("gen_fat_blob_3d", (2, 120), {}, (8, 12, 12),
     "5c29b12e979e89bd70df1ce5b419a97694f936cc5e3f42d75ccc0676697739cb"),
    ("gen_noisy_volume_3d", (0,), {}, (16, 16, 16),
     "e3dd366b914810ee5407625808c5b17d977752577c9587da67d3b2e49c8a5f66"),
    ("gen_noisy_volume_3d", (1,), {}, (16, 16, 16),
     "d396681a7a85313553174d55e425760f8068e30a961a85abfc3bf53154d90e97"),
    ("gen_noisy_volume_3d", (7,), {}, (16, 16, 16),
     "7ab791eadba24920375dd56bc60c8f5a20d3191239521a51e23123477316c96b"),
    ("gen_noisy_volume_3d", (18,), {}, (16, 16, 16),
     "7a5fdff7fe52556616efaeeafb581ee6689d1a3985a33caaf21a4f8e3b667dd1"),
    ("gen_noisy_volume_3d", (1,), {'nx': 10, 'ny': 12, 'nz': 8}, (8, 12, 10),
     "07fd9ca34cbba164d2d16f748afefeb6a97377c36761be479c84b77e91e63cda"),
    ("gen_fat_polyomino_2d", (3, 150), {'min_width': 3}, (17, 23),
     "1a5f247f79e33b162135b138941fdbfa0427700557dd0919a746aa6f52467ed5"),
    # The benchmark's generator ops: gen blob3d --volume 32768,
    # gen poly2d --area 16384 and gen holey2d --area 4096 --holes 4.
    ("gen_fat_blob_3d", (1, 32768), {}, (74, 66, 66),
     "6fd85c9513ae7ab11d62720248b00846cfc360e783ffecca748bff12548b9b6f"),
    ("gen_fat_polyomino_2d", (1, 16384), {}, (168, 174),
     "78886277c994af01c092dd9ef38443f48abe33125acae0075179ca7954f477c4"),
    ("gen_holey_polyomino_2d", (2, 4096, 4), {}, (98, 84),
     "7d7b5f63c84139af45f2f8b1909cf687ebc9731cc0a9328d0404c0623db8e262"),
]


@pytest.mark.parametrize(
    "name,args,kwargs,shape,digest",
    PINNED,
    ids=[f"{p[0]}{p[1]}" for p in PINNED],
)
def test_generator_output_pinned(name, args, kwargs, shape, digest):
    cells = getattr(shapes, name)(*args, **kwargs).cells
    assert cells.shape == shape
    assert hashlib.sha256(cells.tobytes()).hexdigest() == digest
