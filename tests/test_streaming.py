"""Streaming folds must reproduce the batch kernels bit for bit."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from digitopo import (
    Image2D,
    Volume3D,
    classify_boundary_2d,
    classify_surface,
    fold_corner_histogram_2d,
    fold_surface_histogram_3d,
    gen_fat_blob_3d,
    gen_frame,
    gen_holey_polyomino_2d,
    gen_noisy_image_2d,
    gen_noisy_volume_3d,
    gen_shell,
    to_point_space,
)
from digitopo.streaming import FoldStats, iter_frame_slabs

FOLDS = (fold_corner_histogram_2d, fold_surface_histogram_3d)


def corner_tuple(h):
    return (h.cp1, h.cp2, h.cp3, h.cp4, h.thin, h.cp0)


def surface_tuple(h):
    return (h.m3, h.m4, h.m5, h.m6, h.irregular)


def volume(cells):
    nz, ny, nx = cells.shape
    return Volume3D(nx, ny, nz, cells)


class TestCornerFold:
    def test_matches_batch_on_noise(self):
        for seed in range(8):
            img = gen_noisy_image_2d(seed)
            batch = classify_boundary_2d(img)
            folded, stats = fold_corner_histogram_2d(iter(img.cells))
            assert corner_tuple(folded) == corner_tuple(batch), seed
            assert stats.steps == img.height

    def test_matches_batch_on_holey_shape(self):
        img = gen_holey_polyomino_2d(3, 300, holes=2)
        batch = classify_boundary_2d(img)
        folded, _ = fold_corner_histogram_2d(iter(img.cells))
        assert corner_tuple(folded) == corner_tuple(batch)

    def test_empty_image(self):
        folded, stats = fold_corner_histogram_2d(
            iter(np.zeros((4, 6), dtype=bool))
        )
        assert corner_tuple(folded) == (0, 0, 0, 0, 0, 0)
        assert stats.steps == 4

    def test_bounded_memory(self):
        img = gen_noisy_image_2d(0, width=64, height=64)
        _, stats = fold_corner_histogram_2d(iter(img.cells))
        assert stats.slab_bytes == img.cells[0].nbytes
        assert stats.held_bytes_peak <= 3 * stats.slab_bytes


class TestSurfaceFold:
    def test_matches_batch_on_frames(self):
        for holes, rw, t in ((1, 1, 1), (2, 2, 1), (1, 2, 3), (6, 1, 1)):
            vol = gen_frame(holes, ring_width=rw, thickness=t)
            batch = classify_surface(to_point_space(vol))
            folded, stats = fold_surface_histogram_3d(iter(vol.cells))
            assert surface_tuple(folded) == surface_tuple(batch)
            assert stats.steps == vol.nz

    def test_matches_batch_on_shell(self):
        vol = gen_shell((5, 4, 3), (3, 2, 1))
        batch = classify_surface(to_point_space(vol))
        folded, _ = fold_surface_histogram_3d(iter(vol.cells))
        assert surface_tuple(folded) == surface_tuple(batch)

    def test_matches_batch_on_blobs_and_noise(self):
        vols = [gen_fat_blob_3d(s, 80) for s in range(4)]
        vols += [gen_noisy_volume_3d(s) for s in range(4)]
        for vol in vols:
            batch = classify_surface(to_point_space(vol))
            folded, _ = fold_surface_histogram_3d(iter(vol.cells))
            assert surface_tuple(folded) == surface_tuple(batch)

    def test_single_slab(self):
        vol = gen_frame(1)  # thickness 1 plus padding: 3 slabs
        folded, stats = fold_surface_histogram_3d(iter(vol.cells))
        assert surface_tuple(folded) == (8, 16, 8, 0, 0)
        assert stats.steps == 3

    def test_bounded_memory(self):
        vol = gen_frame(2, ring_width=4, thickness=4)
        _, stats = fold_surface_histogram_3d(iter(vol.cells))
        assert stats.slab_bytes == vol.cells[0].nbytes
        assert stats.held_bytes_peak <= 3 * stats.slab_bytes

    def test_generator_input(self):
        # The fold must not require a materialized array.
        folded, stats = fold_surface_histogram_3d(iter_frame_slabs(1, 2, 2))
        vol = gen_frame(1, ring_width=2, thickness=2)
        batch = classify_surface(to_point_space(vol))
        assert surface_tuple(folded) == surface_tuple(batch)


class TestFrameSlabs:
    def test_iterates_whole_frame(self):
        vol = gen_frame(3, ring_width=2, thickness=2)
        slabs = list(iter_frame_slabs(3, ring_width=2, thickness=2))
        assert len(slabs) == vol.nz
        for z, slab in enumerate(slabs):
            assert np.array_equal(slab, vol.cells[z])


class TestFoldsOnBernoulliGrids:
    """Raw Bernoulli grids, drawn without a generator: every fold equals
    its batch counterpart, single rows, slabs and columns included."""

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10)),
        density=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(1, 4, 5), density=1.0, seed=0)  # a single slab
    @example(shape=(6, 1, 5), density=0.5, seed=1)
    @example(shape=(6, 5, 1), density=0.5, seed=2)
    @example(shape=(10, 10, 10), density=0.0, seed=3)
    def test_3d_folds_match_batch(self, shape, density, seed):
        cells = np.random.default_rng(seed).random(shape) < density
        vol = volume(cells)
        slab = cells[0].nbytes
        folded, stats = fold_surface_histogram_3d(iter(cells))
        assert surface_tuple(folded) == surface_tuple(
            classify_surface(to_point_space(vol))
        )
        assert stats == FoldStats(min(shape[0], 2) * slab, slab, shape[0])

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 10), st.integers(1, 10)),
        density=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(1, 7), density=1.0, seed=0)  # a single row
    @example(shape=(7, 1), density=0.5, seed=1)  # a single column
    def test_corner_fold_matches_batch(self, shape, density, seed):
        cells = np.random.default_rng(seed).random(shape) < density
        folded, stats = fold_corner_histogram_2d(iter(cells))
        if cells.any():
            want = corner_tuple(classify_boundary_2d(Image2D(shape[1], shape[0], cells)))
        else:
            want = (0, 0, 0, 0, 0, 0)
        assert corner_tuple(folded) == want
        row = cells[0].nbytes
        assert stats == FoldStats(min(shape[0], 3) * row, row, shape[0])

    @pytest.mark.parametrize("fold", FOLDS)
    def test_empty_iterator(self, fold):
        result, stats = fold(iter([]))
        if fold is fold_corner_histogram_2d:
            assert corner_tuple(result) == (0, 0, 0, 0, 0, 0)
        else:
            assert surface_tuple(result) == (0, 0, 0, 0, 0)
        assert stats == FoldStats(0, 0, 0)


class TestMismatchedInputs:
    @pytest.mark.parametrize("fold", FOLDS)
    @pytest.mark.parametrize(
        "change", [lambda a: a[:1], lambda a: a[np.newaxis]], ids=["shape", "ndim"]
    )
    def test_rejected(self, fold, change):
        # A (1, nx) slab after (ny, nx) ones would broadcast silently into
        # a padded window.
        first = np.ones((3, 4), dtype=bool)
        if fold is fold_corner_histogram_2d:
            first = first[0]
        items = [first, first, change(first)]
        message = re.escape(
            f"input 2 has shape {items[2].shape}, but input 0 has shape {first.shape}"
        )
        with pytest.raises(ValueError, match=message):
            fold(iter(items))
