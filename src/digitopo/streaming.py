"""Row and slab folds that keep a bounded working set.

The batch kernels hold the whole grid in memory. The folds here consume
an iterator of z-slabs (or pixel rows) and run those same kernels on a
window of consecutive inputs at a time, so each fold computes exactly
the integers of its batch counterpart; tests compare them bit for bit.

``_windows`` drives every fold. Between steps it holds the raw inputs of
one window: two for the surface fold, three for the corner fold. At
each step it copies them into a window padded by one empty cell
in-plane, with one empty input past each end of the iterator, and that
padded copy, like the kernel's own arrays, is a per-step temporary.
Memory therefore stays proportional to one input, however long the
volume. Each fold reports the peak of its held inputs' bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .grid import _window_codes
from .topo2d import CornerHistogram, _boundary_bins, _corner_histogram
from .topo3d import SurfaceHistogram, _DEGREE, _surface_histogram, _surface_mask

__all__ = [
    "FoldStats",
    "fold_corner_histogram_2d",
    "fold_surface_histogram_3d",
    "iter_frame_slabs",
]


@dataclass(frozen=True)
class FoldStats:
    """Working-set accounting for one fold run.

    ``held_bytes_peak`` is the largest total size of the raw inputs held
    at once, the incoming one included; the padded window and the
    kernel's arrays of one step are temporaries and not counted.
    ``slab_bytes`` is the size of one input buffer; ``steps`` the number
    of inputs consumed.
    """

    held_bytes_peak: int
    slab_bytes: int
    steps: int


def _windows(
    items: Iterable[np.ndarray], depth: int
) -> Iterator[tuple[np.ndarray, FoldStats]]:
    """Each run of ``depth`` consecutive inputs, stacked and padded by one
    empty cell in-plane, with the fold's stats so far.

    One empty input stands before the first input and one after the last:
    around n inputs, ``depth=2`` yields the n + 1 pairs and ``depth=3``
    the n runs centred on each input. Nothing is yielded for no inputs.
    Raises ValueError when an input's shape differs from the first's,
    which would otherwise broadcast into the window.
    """
    held: list[np.ndarray | None] = [None]  # None: an empty input
    first = None
    peak = 0

    def window():
        out = np.zeros((depth,) + tuple(n + 2 for n in first.shape), dtype=bool)
        inner = (slice(1, -1),) * first.ndim
        for layer, item in zip(out, held):
            if item is not None:
                layer[inner] = item
        return out

    for step, item in enumerate(items):
        item = np.asarray(item, dtype=bool)
        if first is None:
            first = item
        elif item.shape != first.shape:
            raise ValueError(
                f"input {step} has shape {item.shape}, "
                f"but input 0 has shape {first.shape}"
            )
        held = held[1 - depth :] + [item]
        peak = max(peak, sum(h.nbytes for h in held if h is not None))
        stats = FoldStats(peak, first.nbytes, step + 1)
        if len(held) == depth:
            yield window(), stats
    if first is not None:
        held = held[1 - depth :] + [None]
        yield window(), stats


def fold_corner_histogram_2d(
    rows: Iterable[np.ndarray],
) -> tuple[CornerHistogram, FoldStats]:
    """Corner histogram of an image consumed one pixel row at a time.

    Matches classify_boundary_2d on the same image: each row's boundary
    pixels are read from the window codes of it and the rows above and
    below.
    """
    bins = np.zeros(16, dtype=np.int64)
    stats = FoldStats(0, 0, 0)
    for window, stats in _windows(rows, 3):
        bins += _boundary_bins(_window_codes(window))
    return _corner_histogram(bins), stats


def fold_surface_histogram_3d(
    slabs: Iterable[np.ndarray],
) -> tuple[SurfaceHistogram, FoldStats]:
    """Surface-point histogram of a volume consumed one z-slab at a time.

    Matches classify_surface(to_point_space(vol)) on the same volume: the
    two slabs around each vertex layer hold the 2x2x2 windows of its
    vertices, and the layer's histogram is a bincount of their codes'
    neighbor counts (``_DEGREE``) over its surface points.
    """
    bins = np.zeros(7, dtype=np.int64)
    stats = FoldStats(0, 0, 0)
    for window, stats in _windows(slabs, 2):
        codes = _window_codes(window)
        bins += np.bincount(_DEGREE[codes[_surface_mask(codes)]], minlength=7)
    return _surface_histogram(bins), stats


def iter_frame_slabs(
    holes: int, ring_width: int = 1, thickness: int = 1
) -> Iterator[np.ndarray]:
    """Slabs of gen_frame's output, produced one at a time.

    Generates each slab procedurally so benchmarks never materialize the
    whole volume.
    """
    from .shapes import frame_slab

    for z in range(thickness + 2):
        yield frame_slab(z, holes, ring_width, thickness)
