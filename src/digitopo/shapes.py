"""Deterministic shape generators for tests and benchmarks.

Seeded generators draw from ``random.Random(seed)``, the stdlib Mersenne
Twister, so identical seeds give identical shapes on every platform. The
draw protocol is part of the contract:

* Random shapes grow by accreting super-cells on a coarse grid. The
  candidate list is kept in discovery order: when a cell joins the shape,
  its empty direct neighbors are appended in +x, -x, +y, -y (, +z, -z)
  order, skipping cells already queued. Each step draws
  ``rng.randrange(len(candidates))`` and pops that index. Rejected
  candidates are dropped; a later neighbor may queue them again.
* Hole drilling draws ``rng.randrange(len(eligible))`` over eligible
  cells listed in scan order.
* Noise salting draws ``rng.random()`` once per cell in scan order
  (x fastest, then y, then z) and flips the cell when the draw is below
  the rate.
* 3D noise volumes are verified against the repair rules. A draw the
  rules cannot clean is discarded and the volume regenerated from
  ``random.Random(seed * 1000003 + attempt)`` with the attempt counter
  incremented, until a reachable draw appears.

Changing any of this invalidates frozen test expectations.

A new super-cell is accepted only when it touches the shape in a single
boundary arc (2D) or a single disk of shared faces (3D). The test is a
sum over the 2x2 (2D) or 2x2x2 (3D) windows that hold the candidate, as
in Gray's bit quads and Lee, Kashyap and Chu's octant Euler table: the
window's other cells form a code, and a table gives the window's share
of the contact's Euler characteristic, 2*[corner touched] - (shared
edges) in 2D and 4*[corner touched] - 2*(touched edges) + (shared faces)
in 3D. A window rejects outright when a touched corner or edge has no
shared edge (2D) or face (3D) beside it in the window, or when the
candidate would complete a 3D window of six occupied cells whose two
empty ones are antipodal. The candidate is accepted when no window
rejects and the sum is 2 (2D) or 4 (3D): Euler characteristic 1, a disk,
times the window weight. These are the decisions of the cell-by-cell
contact test, which ``tests/test_shapes_reference.py`` keeps, so the
draw protocol above is unchanged. Grown this way the coarse shape stays
contractible, so the scaled output is simply connected, has minimum
feature width ``min_width``, and contains no pathological configurations
and no thin or stray boundary pixels.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np

from .grid import Image2D, Volume3D, _grid_of, _pad

__all__ = [
    "gen_block_2d",
    "gen_block_3d",
    "gen_frame",
    "gen_shell",
    "gen_fat_polyomino_2d",
    "gen_holey_polyomino_2d",
    "gen_fat_blob_3d",
    "extrude",
    "gen_scene_2d",
    "gen_noisy_image_2d",
    "gen_noisy_volume_3d",
]


def gen_block_2d(w: int, h: int) -> Image2D:
    """Solid w-by-h rectangle with a 1-pixel background pad."""
    if w <= 0 or h <= 0:
        raise ValueError("block extents must be positive")
    return _grid_of(_pad(np.ones((h, w), dtype=bool)))


def gen_block_3d(nx: int, ny: int, nz: int) -> Volume3D:
    """Solid block with a 1-voxel background pad."""
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise ValueError("block extents must be positive")
    return _grid_of(_pad(np.ones((nz, ny, nx), dtype=bool)))


def gen_frame(holes: int, ring_width: int = 1, thickness: int = 1) -> Volume3D:
    """Slab with ``holes`` separated square tunnels along z.

    The slab is (2*holes+1)*ring_width wide, with solid bars alternating
    with square tunnels of side ring_width; its boundary is a closed
    surface of genus ``holes``. ``holes=0`` degenerates to a solid block.
    1-voxel pad. Raises ValueError for bad parameters (``frame_slab``).
    """
    slabs = [frame_slab(z, holes, ring_width, thickness) for z in range(thickness + 2)]
    return _grid_of(np.stack(slabs))


def frame_slab(
    z: int, holes: int, ring_width: int = 1, thickness: int = 1
) -> np.ndarray:
    """One z-slab of gen_frame's output, computed without the full volume.

    ``gen_frame`` stacks these; benchmarks stream arbitrarily large
    frames slab by slab (``streaming.iter_frame_slabs``). Both check the
    parameters here, so a bad frame raises before any slab is built.
    """
    if holes < 0 or ring_width < 1 or thickness < 1:
        raise ValueError("bad frame parameters")
    rw, t = ring_width, thickness
    x_ext = (2 * holes + 1) * rw
    y_ext = 3 * rw
    slab = np.zeros((y_ext + 2, x_ext + 2), dtype=bool)
    if 1 <= z <= t:
        slab[1:-1, 1:-1] = True
        for j in range(holes):
            x0 = 1 + (2 * j + 1) * rw
            slab[1 + rw : 1 + 2 * rw, x0 : x0 + rw] = False
    return slab


def gen_shell(
    outer: tuple[int, int, int], cavity: tuple[int, int, int] | None
) -> Volume3D:
    """Solid block with a centered rectangular cavity. 1-voxel pad.

    The cavity must be strictly interior: at least one voxel of wall on
    every side. A None or zero-extent cavity gives a solid block.
    """
    ox, oy, oz = outer
    if ox <= 0 or oy <= 0 or oz <= 0:
        raise ValueError("outer extents must be positive")
    cells = _pad(np.ones((oz, oy, ox), dtype=bool))
    if cavity is not None and all(c > 0 for c in cavity):
        cx, cy, cz = cavity
        if cx > ox - 2 or cy > oy - 2 or cz > oz - 2:
            raise ValueError("cavity touching outer boundary")
        x0 = 1 + (ox - cx) // 2
        y0 = 1 + (oy - cy) // 2
        z0 = 1 + (oz - cz) // 2
        cells[z0 : z0 + cz, y0 : y0 + cy, x0 : x0 + cx] = False
    return Volume3D(ox + 2, oy + 2, oz + 2, cells)


def extrude(img: Image2D, layers: int = 2) -> Volume3D:
    """Stack ``layers`` copies of an image along z."""
    if layers < 1:
        raise ValueError("layers must be positive")
    cells = np.repeat(img.cells[np.newaxis, :, :], layers, axis=0)
    return Volume3D(img.width, img.height, layers, cells)


# ---------------------------------------------------------------------------
# coarse accretion
#
# A growing shape holds its cells as int keys: x + y*base (+ z*base**2),
# each coordinate biased by base // 2. Its cells stay face-connected to
# the origin, so they lie within +-(target - 1) on every axis, and the
# window probes of a candidate within +-(target + 1). Every digit is then
# in [0, base) for base = 2*target + 3, and no two probed cells share a
# key.

_REJECT = 8  # more than any sum of accepting entries can reach


@functools.cache
def _window_rule(dim: int) -> tuple[tuple[int, ...], tuple]:
    """The acceptance rule in ``dim`` dimensions as a window table.

    Each of the 2**dim windows of 2x2(x2) cells that hold the candidate
    codes its other cells in k = 2**dim - 1 bits: bit u-1 is the cell
    that steps away from the candidate along the axes set in u. A
    nonempty axis set s in the window also names a cell of the
    candidate's boundary (an edge or corner in 2D; a face, edge or
    corner in 3D), touched when an occupied u lies in s. ``table[code]``
    sums (-1)**(dim - |s|) * 2**(|s| - 1) over the touched s: the
    window's share of the contact's Euler characteristic, times
    2**(dim - 1). It is ``_REJECT`` when a touched s has no shared facet
    (one-axis u) in it, or when the window's only empty cells are an
    antipodal pair (in 2D that pattern is already impure).

    ``neighbors`` pairs each neighbour offset (x first) with the code
    bits it sets when occupied; window w takes bits w*k to w*k + k - 1.
    """
    k = (1 << dim) - 1
    table = []
    for code in range(1 << k):
        occupied = [u for u in range(1, k + 1) if code >> (u - 1) & 1]
        empty = [u for u in range(1, k + 1) if u not in occupied]
        entry = 0
        for s in range(1, k + 1):
            if not any(u & s == u for u in occupied):
                continue
            facets = [1 << a for a in range(dim) if s >> a & 1]
            if not any(f in occupied for f in facets):
                entry = _REJECT
                break
            entry += (-1) ** (dim - len(facets)) << (len(facets) - 1)
        if len(empty) == 2 and empty[0] ^ empty[1] == k:
            entry = _REJECT
        table.append(entry)
    neighbors = []
    for d in itertools.product((-1, 0, 1), repeat=dim):
        if any(d):
            u = sum(1 << a for a in range(dim) if d[a])
            bits = 0
            for w, signs in enumerate(itertools.product((-1, 1), repeat=dim)):
                if all(c in (0, s) for c, s in zip(d, signs)):
                    bits |= 1 << (w * k + u - 1)
            neighbors.append((d, bits))
    return tuple(table), tuple(neighbors)


def _key(cell: tuple[int, ...], base: int) -> int:
    return sum((c + base // 2) * base**a for a, c in enumerate(cell))


def _acceptor(dim: int, base: int):
    """``accept(occ, key)``: may the cell at ``key`` join the shape ``occ``?

    Accept iff no window rejects and the window sum is 2**(dim - 1):
    the contact is then one boundary arc (2D) or a single disk of shared
    faces (3D), Euler characteristic 1. Contact with no shared facet, or
    only an opposite pair of faces, fails the sum.
    """
    table, neighbors = _window_rule(dim)
    origin = _key((0,) * dim, base)
    probes = [(_key(d, base) - origin, bits) for d, bits in neighbors]
    k = (1 << dim) - 1
    mask = (1 << k) - 1
    shifts = range(0, k << dim, k)
    chi = 1 << (dim - 1)

    def accept(occ: set, key: int) -> bool:
        n = sum([bits for step, bits in probes if key + step in occ])
        return sum([table[n >> s & mask] for s in shifts]) == chi

    return accept


def _grow(rng: random.Random, target: int, dim: int) -> np.ndarray:
    """Grow a coarse shape to ``target`` cells by random accretion.

    Returns the shape on its tight bounding box, indexed [y, x] or
    [z, y, x].
    """
    base = 2 * target + 3
    accept = _acceptor(dim, base)
    steps = [sign * base**a for a in range(dim) for sign in (1, -1)]
    origin = _key((0,) * dim, base)
    occ = {origin}
    candidates: list = []
    queued: set = set()

    def push_neighbors(key):
        for step in steps:
            nb = key + step
            if nb not in occ and nb not in queued:
                candidates.append(nb)
                queued.add(nb)

    push_neighbors(origin)
    while len(occ) < target:
        if not candidates:
            # Rare stall: every queued cell was rejected. Rescan the
            # border in coordinate-tuple order (not key order, which
            # puts z first) and requeue whatever is valid.
            border = sorted(
                {key + step for key in occ for step in steps} - occ,
                key=lambda key: [key // base**a % base for a in range(dim)],
            )
            candidates = [key for key in border if accept(occ, key)]
            queued = set(candidates)
            if not candidates:
                break
        i = rng.randrange(len(candidates))
        key = candidates.pop(i)
        queued.discard(key)
        if accept(occ, key):
            occ.add(key)
            push_neighbors(key)
    return _coarse_grid(occ, base, dim)


def _coarse_grid(occ: set, base: int, dim: int) -> np.ndarray:
    """Packed keys on their tight bounding box, indexed [y, x] or [z, y, x]."""
    keys = np.array(list(occ))  # int64, widened to uint64 or object past it
    pts = [keys // base**a % base for a in reversed(range(dim))]
    pts = tuple((p - p.min()).astype(np.intp) for p in pts)
    coarse = np.zeros(tuple(int(p.max()) + 1 for p in pts), dtype=bool)
    coarse[pts] = True
    return coarse


def _scale(coarse: np.ndarray, width: int) -> np.ndarray:
    """Each cell of ``coarse`` as a ``width``-wide square (cube)."""
    return np.kron(coarse, np.ones((width,) * coarse.ndim, dtype=bool))


def _coarse_to_grid(coarse: np.ndarray, min_width: int):
    """``coarse`` scaled by ``min_width`` in a one-cell frame, as an
    Image2D or a Volume3D."""
    return _grid_of(_pad(_scale(coarse, min_width)))


def gen_fat_polyomino_2d(seed: int, target_area: int, min_width: int = 2) -> Image2D:
    """Random simply connected shape with feature width >= min_width.

    Grows a coarse polyomino by arc-contact accretion, then scales each
    coarse cell to a min_width square and pads by one pixel. The result
    always passes the 2D formula preconditions.
    """
    if target_area < 1 or min_width < 1:
        raise ValueError("bad polyomino parameters")
    return _holey(random.Random(seed), target_area, 0, min_width)


def _drill_holes(rng: random.Random, coarse: np.ndarray, holes: int) -> None:
    """Remove up to ``holes`` interior cells, pairwise well separated.

    Eligible cells have all 8 neighbors occupied and Chebyshev distance
    >= 2 from every earlier hole, so each removal adds exactly one hole;
    they are listed in scan order. A removal changes the interior only
    within distance 1, where no cell is eligible any more, so the
    interior is found once and then filtered by distance per hole.
    """
    h, w = coarse.shape
    padded = _pad(coarse)
    interior = coarse.copy()
    for dy in range(3):
        for dx in range(3):
            interior &= padded[dy : dy + h, dx : dx + w]
    ys, xs = np.nonzero(interior)
    for _ in range(holes):
        if not len(ys):
            break
        i = rng.randrange(len(ys))
        y, x = ys[i], xs[i]
        coarse[y, x] = False
        far = np.maximum(abs(ys - y), abs(xs - x)) >= 2
        ys, xs = ys[far], xs[far]


def _holey(rng: random.Random, area: int, holes: int, min_width: int) -> Image2D:
    """A polyomino of about ``area`` pixels grown from ``rng``, with up to
    ``holes`` holes drilled (no draw when 0), scaled by ``min_width``."""
    coarse = _grow(rng, -(-area // (min_width * min_width)), 2)
    _drill_holes(rng, coarse, holes)
    return _coarse_to_grid(coarse, min_width)


def gen_holey_polyomino_2d(
    seed: int, target_area: int, holes: int, min_width: int = 2
) -> Image2D:
    """Fat polyomino with up to ``holes`` single-super-cell holes drilled.

    Drilled cells keep one full super-cell of wall on every side, so the
    output still passes the formula preconditions and its hole count is
    the number drilled (small shapes may fit fewer than requested).
    """
    if target_area < 1 or min_width < 1 or holes < 0:
        raise ValueError("bad polyomino parameters")
    return _holey(random.Random(seed), target_area, holes, min_width)


def gen_fat_blob_3d(seed: int, target_volume: int, min_width: int = 2) -> Volume3D:
    """Random genus-0 solid with feature width >= min_width.

    Grows a coarse voxel ball by disk-contact accretion (each accepted
    cell attaches along a single disk of shared faces, keeping the shape
    a topological ball), then scales by min_width and pads by one voxel.
    The output is well-composed with a single genus-0 boundary surface.
    """
    if target_volume < 1 or min_width < 1:
        raise ValueError("bad blob parameters")
    rng = random.Random(seed)
    coarse = _grow(rng, -(-target_volume // min_width**3), 3)
    return _coarse_to_grid(coarse, min_width)


# ---------------------------------------------------------------------------
# composite scenes and noise


def gen_scene_2d(seed: int, decorations: bool = True) -> Image2D:
    """Multi-component image: clean holey shapes plus repair bait.

    Lays 1..3 holey polyominoes (area 256, 128 or 64, 0..2 holes, width
    2) in a row with background gaps. With ``decorations`` a strip above
    them gets a lone speckle pixel, a diagonal pixel pair, and a width-1
    bar: inputs that exercise speckle removal, pathology repair, and the
    corner law on a width-1 run.
    """
    rng = random.Random(seed)
    count = 1 + rng.randrange(3)
    parts = []
    for _ in range(count):
        area = 256 >> rng.randrange(3)
        holes = rng.randrange(3)
        parts.append(_holey(rng, area, holes, 2))
    gap = 2
    strip = 4 if decorations else 0
    width = sum(p.width for p in parts) + gap * (len(parts) - 1) + 2
    height = max(p.height for p in parts) + strip + 2
    cells = np.zeros((height, width), dtype=bool)
    x = 1
    for p in parts:
        cells[1 + strip : 1 + strip + p.height, x : x + p.width] = p.cells
        x += p.width + gap
    if decorations and width >= 14:
        cells[2, 2] = True  # speckle
        cells[1, 5] = True  # diagonal pair
        cells[2, 6] = True
        cells[2, 9:12] = True  # width-1 bar
    return Image2D(width, height, cells)


def gen_noisy_image_2d(
    seed: int, width: int = 48, height: int = 48, rate: float = 0.05
) -> Image2D:
    """Fat polyomino rendered into a fixed canvas, then salted with noise.

    Noise flips each pixel independently with probability ``rate``, in
    scan order, using the same generator that grew the shape. A rate
    outside [0, 1] raises ValueError before any draw.
    """
    if not 0 <= rate <= 1:
        raise ValueError("bad noise parameters")
    rng = random.Random(seed)
    coarse_target = max(1, (width * height) // 16)
    cells = _centred(_pad(_scale(_grow(rng, coarse_target, 2), 2)), (height, width))
    cells ^= _noise_mask(rng, cells.shape, rate)
    return Image2D(width, height, cells)


def _centred(base: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """An empty grid of ``shape`` with ``base``, cut to fit from its low
    corner, centred in it."""
    fit = [min(n, m) for n, m in zip(shape, base.shape)]
    cells = np.zeros(shape, dtype=bool)
    at = tuple(slice((n - f) // 2, (n - f) // 2 + f) for n, f in zip(shape, fit))
    cells[at] = base[tuple(map(slice, fit))]
    return cells


def _noise_mask(rng: random.Random, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """One draw per cell in scan order; True where the cell flips."""
    n = int(np.prod(shape))
    draws = np.fromiter((rng.random() for _ in range(n)), dtype=float, count=n)
    return (draws < rate).reshape(shape)


def gen_noisy_volume_3d(
    seed: int, nx: int = 16, ny: int = 16, nz: int = 16, rate: float = 0.05
) -> Volume3D:
    """Fat blob rendered into a fixed canvas, then salted with noise.

    Noise flips each voxel independently with probability ``rate``, in
    scan order (x fastest, then y, then z), using the same generator that
    grew the blob. The greedy repair rules do not reach every salted
    volume: a fill can complete a pair whose prescribed deletion restores
    the filled voxel, and the scan then cycles. The construction
    therefore verifies each draw and, when repair cannot clean it,
    regenerates the whole volume with an attempt counter mixed into the
    seed. Verification only filters draws, it never edits the output, and
    the retry protocol is part of the deterministic contract. A rate
    outside [0, 1] raises ValueError before any draw.
    """
    if not 0 <= rate <= 1:
        raise ValueError("bad noise parameters")
    from .errors import RepairDidNotConverge
    from .topo3d import repair_3d

    for attempt in itertools.count():
        rng = random.Random(seed * 1000003 + attempt)
        coarse_target = max(1, (nx * ny * nz) // 48)
        cells = _centred(_scale(_grow(rng, coarse_target, 3), 2), (nz, ny, nx))
        cells ^= _noise_mask(rng, cells.shape, rate)
        vol = Volume3D(nx, ny, nz, cells)
        try:
            repair_3d(vol)
        except RepairDidNotConverge:
            continue
        return vol
    raise AssertionError("unreachable")
