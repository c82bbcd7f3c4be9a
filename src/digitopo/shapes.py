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
boundary arc (2D) or a single disk of shared faces (3D). Grown this way
the coarse shape stays contractible, so the scaled output is
simply connected, has minimum feature width ``min_width``, and contains
no pathological configurations and no thin or stray boundary pixels.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .grid import Image2D, Volume3D

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
    cells = np.zeros((h + 2, w + 2), dtype=bool)
    cells[1:-1, 1:-1] = True
    return Image2D(w + 2, h + 2, cells)


def gen_block_3d(nx: int, ny: int, nz: int) -> Volume3D:
    """Solid block with a 1-voxel background pad."""
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise ValueError("block extents must be positive")
    cells = np.zeros((nz + 2, ny + 2, nx + 2), dtype=bool)
    cells[1:-1, 1:-1, 1:-1] = True
    return Volume3D(nx + 2, ny + 2, nz + 2, cells)


def gen_frame(holes: int, ring_width: int = 1, thickness: int = 1) -> Volume3D:
    """Slab with ``holes`` separated square tunnels along z.

    The slab is (2*holes+1)*ring_width wide, with solid bars alternating
    with square tunnels of side ring_width; its boundary is a closed
    surface of genus ``holes``. ``holes=0`` degenerates to a solid block.
    1-voxel pad.
    """
    if holes < 0 or ring_width < 1 or thickness < 1:
        raise ValueError("bad frame parameters")
    rw, t = ring_width, thickness
    x_ext = (2 * holes + 1) * rw
    y_ext = 3 * rw
    cells = np.zeros((t + 2, y_ext + 2, x_ext + 2), dtype=bool)
    cells[1:-1, 1:-1, 1:-1] = True
    for j in range(holes):
        x0 = 1 + (2 * j + 1) * rw
        cells[1:-1, 1 + rw : 1 + 2 * rw, x0 : x0 + rw] = False
    return Volume3D(x_ext + 2, y_ext + 2, t + 2, cells)


def frame_slab(
    z: int, holes: int, ring_width: int = 1, thickness: int = 1
) -> np.ndarray:
    """One z-slab of gen_frame's output, computed without the full volume.

    Lets benchmarks stream arbitrarily large frames slab by slab;
    ``gen_frame(...)[z] == frame_slab(z, ...)`` cell for cell.
    """
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
    cells = np.zeros((oz + 2, oy + 2, ox + 2), dtype=bool)
    cells[1:-1, 1:-1, 1:-1] = True
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


_DIRS_2D = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIRS_3D = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def _accept_2d(occ: set, c: tuple[int, int]) -> bool:
    """Accept iff the contact with the shape is one boundary arc.

    The contact set on the candidate square's boundary circle is a
    disjoint union of arcs, one per shared-corner minus shared-edge
    excess, so it is a single arc containing an edge exactly when
    e >= 1 and v - e == 1.
    """
    x, y = c
    e = 0
    for dx, dy in _DIRS_2D:
        if (x + dx, y + dy) in occ:
            e += 1
    if e == 0:
        return False
    v = 0
    for cx, cy in ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)):
        for ox in (cx - 1, cx):
            for oy in (cy - 1, cy):
                if (ox, oy) != (x, y) and (ox, oy) in occ:
                    v += 1
                    break
            else:
                continue
            break
    return v - e == 1


_EDGES_3D = []
for _a in range(3):
    for _b in range(_a + 1, 3):
        for _sa in (-1, 1):
            for _sb in (-1, 1):
                _d1 = [0, 0, 0]
                _d2 = [0, 0, 0]
                _d1[_a] = _sa
                _d2[_b] = _sb
                _EDGES_3D.append((tuple(_d1), tuple(_d2)))

_CORNERS_3D = [
    ((sx, 0, 0), (0, sy, 0), (0, 0, sz))
    for sx in (-1, 1)
    for sy in (-1, 1)
    for sz in (-1, 1)
]

def _accept_3d(occ: set, c: tuple[int, int, int]) -> bool:
    """Accept iff the contact with the shape is a single disk of faces.

    Contact must be pure (every shared edge and corner lies in a shared
    face), connected, and have Euler characteristic 1; adding the cell
    must also not complete a window of 6 occupied cells around a vertex
    with the remaining two antipodal cells empty.
    """
    x, y, z = c

    def has(d):
        return (x + d[0], y + d[1], z + d[2]) in occ

    faces = [d for d in _DIRS_3D if has(d)]
    f = len(faces)
    if f == 0:
        return False
    face_set = set(faces)
    # Two shared faces that are not opposite always meet along a shared
    # edge, so the contact is disconnected only when it is exactly one
    # opposite pair.
    if f == 2 and faces[0] == tuple(-k for k in faces[1]):
        return False
    e = 0
    for d1, d2 in _EDGES_3D:
        d12 = (d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2])
        if has(d1) or has(d2) or has(d12):
            e += 1
            if d1 not in face_set and d2 not in face_set:
                return False  # edge contact outside any shared face
    v = 0
    for d1, d2, d3 in _CORNERS_3D:
        touched = False
        for use1 in (0, 1):
            for use2 in (0, 1):
                for use3 in (0, 1):
                    if not (use1 or use2 or use3):
                        continue
                    d = (
                        d1[0] * use1 + d2[0] * use2 + d3[0] * use3,
                        d1[1] * use1 + d2[1] * use2 + d3[1] * use3,
                        d1[2] * use1 + d2[2] * use2 + d3[2] * use3,
                    )
                    if has(d):
                        touched = True
        if touched:
            v += 1
            if d1 not in face_set and d2 not in face_set and d3 not in face_set:
                return False  # corner contact outside any shared face
    if v - e + f != 1:
        return False
    # No complement pattern in any vertex window gaining this cell.
    for wx in (x - 1, x):
        for wy in (y - 1, y):
            for wz in (z - 1, z):
                window = {}
                for dx in (0, 1):
                    for dy in (0, 1):
                        for dz in (0, 1):
                            cell = (wx + dx, wy + dy, wz + dz)
                            window[(dx, dy, dz)] = cell == c or cell in occ
                if sum(window.values()) == 6:
                    empty = [k for k, val in window.items() if not val]
                    a, b = empty
                    if all(a[i] + b[i] == 1 for i in range(3)):
                        return False
    return True


def _grow(rng: random.Random, target: int, dirs, accept) -> set:
    """Grow a coarse shape to ``target`` cells by random accretion."""
    origin = (0,) * len(dirs[0])
    occ = {origin}
    candidates: list = []
    queued: set = set()

    def push_neighbors(cell):
        for d in dirs:
            nb = tuple(a + b for a, b in zip(cell, d))
            if nb not in occ and nb not in queued:
                candidates.append(nb)
                queued.add(nb)

    push_neighbors(origin)
    while len(occ) < target:
        if not candidates:
            # Rare stall: every queued cell was rejected. Rescan the
            # border deterministically and requeue whatever is valid.
            border = sorted(
                {
                    tuple(a + b for a, b in zip(cell, d))
                    for cell in occ
                    for d in dirs
                }
                - occ
            )
            candidates = [cell for cell in border if accept(occ, cell)]
            queued = set(candidates)
            if not candidates:
                break
        i = rng.randrange(len(candidates))
        cell = candidates.pop(i)
        queued.discard(cell)
        if accept(occ, cell):
            occ.add(cell)
            push_neighbors(cell)
    return occ


def _coarse_grid(occ: set) -> np.ndarray:
    """The coarse shape on its tight bounding box, indexed [y, x] or [z, y, x]."""
    pts = np.array(list(occ), dtype=np.int64)
    pts -= pts.min(axis=0)
    coarse = np.zeros(tuple(pts.max(axis=0)[::-1] + 1), dtype=bool)
    coarse[tuple(pts[:, ::-1].T)] = True
    return coarse


def _coarse_to_image(occ: set, min_width: int) -> Image2D:
    coarse = _coarse_grid(occ)
    fine = np.kron(coarse, np.ones((min_width, min_width), dtype=bool))
    cells = np.pad(fine, 1, constant_values=False)
    return Image2D(cells.shape[1], cells.shape[0], cells)


def gen_fat_polyomino_2d(seed: int, target_area: int, min_width: int = 2) -> Image2D:
    """Random simply connected shape with feature width >= min_width.

    Grows a coarse polyomino by arc-contact accretion, then scales each
    coarse cell to a min_width square and pads by one pixel. The result
    always passes the 2D formula preconditions.
    """
    if target_area < 1 or min_width < 1:
        raise ValueError("bad polyomino parameters")
    rng = random.Random(seed)
    coarse_target = -(-target_area // (min_width * min_width))
    occ = _grow(rng, coarse_target, _DIRS_2D, _accept_2d)
    return _coarse_to_image(occ, min_width)


def _drill_holes(rng: random.Random, occ: set, holes: int) -> int:
    """Remove up to ``holes`` interior cells, pairwise well separated.

    Eligible cells have all 8 neighbors occupied and Chebyshev distance
    >= 2 from every earlier hole, so each removal adds exactly one hole.
    Returns the number actually drilled.
    """
    drilled: list = []
    for _ in range(holes):
        eligible = []
        for x, y in sorted(occ, key=lambda c: (c[1], c[0])):
            ok = all(
                (x + dx, y + dy) in occ
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                if (dx, dy) != (0, 0)
            )
            if ok and all(
                max(abs(x - hx), abs(y - hy)) >= 2 for hx, hy in drilled
            ):
                eligible.append((x, y))
        if not eligible:
            break
        cell = eligible[rng.randrange(len(eligible))]
        occ.discard(cell)
        drilled.append(cell)
    return len(drilled)


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
    rng = random.Random(seed)
    coarse_target = -(-target_area // (min_width * min_width))
    occ = _grow(rng, coarse_target, _DIRS_2D, _accept_2d)
    _drill_holes(rng, occ, holes)
    return _coarse_to_image(occ, min_width)


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
    mw3 = min_width**3
    coarse_target = -(-target_volume // mw3)
    occ = _grow(rng, coarse_target, _DIRS_3D, _accept_3d)
    mw = min_width
    fine = np.kron(_coarse_grid(occ), np.ones((mw, mw, mw), dtype=bool))
    cells = np.pad(fine, 1, constant_values=False)
    return Volume3D(cells.shape[2], cells.shape[1], cells.shape[0], cells)


# ---------------------------------------------------------------------------
# composite scenes and noise


def gen_scene_2d(
    seed: int,
    max_shapes: int = 3,
    base_area: int = 256,
    min_width: int = 2,
    decorations: bool = True,
) -> Image2D:
    """Multi-component image: clean holey shapes plus repair bait.

    Lays 1..max_shapes holey polyominoes in a row with background gaps.
    With ``decorations`` a strip above them gets a lone speckle pixel, a
    diagonal pixel pair, and a width-1 bar: inputs that exercise speckle
    removal, pathology repair, and the corner law on a width-1 run.
    """
    rng = random.Random(seed)
    count = 1 + rng.randrange(max_shapes)
    parts = []
    for _ in range(count):
        area = max(16, base_area >> rng.randrange(3))
        holes = rng.randrange(3)
        coarse_target = -(-area // (min_width * min_width))
        occ = _grow(rng, coarse_target, _DIRS_2D, _accept_2d)
        _drill_holes(rng, occ, holes)
        parts.append(_coarse_to_image(occ, min_width))
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
    scan order, using the same generator that grew the shape.
    """
    rng = random.Random(seed)
    coarse_target = max(1, (width * height) // 16)
    occ = _grow(rng, coarse_target, _DIRS_2D, _accept_2d)
    base = _coarse_to_image(occ, 2)
    cells = np.zeros((height, width), dtype=bool)
    h = min(height, base.height)
    w = min(width, base.width)
    y0 = (height - h) // 2
    x0 = (width - w) // 2
    cells[y0 : y0 + h, x0 : x0 + w] = base.cells[:h, :w]
    cells ^= _noise_mask(rng, cells.shape, rate)
    return Image2D(width, height, cells)


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
    the retry protocol is part of the deterministic contract.
    """
    from .errors import RepairDidNotConverge
    from .topo3d import repair_3d

    for attempt in itertools.count():
        rng = random.Random(seed * 1000003 + attempt)
        coarse_target = max(1, (nx * ny * nz) // 48)
        occ = _grow(rng, coarse_target, _DIRS_3D, _accept_3d)
        base = np.kron(_coarse_grid(occ), np.ones((2, 2, 2), dtype=bool))
        cells = np.zeros((nz, ny, nx), dtype=bool)
        d = min(nz, base.shape[0])
        h = min(ny, base.shape[1])
        w = min(nx, base.shape[2])
        z0 = (nz - d) // 2
        y0 = (ny - h) // 2
        x0 = (nx - w) // 2
        cells[z0 : z0 + d, y0 : y0 + h, x0 : x0 + w] = base[:d, :h, :w]
        cells ^= _noise_mask(rng, cells.shape, rate)
        vol = Volume3D(nx, ny, nz, cells)
        try:
            repair_3d(vol)
        except RepairDidNotConverge:
            continue
        return vol
    raise AssertionError("unreachable")
