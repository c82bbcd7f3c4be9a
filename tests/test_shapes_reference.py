"""The window-table accretion rule against the set-probe rule it replaced.

``shapes._acceptor`` decides whether a candidate cell may join a growing
shape from one table lookup per 2x2(x2) window around it, and
``shapes._grow`` keeps its cells as packed int keys. The references
below are the earlier cell-by-cell tests on coordinate tuples
(``reference_accept_2d``, ``reference_accept_3d``), the tuple-keyed
growth loop and the per-hole drilling loop. Every decision must match,
and the same draws must grow the same shape.
"""

import functools
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from digitopo import shapes

DIRS_2D = ((1, 0), (-1, 0), (0, 1), (0, -1))
DIRS_3D = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))

EDGES_3D = []
for _a in range(3):
    for _b in range(_a + 1, 3):
        for _sa in (-1, 1):
            for _sb in (-1, 1):
                _d1 = [0, 0, 0]
                _d2 = [0, 0, 0]
                _d1[_a] = _sa
                _d2[_b] = _sb
                EDGES_3D.append((tuple(_d1), tuple(_d2)))

CORNERS_3D = [
    ((sx, 0, 0), (0, sy, 0), (0, 0, sz))
    for sx in (-1, 1)
    for sy in (-1, 1)
    for sz in (-1, 1)
]


def reference_accept_2d(occ, c):
    """Accept iff the contact with the shape is one boundary arc."""
    x, y = c
    e = 0
    for dx, dy in DIRS_2D:
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


def reference_accept_3d(occ, c):
    """Accept iff the contact with the shape is a single disk of faces."""
    x, y, z = c

    def has(d):
        return (x + d[0], y + d[1], z + d[2]) in occ

    faces = [d for d in DIRS_3D if has(d)]
    f = len(faces)
    if f == 0:
        return False
    face_set = set(faces)
    if f == 2 and faces[0] == tuple(-k for k in faces[1]):
        return False
    e = 0
    for d1, d2 in EDGES_3D:
        d12 = (d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2])
        if has(d1) or has(d2) or has(d12):
            e += 1
            if d1 not in face_set and d2 not in face_set:
                return False
    v = 0
    for d1, d2, d3 in CORNERS_3D:
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
                return False
    if v - e + f != 1:
        return False
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


def reference_grow(rng, target, dirs, accept, stalls=None):
    """The tuple-keyed growth loop; appends each stall's rescan to ``stalls``."""
    origin = (0,) * len(dirs[0])
    occ = {origin}
    candidates = []
    queued = set()

    def push_neighbors(cell):
        for d in dirs:
            nb = tuple(a + b for a, b in zip(cell, d))
            if nb not in occ and nb not in queued:
                candidates.append(nb)
                queued.add(nb)

    push_neighbors(origin)
    while len(occ) < target:
        if not candidates:
            border = sorted(
                {tuple(a + b for a, b in zip(cell, d)) for cell in occ for d in dirs}
                - occ
            )
            candidates = [cell for cell in border if accept(occ, cell)]
            queued = set(candidates)
            if stalls is not None:
                stalls.append(len(candidates))
            if not candidates:
                break
        i = rng.randrange(len(candidates))
        cell = candidates.pop(i)
        queued.discard(cell)
        if accept(occ, cell):
            occ.add(cell)
            push_neighbors(cell)
    return occ


def reference_coarse_grid(occ):
    pts = np.array(list(occ), dtype=np.int64)
    pts -= pts.min(axis=0)
    coarse = np.zeros(tuple(pts.max(axis=0)[::-1] + 1), dtype=bool)
    coarse[tuple(pts[:, ::-1].T)] = True
    return coarse


def reference_drill_holes(rng, occ, holes):
    drilled = []
    for _ in range(holes):
        eligible = []
        for x, y in sorted(occ, key=lambda c: (c[1], c[0])):
            ok = all(
                (x + dx, y + dy) in occ
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                if (dx, dy) != (0, 0)
            )
            if ok and all(max(abs(x - hx), abs(y - hy)) >= 2 for hx, hy in drilled):
                eligible.append((x, y))
        if not eligible:
            break
        cell = eligible[rng.randrange(len(eligible))]
        occ.discard(cell)
        drilled.append(cell)


def table_accept(table, dim):
    """The window-sum rule of ``table`` on coordinate tuples."""
    k = (1 << dim) - 1
    windows = list(itertools.product((-1, 1), repeat=dim))

    def accept(occ, c):
        total = 0
        for signs in windows:
            code = 0
            for u in range(1, k + 1):
                cell = tuple(
                    x + s * (u >> a & 1) for a, (x, s) in enumerate(zip(c, signs))
                )
                if cell in occ:
                    code |= 1 << (u - 1)
            total += table[code]
        return total == 1 << (dim - 1)

    return accept


NEIGHBORS_2D = [d for d in itertools.product((-1, 0, 1), repeat=2) if any(d)]
NEIGHBORS_3D = [d for d in itertools.product((-1, 0, 1), repeat=3) if any(d)]
BASE = 7  # packs coordinates within +-3


@functools.cache
def packed_acceptor(dim):
    return shapes._acceptor(dim, BASE)


def packed_decision(dim, cells):
    keys = {shapes._key(c, BASE) for c in cells}
    return packed_acceptor(dim)(keys, shapes._key((0,) * dim, BASE))


def test_2d_rule_on_every_neighbourhood():
    for mask in range(1 << 8):
        cells = {d for i, d in enumerate(NEIGHBORS_2D) if mask >> i & 1}
        assert packed_decision(2, cells) == reference_accept_2d(cells, (0, 0)), cells


# Complement windows in the +++ and --- octants: five of the seven other
# cells, with the two empty ones antipodal. Alone, each of these contacts
# is a disk, so the complement test is what rejects them.
_OCTANT = {u: (u & 1, u >> 1 & 1, u >> 2 & 1) for u in range(1, 8)}


def _complement(pair, sign=1):
    return [
        tuple(sign * c for c in _OCTANT[u]) for u in range(1, 8) if u not in pair
    ]


DRAWS_PER_EXAMPLE = 250  # 210 examples: 52,500 neighbourhoods


@settings(max_examples=210, deadline=None)
@given(
    density=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
    filled=st.lists(st.sampled_from(NEIGHBORS_3D), max_size=7),
)
@example(density=0.0, seed=0, filled=_complement((1, 6)))
@example(density=0.0, seed=0, filled=_complement((2, 5)))
@example(density=0.0, seed=0, filled=_complement((3, 4)))
@example(density=0.0, seed=0, filled=_complement((3, 4), sign=-1))
@example(density=0.0, seed=0, filled=_complement((1, 2)))  # not antipodal
@example(density=1.0, seed=0, filled=[])
def test_3d_rule_matches_reference(density, seed, filled):
    rng = random.Random(seed)
    for _ in range(DRAWS_PER_EXAMPLE):
        cells = {d for d in NEIGHBORS_3D if rng.random() < density}
        cells.update(filled)
        assert packed_decision(3, cells) == reference_accept_3d(cells, (0, 0, 0)), (
            sorted(cells)
        )


def test_complement_windows_are_what_rejects():
    for pair in ((1, 6), (2, 5), (3, 4)):
        for sign in (1, -1):
            cells = set(_complement(pair, sign))
            assert not packed_decision(3, cells)
            # Without the far corner the window is no complement, and the
            # contact, still the same disk of faces, is accepted.
            corner = tuple(sign * c for c in _OCTANT[7])
            assert packed_decision(3, cells - {corner})


@pytest.mark.parametrize("dim", [2, 3])
def test_table_accept_is_the_reference(dim):
    # The tuple form of the window sum used by the stall test below makes
    # the reference's decisions under the real table.
    table, _ = shapes._window_rule(dim)
    accept = table_accept(table, dim)
    reference = reference_accept_2d if dim == 2 else reference_accept_3d
    neighbors = NEIGHBORS_2D if dim == 2 else NEIGHBORS_3D
    rng = random.Random(dim)
    for _ in range(2000):
        density = rng.random()
        cells = {d for d in neighbors if rng.random() < density}
        assert accept(cells, (0,) * dim) == reference(cells, (0,) * dim), cells


def grown(seed, target, dim):
    rng = random.Random(seed)
    coarse = shapes._grow(rng, target, dim)
    return coarse, rng.random()


def reference_grown(seed, target, dim, accept=None, stalls=None):
    rng = random.Random(seed)
    if accept is None:
        accept = reference_accept_2d if dim == 2 else reference_accept_3d
    dirs = DIRS_2D if dim == 2 else DIRS_3D
    occ = reference_grow(rng, target, dirs, accept, stalls)
    return reference_coarse_grid(occ), rng.random()


@pytest.mark.parametrize("dim,targets", [(2, (1, 2, 7, 60, 400)), (3, (1, 2, 9, 80))])
def test_grow_matches_reference(dim, targets):
    for seed in range(6):
        for target in targets:
            coarse, after = grown(seed, target, dim)
            ref, ref_after = reference_grown(seed, target, dim)
            assert np.array_equal(coarse, ref), (seed, target)
            assert after == ref_after, (seed, target)


def test_drill_holes_matches_reference():
    for seed in range(25):
        target, holes = 20 + 9 * seed, seed % 7
        rng = random.Random(seed)
        coarse = shapes._grow(rng, target, 2)
        shapes._drill_holes(rng, coarse, holes)
        ref_rng = random.Random(seed)
        occ = reference_grow(ref_rng, target, DIRS_2D, reference_accept_2d)
        reference_drill_holes(ref_rng, occ, holes)
        # Drilling keeps the bounding box: holes are interior.
        assert np.array_equal(coarse, reference_coarse_grid(occ)), seed
        assert rng.random() == ref_rng.random(), seed


@pytest.mark.parametrize("base", [7, 2**21 + 2**20, 2**30 + 1])
def test_coarse_grid_decodes_keys_past_int64(base):
    # Keys of a large target pass 2**63 (numpy holds them as uint64 or
    # objects); the decoded grid must not depend on that.
    cells = {(1, 2, 3), (0, 0, 0), (-1, 0, 2)}
    keys = {shapes._key(c, base) for c in cells}
    coarse = shapes._coarse_grid(keys, base, 3)
    assert np.array_equal(coarse, reference_coarse_grid(cells))


def random_table(rng, dim):
    """A window table with no geometric meaning, so that growth stalls."""
    entries = (0, 1, 1, shapes._REJECT)
    table = [rng.choice(entries) for _ in range(1 << ((1 << dim) - 1))]
    table[0] = 0
    return tuple(table)


@pytest.mark.parametrize("dim,target", [(2, 100), (3, 40)])
def test_stall_branch_matches_reference(dim, target):
    # Growth under the real rule has not been seen to stall, so the stall
    # rescan runs here under arbitrary tables; its order (coordinate
    # tuples, not keys) and its requeued candidates must match the
    # reference.
    real_rule = shapes._window_rule
    rng = random.Random(dim)
    stalls = []
    for trial in range(40):
        table = random_table(rng, dim)
        with mock.patch.object(
            shapes, "_window_rule", lambda d: (table, real_rule(d)[1])
        ):
            coarse, after = grown(trial, target, dim)
        ref, ref_after = reference_grown(
            trial, target, dim, table_accept(table, dim), stalls
        )
        assert np.array_equal(coarse, ref), trial
        assert after == ref_after, trial
    # Both ways out of a stall were taken: requeued candidates, among
    # them picks from more than one, and a rescan that found none.
    assert max(stalls) > 1
    assert 0 in stalls
