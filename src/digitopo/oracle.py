"""Brute-force reference computations used to cross-check the formulas.

These are deliberately independent of the classification code paths: hole
counts come from background flood fill, Euler characteristics from explicit
cell counting on the cubical complex, and the curvature audit from the
integer curvature totals. Everything here is exact integer arithmetic.

The 3D counter (V - E + F over the boundary faces; Kong and Rosenfeld,
"Digital topology: introduction and survey", CVGIP 1989) works on arrays
and takes many volumes in one call, so ``validate`` checks every piece of
a grid at once. It shares no window-code table with the formula path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSurfaceError
from .grid import Adjacency, Image2D, Volume3D, _components, _count_components, _pad

__all__ = [
    "CellComplexSummary",
    "holes_by_floodfill",
    "euler_2d",
    "euler_surface_3d",
    "curvature_audit",
]


@dataclass(frozen=True)
class CellComplexSummary:
    """Cell counts of a complex: vertices, edges, faces."""

    v: int
    e: int
    f: int

    @property
    def chi(self) -> int:
        return self.v - self.e + self.f


def holes_by_floodfill(component: Image2D) -> int:
    """Hole count of a connected image: bounded background components.

    Counts 4-connected background components in a frame of one empty
    pixel, and subtracts the outer region, which the frame makes present.
    """
    return _count_components(~_pad(component.cells), Adjacency.DIRECT_2D) - 1


def euler_2d(component: Image2D) -> CellComplexSummary:
    """Cell counts of the cubical complex covered by the pixels.

    Faces are the pixels themselves; edges and vertices are the distinct
    unit edges and corners they cover. For a connected image the hole count
    equals ``1 - chi``.
    """
    c = component.cells
    p = _pad(c)
    f = int(c.sum())
    # Horizontal unit edges sit between vertically adjacent pixel rows.
    ex = int((p[:-1, 1:-1] | p[1:, 1:-1]).sum())
    # Vertical unit edges sit between horizontally adjacent pixel columns.
    ey = int((p[1:-1, :-1] | p[1:-1, 1:]).sum())
    v = int((p[:-1, :-1] | p[:-1, 1:] | p[1:, :-1] | p[1:, 1:]).sum())
    return CellComplexSummary(v, ex + ey, f)


# The axes that a boundary face spans, for a normal along x, y and z.
_SPANS = ((1, 2), (0, 2), (0, 1))


def _surface_components(vols):
    """The boundary surfaces of each volume in ``vols``, in one pass.

    Returns one list per volume, of one ``(CellComplexSummary, (vx, vy,
    vz))`` per surface: its cell counts and the coordinates of its
    vertices in scan order. The surfaces come in the scan order of their
    minimal vertices, ties going to the one whose first face comes first
    (faces by normal x, y, z, each in scan order of its minimal vertex).

    Boundary faces are the unit squares between an object and a
    background voxel, the XOR of each voxel and its neighbour along an
    axis; faces that share an edge belong to one surface (the generic
    union ``grid._components``), and a vertex counts once for each
    surface that touches it. The volumes are stacked along z, one empty
    layer apart, in groups whose y and x extents round up to the same
    powers of two: no face, edge or vertex reaches across an empty
    layer. Vertices are keyed by their index in the stacks, edges by
    3 * vertex + axis, and the counts come from sorting the keys.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, vol in enumerate(vols):
        key = (1 << (vol.ny - 1).bit_length(), 1 << (vol.nx - 1).bit_length())
        groups.setdefault(key, []).append(i)
    # Per volume, the key of its vertex (0, 0, 0) and its stack's y and z
    # strides; per normal of each stack, its faces' minimal vertices and
    # the strides and axes they span.
    origins, y_steps, z_steps = [0] * len(vols), [0] * len(vols), [0] * len(vols)
    faces, spans = [], []
    offset = 0
    for members in groups.values():
        w = 2 + max(vols[i].nx for i in members)
        h = 2 + max(vols[i].ny for i in members)
        stack = np.zeros((1 + sum(vols[i].nz + 1 for i in members), h, w), dtype=bool)
        z = 1
        for i in members:
            vol = vols[i]
            stack[z : z + vol.nz, 1 : vol.ny + 1, 1 : vol.nx + 1] = vol.cells
            origins[i], y_steps[i], z_steps[i] = offset + (z * h + 1) * w + 1, w, h * w
            z += vol.nz + 1
        flat = stack.reshape(-1)
        strides = (1, w, h * w)
        for s, (a, b) in zip(strides, _SPANS):
            # The face between cells j - s and j has j's minimal vertex.
            faces.append(np.flatnonzero(flat[s:] ^ flat[:-s]) + (offset + s))
            spans.append((strides[a], strides[b], a, b))
        offset += flat.size
    n = sum(part.size for part in faces)
    if not n:
        return [[] for _ in vols]
    k = np.concatenate(faces)
    sa, sb, a, b = np.repeat(np.array(spans), [part.size for part in faces], axis=0).T

    # A face's edges run along a from its vertices 0 and +b, and along b
    # from 0 and +a; faces that share one are joined.
    edges = np.concatenate([3 * k + a, 3 * (k + sb) + a, 3 * k + b, 3 * (k + sa) + b])
    order = np.argsort(edges)
    edges = edges[order]
    face = order % n
    new = np.concatenate(([True], edges[1:] != edges[:-1]))
    lo, hi = face[:-1][~new[1:]], face[1:][~new[1:]]
    count, surface = _components(n, np.minimum(lo, hi), np.maximum(lo, hi))
    surface = surface.astype(np.int64)
    f = np.bincount(surface, minlength=count)
    e = np.bincount(surface[face[new]], minlength=count)

    # (surface, vertex) pairs, sorted: each surface's vertices in scan
    # order, the first one minimal.
    verts = np.concatenate([k, k + sa, k + sb, k + sa + sb])
    verts = np.sort(np.concatenate([surface * offset] * 4) + verts)
    owner, verts = np.divmod(verts[np.concatenate(([True], verts[1:] != verts[:-1]))], offset)
    v = np.bincount(owner, minlength=count)
    starts = np.cumsum(v) - v
    lowest = verts[starts]
    origins, z_steps, y_steps = np.array([origins, z_steps, y_steps])
    by_origin = np.argsort(origins)
    vol_of = by_origin[origins[by_origin].searchsorted(lowest, side="right") - 1]
    at = np.repeat(vol_of, v)
    vz, rest = np.divmod(verts - origins[at], z_steps[at])
    vy, vx = np.divmod(rest, y_steps[at])

    out = [[] for _ in vols]
    ranked = np.lexsort((lowest, vol_of)).tolist()
    v, e, f, starts, vol_of = v.tolist(), e.tolist(), f.tolist(), starts.tolist(), vol_of.tolist()
    for i in ranked:
        cut = slice(starts[i], starts[i] + v[i])
        out[vol_of[i]].append((CellComplexSummary(v[i], e[i], f[i]), (vx[cut], vy[cut], vz[cut])))
    return out


def _euler_surfaces(vols) -> list[list[CellComplexSummary]]:
    """``euler_surface_3d`` of each volume in ``vols``, from one oracle
    call; an odd chi anywhere raises."""
    out = [[summary for summary, _ in surfaces] for surfaces in _surface_components(vols)]
    if any(s.chi % 2 for summaries in out for s in summaries):
        raise InvalidSurfaceError("non-orientable or non-manifold boundary")
    return out


def euler_surface_3d(vol: Volume3D) -> list[CellComplexSummary]:
    """Cell counts of each boundary surface of a volume.

    Boundary faces are the unit squares between an object voxel and a
    background voxel; faces are grouped into surfaces by shared-edge
    connectivity. For a closed orientable surface the genus is
    ``(2 - chi) / 2``; an odd chi is rejected.
    """
    return _euler_surfaces([vol])[0]


def curvature_audit(hist, genus: int) -> bool:
    """Check the integer curvature total against the genus.

    Corner-type surface points carry curvature in quarter-turn units:
    +2 for 3-neighbor points, 0 for 4, -2 for 5, -4 for 6. The total over a
    closed surface must equal 8 * (2 - 2g). Accepts any histogram object
    with m3/m5/m6 counts; exact integer arithmetic throughout.
    """
    return 2 * hist.m3 - 2 * hist.m5 - 4 * hist.m6 == 8 * (2 - 2 * genus)
