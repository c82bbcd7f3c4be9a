"""Brute-force reference computations used to cross-check the formulas.

These are deliberately independent of the classification code paths: hole
counts come from background flood fill, Euler characteristics from explicit
cell counting on the cubical complex, and the curvature audit from the
integer curvature totals. Everything here is exact integer arithmetic.

The 3D counter (V - E + F over the boundary faces; Kong and Rosenfeld,
"Digital topology: introduction and survey", CVGIP 1989) works on arrays
and counts each requested label of one labelled volume as if it were
alone, so ``validate`` checks every piece the driver labelled together in
one call. It shares no window-code table with the formula path.
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


def _surface_components(labels: np.ndarray, ids):
    """The boundary surfaces of each label in ``ids`` of the (nz, ny, nx)
    integer array ``labels``, each label's as if its cells were alone.

    Returns one list per id, of one ``(CellComplexSummary, (vx, vy,
    vz))`` per surface: its cell counts and the coordinates of its
    vertices in scan order, vertex (0, 0, 0) being the first corner of
    ``labels[0, 0, 0]``. The surfaces come in the scan order of their
    minimal vertices, ties going to the one whose first face comes first
    (faces by normal x, y, z, each in scan order of its minimal vertex).

    Boundary faces are the unit squares where the label changes along an
    axis; each belongs to the label on its object side (no two labels of
    a labelling meet at a face). Faces of one label that share an edge
    belong to one surface (the generic union ``grid._components``), and
    a vertex counts once for each surface that touches it. In a frame of
    one empty cell (``_pad``), a label's vertices are keyed by their
    index there plus its place in ``ids`` times the frame's cells, and
    edges by 3 * vertex + axis, so pieces that meet at an edge or a
    vertex count as they would alone; the counts come from sorting the
    keys.
    """
    # Each requested label's place in ``ids``, counted from 1; 0 elsewhere.
    place = np.zeros(max([labels.max(), *ids]) + 1, dtype=np.int32)
    place[ids] = np.arange(1, len(ids) + 1)
    p = _pad(place[labels])
    flat, size = p.reshape(-1), p.size
    strides = (1, p.shape[2], p.shape[1] * p.shape[2])
    which, faces, spans = [], [], []
    for s, (a, b) in zip(strides, _SPANS):
        # The face between cells j - s and j has j's minimal vertex.
        j = np.flatnonzero(flat[s:] != flat[:-s]) + s
        which.append(flat[j - s] + flat[j])
        faces.append(j)
        spans.append((strides[a], strides[b], a, b))
    n = sum(part.size for part in faces)
    if not n:
        return [[] for _ in ids]
    which, k = np.concatenate(which), np.concatenate(faces)
    sa, sb, a, b = np.repeat(np.array(spans), [part.size for part in faces], axis=0).T

    # A face's edges run along a from its vertices 0 and +b, and along b
    # from 0 and +a; faces of one label that share one are joined.
    base = which.astype(np.int64) * size + k
    edges = np.concatenate([3 * base + a, 3 * (base + sb) + a, 3 * base + b, 3 * (base + sa) + b])
    order = np.argsort(edges)
    edges = edges[order]
    face = order % n
    new = np.concatenate(([True], edges[1:] != edges[:-1]))
    lo, hi = face[:-1][~new[1:]], face[1:][~new[1:]]
    count, surface = _components(n, np.minimum(lo, hi), np.maximum(lo, hi))
    surface = surface.astype(np.int64)
    f = np.bincount(surface, minlength=count)
    e = np.bincount(surface[face[new]], minlength=count)
    label = np.zeros(count, dtype=np.int64)
    label[surface] = which - 1

    # (surface, vertex) pairs, sorted: each surface's vertices in scan
    # order, the first one minimal.
    verts = np.concatenate([k, k + sa, k + sb, k + sa + sb])
    verts = np.sort(np.concatenate([surface * size] * 4) + verts)
    owner, verts = np.divmod(verts[np.concatenate(([True], verts[1:] != verts[:-1]))], size)
    v = np.bincount(owner, minlength=count)
    starts = np.cumsum(v) - v
    ranked = np.lexsort((verts[starts], label)).tolist()
    # The frame's cell i + 1 is the labels' cell i, whose first corner is vertex i.
    vz, vy, vx = (i - 1 for i in np.unravel_index(verts, p.shape))

    out = [[] for _ in ids]
    v, e, f, starts, label = v.tolist(), e.tolist(), f.tolist(), starts.tolist(), label.tolist()
    for i in ranked:
        cut = slice(starts[i], starts[i] + v[i])
        out[label[i]].append((CellComplexSummary(v[i], e[i], f[i]), (vx[cut], vy[cut], vz[cut])))
    return out


def _euler_surfaces(labels: np.ndarray, ids) -> list[list[CellComplexSummary]]:
    """``euler_surface_3d`` of each label in ``ids`` of ``labels``, from
    one oracle call; an odd chi anywhere raises."""
    out = [[summary for summary, _ in surfaces] for surfaces in _surface_components(labels, ids)]
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
    return _euler_surfaces(vol.cells.view(np.uint8), [1])[0]


def curvature_audit(hist, genus: int) -> bool:
    """Check the integer curvature total against the genus.

    Corner-type surface points carry curvature in quarter-turn units:
    +2 for 3-neighbor points, 0 for 4, -2 for 5, -4 for 6. The total over a
    closed surface must equal 8 * (2 - 2g). Accepts any histogram object
    with m3/m5/m6 counts; exact integer arithmetic throughout.
    """
    return 2 * hist.m3 - 2 * hist.m5 - 4 * hist.m6 == 8 * (2 - 2 * genus)
