"""The array cell-complex oracle against the breadth-first search it replaced.

``oracle._surface_components`` finds the boundary surfaces of many
volumes in one array pass. The functions below are the search it
replaced, kept as the reference: the boundary faces of one padded
volume, keyed as tuples, joined through shared edges by a queue. Both
must give the same surfaces in the same order, with the same cell
counts and vertex sets, and the same odd-chi ``InvalidSurfaceError``,
on raw volumes with no filter, alone and in batches of mixed shapes.
"""

from collections import deque

import numpy as np
from hypothesis import example, given, settings, strategies as st

from digitopo import CellComplexSummary, InvalidSurfaceError, Volume3D, euler_surface_3d
from digitopo.oracle import _euler_surfaces, _surface_components

from gridtext import volume


def _boundary_faces(vol):
    """Unit squares separating an object voxel from a background voxel.

    Returns three boolean arrays, one per face normal. ``fz[k, y, x]`` is
    the face between voxels (x, y, k-1) and (x, y, k); analogously for fy
    and fx.
    """
    p = np.pad(vol.cells, 1, constant_values=False)
    fz = p[:-1, 1:-1, 1:-1] ^ p[1:, 1:-1, 1:-1]
    fy = p[1:-1, :-1, 1:-1] ^ p[1:-1, 1:, 1:-1]
    fx = p[1:-1, 1:-1, :-1] ^ p[1:-1, 1:-1, 1:]
    return fx, fy, fz


def _face_edges(face):
    """The four edge keys of a boundary face.

    Edge keys are (axis, vx, vy, vz): the unit edge from vertex (vx, vy, vz)
    toward +axis. Face keys are (normal, x, y, z) where (x, y, z) is the
    face's minimum vertex.
    """
    normal, x, y, z = face
    if normal == 2:  # spans x and y
        return (
            (0, x, y, z),
            (0, x, y + 1, z),
            (1, x, y, z),
            (1, x + 1, y, z),
        )
    if normal == 1:  # spans x and z
        return (
            (0, x, y, z),
            (0, x, y, z + 1),
            (2, x, y, z),
            (2, x + 1, y, z),
        )
    # normal == 0: spans y and z
    return (
        (1, x, y, z),
        (1, x, y, z + 1),
        (2, x, y, z),
        (2, x, y + 1, z),
    )


def _face_vertices(face):
    normal, x, y, z = face
    span = ((0, 0), (1, 0), (0, 1), (1, 1))
    if normal == 2:
        return tuple((x + dx, y + dy, z) for dx, dy in span)
    if normal == 1:
        return tuple((x + dx, y, z + dz) for dx, dz in span)
    return tuple((x, y + dy, z + dz) for dy, dz in span)


def reference_surface_components(vol):
    """Group boundary faces into surfaces by shared-edge connectivity.

    Returns a list of (CellComplexSummary, vertex set) ordered by each
    component's minimal vertex in scan order.
    """
    fx, fy, fz = _boundary_faces(vol)
    faces = []
    for normal, arr in ((0, fx), (1, fy), (2, fz)):
        idx = np.nonzero(arr)
        # nonzero order is (dim0, dim1, dim2); the plane index sits in the
        # dimension matching the normal: fx -> dim2, fy -> dim1, fz -> dim0.
        for d0, d1, d2 in zip(*(i.tolist() for i in idx)):
            faces.append((normal, d2, d1, d0))
    edge_to_faces = {}
    for i, face in enumerate(faces):
        for e in _face_edges(face):
            edge_to_faces.setdefault(e, []).append(i)
    seen = [False] * len(faces)
    components = []
    for start in range(len(faces)):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        members = []
        while queue:
            i = queue.popleft()
            members.append(i)
            for e in _face_edges(faces[i]):
                for j in edge_to_faces[e]:
                    if not seen[j]:
                        seen[j] = True
                        queue.append(j)
        edges = set()
        verts = set()
        for i in members:
            edges.update(_face_edges(faces[i]))
            verts.update(_face_vertices(faces[i]))
        summary = CellComplexSummary(len(verts), len(edges), len(members))
        components.append((summary, verts))
    nx1, ny1 = vol.nx + 1, vol.ny + 1
    components.sort(key=lambda c: min((v[2] * ny1 + v[1]) * nx1 + v[0] for v in c[1]))
    return components


def reference_euler_surface_3d(vol):
    out = []
    for summary, _ in reference_surface_components(vol):
        if summary.chi % 2 != 0:
            raise InvalidSurfaceError("non-orientable or non-manifold boundary")
        out.append(summary)
    return out


def as_sets(vol, surfaces):
    """``_surface_components``'s surfaces of ``vol`` as (summary, vertex
    set) pairs, after checking that each vertex list is in scan order."""
    out = []
    for summary, (vx, vy, vz) in surfaces:
        scan = (vz * (vol.ny + 1) + vy) * (vol.nx + 1) + vx
        assert (np.diff(scan) > 0).all()
        out.append((summary, set(zip(vx.tolist(), vy.tolist(), vz.tolist()))))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidSurfaceError as e:
        return InvalidSurfaceError, str(e)


@st.composite
def raw_volumes(draw):
    """Raw Bernoulli volumes, sides 1-8, any density, no filter: objects
    touch the border, and edge and vertex pairs are kept."""
    shape = draw(st.tuples(*[st.integers(1, 8)] * 3))
    density = draw(st.floats(0, 1))
    seed = draw(st.integers(0, 2**32 - 1))
    cells = np.random.default_rng(seed).random(shape) < density
    return Volume3D(shape[2], shape[1], shape[0], cells)


EDGE_PAIR = volume("10\n01")
VERTEX_PAIR = volume("10\n00", "00\n01")
FULL = Volume3D(3, 2, 4, np.ones((4, 2, 3), dtype=bool))
SHELL = volume("111\n111\n111", "111\n101\n111", "111\n111\n111")


@settings(max_examples=150, deadline=None)
@given(vol=raw_volumes())
@example(vol=Volume3D(1, 1, 1))
@example(vol=volume("1"))
@example(vol=FULL)
@example(vol=SHELL)
@example(vol=EDGE_PAIR)
@example(vol=VERTEX_PAIR)
def test_one_volume_matches_reference(vol):
    (got,) = _surface_components([vol])
    assert as_sets(vol, got) == reference_surface_components(vol)
    assert outcome(euler_surface_3d, vol) == outcome(reference_euler_surface_3d, vol)


@settings(max_examples=75, deadline=None)
@given(vols=st.lists(raw_volumes(), max_size=8))
@example(vols=[])
@example(vols=[FULL, Volume3D(1, 1, 1), SHELL, VERTEX_PAIR, volume("1")])
@example(vols=[SHELL, EDGE_PAIR, FULL])
def test_a_batch_of_mixed_shapes_matches_reference(vols):
    got = _surface_components(vols)
    assert len(got) == len(vols)
    assert [as_sets(v, s) for v, s in zip(vols, got)] == [
        reference_surface_components(v) for v in vols
    ]
    # The batch raises when any one volume would.
    want = [outcome(reference_euler_surface_3d, v) for v in vols]
    raised = [w for w in want if isinstance(w, tuple)]
    assert outcome(_euler_surfaces, vols) == (raised[0] if raised else want)
