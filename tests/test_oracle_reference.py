"""The array cell-complex oracle against the breadth-first search it replaced.

``oracle._surface_components`` finds the boundary surfaces of each
requested label of one labelled volume in one array pass. The functions
below are the search it replaced, kept as the reference: the boundary
faces of one padded volume, keyed as tuples, joined through shared edges
by a queue. For each label, both must give the same surfaces in the same
order, with the same cell counts and vertex sets (the oracle's moved
into the piece's own frame), and the same odd-chi
``InvalidSurfaceError``, on raw volumes with no filter: one volume as
label 1, volumes of mixed shapes one empty layer apart, and the
6-components of one volume, which meet at edges and vertices.
"""

from collections import deque

import numpy as np
from hypothesis import example, given, settings, strategies as st

from digitopo import (
    Adjacency,
    CellComplexSummary,
    InvalidSurfaceError,
    Volume3D,
    euler_surface_3d,
    extract_component,
    label_components_3d,
)
from digitopo.grid import _component_boxes
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


def as_sets(shape, surfaces, shift=(0, 0, 0)):
    """``_surface_components``'s surfaces of one label as (summary,
    vertex set) pairs, each vertex moved by ``shift`` (x, y, z), after
    checking that each vertex list is in scan order of the labels, whose
    array shape is ``shape``."""
    nz, ny, nx = shape
    out = []
    for summary, (vx, vy, vz) in surfaces:
        scan = (vz * (ny + 1) + vy) * (nx + 1) + vx
        assert (np.diff(scan) > 0).all()
        moved = (i + d for i, d in zip((vx, vy, vz), shift))
        out.append((summary, set(zip(*(i.tolist() for i in moved)))))
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


def one_layer_apart(vols):
    """The volumes stacked along z, one empty layer apart, volume i as
    label i + 1, and each one's shift into its own frame."""
    labels = np.zeros(
        (sum(v.nz + 1 for v in vols), max(v.ny for v in vols), max(v.nx for v in vols)),
        dtype=np.int32,
    )
    z, shifts = 0, []
    for i, v in enumerate(vols, 1):
        labels[z : z + v.nz, : v.ny, : v.nx][v.cells] = i
        shifts.append((0, 0, -z))
        z += v.nz + 1
    return labels, shifts


def some_ids(count, order):
    """All labels 1..count in order when ``order`` is None, else a subset
    of them in an order drawn from that seed."""
    if order is None:
        return list(range(1, count + 1))
    rng = np.random.default_rng(order)
    return (rng.permutation(count)[: rng.integers(0, count, endpoint=True)] + 1).tolist()


def assert_labels_match_reference(labels, ids, pieces):
    """The oracle on label ``ids[i]`` of ``labels`` against the reference
    on ``pieces[i]``: (the piece alone, its shift into its own frame)."""
    got = _surface_components(labels, ids)
    assert len(got) == len(ids)
    assert [as_sets(labels.shape, s, shift) for s, (_, shift) in zip(got, pieces)] == [
        reference_surface_components(piece) for piece, _ in pieces
    ]
    # The call raises when any one piece would.
    want = [outcome(reference_euler_surface_3d, piece) for piece, _ in pieces]
    raised = [w for w in want if isinstance(w, tuple)]
    assert outcome(_euler_surfaces, labels, ids) == (raised[0] if raised else want)


@settings(max_examples=150, deadline=None)
@given(vol=raw_volumes())
@example(vol=Volume3D(1, 1, 1))
@example(vol=volume("1"))
@example(vol=FULL)
@example(vol=SHELL)
@example(vol=EDGE_PAIR)
@example(vol=VERTEX_PAIR)
def test_one_volume_matches_reference(vol):
    (got,) = _surface_components(vol.cells.view(np.uint8), [1])
    assert as_sets(vol.cells.shape, got) == reference_surface_components(vol)
    assert outcome(euler_surface_3d, vol) == outcome(reference_euler_surface_3d, vol)


@settings(max_examples=75, deadline=None)
@given(
    vols=st.lists(raw_volumes(), min_size=1, max_size=8),
    order=st.none() | st.integers(0, 2**32 - 1),
)
@example(vols=[FULL, Volume3D(1, 1, 1), SHELL, VERTEX_PAIR, volume("1")], order=None)
@example(vols=[SHELL, EDGE_PAIR, FULL], order=None)
def test_volumes_one_layer_apart_match_reference(vols, order):
    labels, shifts = one_layer_apart(vols)
    ids = some_ids(len(vols), order)
    assert_labels_match_reference(labels, ids, [(vols[i - 1], shifts[i - 1]) for i in ids])


@settings(max_examples=150, deadline=None)
@given(vol=raw_volumes(), order=st.none() | st.integers(0, 2**32 - 1))
@example(vol=EDGE_PAIR, order=None)
@example(vol=VERTEX_PAIR, order=None)
@example(vol=volume("101\n010\n101", "010\n101\n010"), order=None)
def test_six_components_of_one_volume_match_reference(vol, order):
    # 6-components meet at edges and vertices, which the oracle keys by
    # label, so each counts as it would alone.
    labeling = label_components_3d(vol, Adjacency.DIRECT_3D)
    ids = some_ids(labeling.count, order)
    boxes = _component_boxes(labeling, ids)
    pieces = [
        (extract_component(labeling, i), tuple(1 - b.start for b in boxes[i][::-1])) for i in ids
    ]
    assert_labels_match_reference(labeling.labels, ids, pieces)


def test_no_ids_no_surfaces():
    labels = label_components_3d(SHELL, Adjacency.DIRECT_3D).labels
    assert _surface_components(labels, []) == []
    assert _euler_surfaces(labels, []) == []
