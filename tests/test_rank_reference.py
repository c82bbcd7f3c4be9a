"""The program's Betti numbers and hole counts against the GF(2) rank
reference (``homology_rank``), on raw Bernoulli grids drawn with no
filter. The reference counts every draw; only the draws that the formula
route answers without repair are compared, since repair changes the
grid that is counted."""

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from digitopo import (
    Image2D,
    Volume3D,
    analyze_volume,
    find_pathologies_2d,
    find_pathologies_3d,
    gen_frame,
    gen_shell,
    holes_pipeline,
)
from gridtext import image
from homology_rank import betti, closed_cells, gf2_rank


def test_rank_reference_on_known_shapes():
    ring = image("111\n101\n111")
    assert betti(ring) == (1, 1)
    # The closed complex joins pixels that share a vertex.
    assert betti(image("10\n01")) == (1, 0)
    assert betti(image("010\n101\n010")) == (1, 1)
    assert betti(image("0")) == (0, 0)
    assert betti(gen_frame(holes=2)) == (1, 2, 0)
    assert betti(gen_shell((5, 5, 5), (1, 1, 1))) == (1, 0, 1)
    corners = np.zeros((2, 2, 2), dtype=bool)
    corners[0, 0, 0] = corners[1, 1, 1] = True
    assert betti(Volume3D(2, 2, 2, corners)) == (1, 0, 0)
    # One cell: a closed square of 4 vertices, 4 edges and 1 face.
    assert closed_cells(np.ones((1, 1), dtype=bool)).sum() == 9
    assert gf2_rank([0b011, 0b110, 0b101]) == 2


@st.composite
def raw_volumes(draw):
    """Bernoulli volumes, sides 1-7, any density."""
    shape = draw(st.tuples(*[st.integers(1, 7)] * 3))
    density = draw(st.floats(0.0, 1.0))
    cells = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) < density
    return Volume3D(shape[2], shape[1], shape[0], cells)


@settings(max_examples=300, deadline=None)
@given(vol=raw_volumes())
@example(vol=gen_frame(holes=2))
@example(vol=gen_shell((5, 5, 5), (1, 1, 1)))
def test_clean_volumes_match_the_rank_count(vol):
    want = betti(vol)
    if find_pathologies_3d(vol):
        event("dirty")
        return
    event("clean")
    reports, _ = analyze_volume(vol)
    got = (
        len(reports),
        sum(r.betti[1] for r in reports),
        sum(r.betti[2] for r in reports),
    )
    assert got == want


def one_pixel_holes(img: Image2D) -> int:
    """The background pixels whose 8 neighbours are all object, which
    the speckle scan fills."""
    p = np.pad(img.cells, 1)
    blocks = np.lib.stride_tricks.sliding_window_view(p, (3, 3))
    return int(((blocks.sum(axis=(2, 3)) == 8) & ~img.cells).sum())


@st.composite
def raw_images(draw):
    """Bernoulli images, sides 1-8, any density."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    density = draw(st.floats(0.0, 1.0))
    cells = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) < density
    return Image2D(shape[1], shape[0], cells)


@settings(max_examples=300, deadline=None)
@given(img=raw_images())
@example(img=image("111\n101\n111"))
@example(img=image("11111\n10001\n10101\n10001\n11111"))
def test_clean_images_match_the_rank_count(img):
    # Every hole of a component is b1 of the closed-square complex; the
    # speckle scan fills the one-pixel holes before counting.
    _, b1 = betti(img)
    if find_pathologies_2d(img):
        event("dirty")
        return
    event("clean")
    reports, _ = holes_pipeline(img)
    assert sum(r.holes for r in reports) == b1 - one_pixel_holes(img)
