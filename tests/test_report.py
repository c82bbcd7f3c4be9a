"""``report.dumps`` against the plain loop it replaced.

``dumps`` writes a report's per-item arrays (``report._Records``, one
column of answers and one of filled values) with one builder call and at
most one template per distinct answer. The reference below is the old loop:
every item through its builder into a list of dicts, and the whole report
through ``json.dumps`` with sorted keys and fixed separators. The
``--json`` output of ``holes``, ``homology`` and ``repair`` must equal it
byte for byte, and a command that fails must print nothing.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from digitopo import (
    DigitopoError,
    Image2D,
    Volume3D,
    analyze_volume,
    cli_dispatch,
    find_pathologies_2d,
    find_pathologies_3d,
    holes_pipeline,
    remove_speckles,
    repair_2d,
    repair_3d,
    write_pbm,
    write_vox3,
)
from digitopo import report
from gridtext import volume
from test_pipeline_reference import DIRTY_SPLIT_BY_REPAIR, SPECKLE_ON_A_CORNER, raw_images

# One 6-piece with pathological windows of its own: without repair the
# formula refuses its boundary, and the oracle answers.
DIRTY_PIECE = volume("101\n011\n011", "101\n101\n111")
# One 26-component that repair splits into two 6-pieces, each carrying
# the component's two edits.
SPLIT_BY_REPAIR_3D = volume("011\n100\n000", "001\n010\n100")


def reference_dumps(rep: dict) -> str:
    return json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"


def reference_holes(img, path, repair):
    reports, actions = holes_pipeline(img, repair=repair)
    rep = report.base_report("holes", report.input_digest(path))
    rep["components"] = [report.hole_record(r) for r in reports]
    rep["repair_actions"] = [report.action_record(a) for a in actions]
    rep["total_holes"] = sum(r.holes for r in reports)
    return reference_dumps(rep)


def reference_homology(vol, path, repair):
    reports, actions = analyze_volume(vol, repair=repair)
    rep = report.base_report("homology", report.input_digest(path))
    rep["components"] = [report.component_record_3d(r) for r in reports]
    rep["repair_actions"] = [report.action_record(a) for a in actions]
    return reference_dumps(rep)


def reference_repair(grid, path):
    if isinstance(grid, Image2D):
        cleaned, speckle_actions = remove_speckles(grid)
        cleaned, path_actions = repair_2d(cleaned)
        actions = speckle_actions + path_actions
        remaining = len(find_pathologies_2d(cleaned))
    else:
        cleaned, actions = repair_3d(grid)
        remaining = len(find_pathologies_3d(cleaned))
    rep = report.base_report("repair", report.input_digest(path))
    rep["repair_actions"] = [report.action_record(a) for a in actions]
    rep["remaining_pathologies"] = remaining
    return reference_dumps(rep)


def run_json(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_dispatch(argv)
    return code, out.getvalue()


def check(argv, reference) -> str:
    """Run ``argv``; its stdout must be ``reference()``, or empty with
    the exit code of what ``reference`` raised. Returns the stdout."""
    code, out = run_json(argv)
    try:
        want = reference()
    except DigitopoError as e:
        assert (code, out) == (e.exit_code, ""), argv
    else:
        assert (code, out) == (0, want), argv
    return out


def check_image(img: Image2D, path: str) -> list[str]:
    write_pbm(img, path)
    return [
        check(["holes", "--json", path], lambda: reference_holes(img, path, True)),
        check(["holes", "--json", "--no-repair", path], lambda: reference_holes(img, path, False)),
        check(["repair", "--json", path], lambda: reference_repair(img, path)),
    ]


def check_volume(vol: Volume3D, path: str) -> list[str]:
    write_vox3(vol, path)
    return [
        check(["homology", "--json", path], lambda: reference_homology(vol, path, True)),
        check(
            ["homology", "--json", "--no-repair", path],
            lambda: reference_homology(vol, path, False),
        ),
        check(["repair", "--json", path], lambda: reference_repair(vol, path)),
    ]


@st.composite
def raw_volumes(draw):
    """Bernoulli volumes, sides 1-8, any density: none is re-drawn."""
    shape = draw(st.tuples(*[st.integers(1, 8)] * 3))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    cells = np.random.default_rng(seed).random(shape) < density
    return Volume3D(shape[2], shape[1], shape[0], cells)


@settings(max_examples=100, deadline=None)
@given(img=raw_images())
@example(img=SPECKLE_ON_A_CORNER)
@example(img=DIRTY_SPLIT_BY_REPAIR)
def test_image_reports_match_the_plain_loop(img):
    with tempfile.TemporaryDirectory() as tmp:
        check_image(img, str(Path(tmp) / "in.pbm"))


@settings(max_examples=100, deadline=None)
@given(vol=raw_volumes())
@example(vol=DIRTY_PIECE)
@example(vol=SPLIT_BY_REPAIR_3D)
def test_volume_reports_match_the_plain_loop(vol):
    with tempfile.TemporaryDirectory() as tmp:
        check_volume(vol, str(Path(tmp) / "in.vox3"))


def test_empty_arrays(tmp_path):
    holes, no_repair, repaired = check_image(Image2D(3, 2), str(tmp_path / "e.pbm"))
    for out in (holes, no_repair):
        assert '"components":[]' in out and '"repair_actions":[]' in out
    assert '"repair_actions":[]' in repaired
    for out in check_volume(Volume3D(2, 3, 2), str(tmp_path / "e.vox3")):
        assert '"repair_actions":[]' in out


def test_image_edits_have_no_z(tmp_path):
    holes, _, repaired = check_image(SPECKLE_ON_A_CORNER, str(tmp_path / "s.pbm"))
    edit = '{"op":"delete","reason":"speckle","x":2,"y":2}'
    assert f'"repair_actions":[{edit}]' in holes
    # The whole-grid repair keeps the pixel that touches the block, and
    # fills the diagonal window between them.
    edit = '{"op":"add","reason":"pathology-fix","x":2,"y":1}'
    assert f'"repair_actions":[{edit}]' in repaired


def test_oracle_surfaces_and_a_dirty_piece_without_repair(tmp_path):
    path = str(tmp_path / "v.vox3")
    repaired, unrepaired, _ = check_volume(DIRTY_PIECE, path)
    components = json.loads(unrepaired)["components"]
    assert [[s["method"] for s in c["surfaces"]] for c in components] == [["euler-oracle"]]
    assert '"euler-oracle"' not in repaired
    _, no_repair, _ = check_image(DIRTY_SPLIT_BY_REPAIR, str(tmp_path / "d.pbm"))
    assert no_repair.count('"method":"oracle-fallback"') == 1


def test_components_that_repair_splits(tmp_path):
    holes, _, _ = check_image(DIRTY_SPLIT_BY_REPAIR, str(tmp_path / "d.pbm"))
    assert [r["component"] for r in json.loads(holes)["components"]] == [1, 2, 3]
    homology, _, _ = check_volume(SPLIT_BY_REPAIR_3D, str(tmp_path / "s.vox3"))
    rep = json.loads(homology)
    assert [(c["component"], c["voxels"]) for c in rep["components"]] == [(1, 3), (2, 1)]
    assert [(a["x"], a["y"], a["z"]) for a in rep["repair_actions"]] == [(0, 1, 0), (1, 1, 1)]


def test_a_template_with_the_wrong_slot_count_raises():
    fmt = report._template({"component": 1, "area": 4}, frozenset({"component"}))
    assert fmt % (7,) == '{"area":4,"component":7}'
    for values in ((), (7, 8)):
        with pytest.raises(TypeError):
            fmt % values


def test_a_template_keeps_the_record_bytes_that_look_like_slots():
    # A NUL in a record is written escaped, so it cannot cut a template.
    record = {"a": "100%d null %s\0", "component": 5, "m": None, "x": 1, "z": [None, "%", "\0"]}
    fmt = report._template(record, frozenset({"component", "x", "y"}))
    assert fmt % (5, 1) == reference_dumps(record)[:-1]
    assert fmt % (6, -2) == reference_dumps({**record, "component": 6, "x": -2})[:-1]


def test_a_filled_key_must_hold_an_int():
    for value in (True, 1.0, None, "1"):
        with pytest.raises(TypeError, match="not an int"):
            report._template({"component": value}, frozenset({"component"}))


def records(values, build, answer=None, answers=(None,)):
    """A report of one ``_Records`` array that fills in "component"; every
    item has answer 0 unless ``answer`` is given."""
    values = np.array(values).reshape(len(values), -1)
    answer = np.zeros(len(values), dtype=int) if answer is None else np.array(answer)
    return {
        "components": report._Records(answer, answers, values, frozenset({"component"}), build)
    }


def test_records_whose_filled_values_disagree_with_the_builder_raise():
    # The first item of an answer of several is checked against its own
    # encoding.
    with pytest.raises(ValueError):
        report.dumps(records([1, 2], lambda _, v: {"component": v[0] + 1}))
    with pytest.raises(TypeError):
        report.dumps(records([[1, 0], [2, 0]], lambda _, v: {"component": v[0]}))
    rep = records([2, 3, 4], lambda _, v: {"component": v[0]})
    assert report.dumps(rep) == '{"components":[{"component":2},{"component":3},{"component":4}]}\n'


def test_each_answer_is_built_once_on_its_first_item():
    built = []

    def build(answer, values):
        built.append((answer, values))
        return {"component": values[0], "name": answer}

    # "b%d" has one item, encoded as it is; "a" has three, written through
    # one template; "c" has none.
    rep = records([5, 6, 7, 8], build, answer=[0, 1, 0, 0], answers=["a", "b%d", "c"])
    want = [{"component": n, "name": name} for n, name in zip((5, 6, 7, 8), ("a", "b%d", "a", "a"))]
    assert report.dumps(rep) == reference_dumps({"components": want})
    assert built == [("a", (5,)), ("b%d", (6,))]


def test_a_report_without_records_is_the_plain_encoding():
    rep = {"schema_version": 1, "command": "x", "rows": [{"b": 1, "a": [2, None]}]}
    assert report.dumps(rep) == reference_dumps(rep)
