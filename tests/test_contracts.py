"""The package's public contracts: its exported names and the exit codes
that its error types carry."""

import ast
import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import digitopo
from digitopo import (
    DigitopoError,
    InvalidSurfaceError,
    NoSuchComponentError,
    ParseError,
    PreconditionFailure,
    RepairDidNotConverge,
    cli_dispatch,
    errors,
    grid,
    hole_count,
    homology,
    oracle,
    pbm,
    report,
    shapes,
    streaming,
    topo2d,
    topo3d,
    vox3,
)
from digitopo.topo2d import (
    CornerHistogram,
    HoleMethod,
    HoleReport,
    PreconditionReport,
    RepairAction,
)
from digitopo.topo3d import SurfaceHistogram, SurfaceReport, TopoReport3D
from gridtext import image, volume

MODULES = (errors, grid, oracle, topo2d, topo3d, shapes, pbm, vox3, streaming)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_exports_are_unique_and_resolve():
    names = digitopo.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(digitopo, name), name
    star: dict = {}
    exec("from digitopo import *", star)
    assert set(names) <= set(star)


def test_exports_are_the_modules_all():
    union = set().union(*(m.__all__ for m in MODULES))
    assert set(digitopo.__all__) == {"__version__", "cli_dispatch"} | union
    # No name is exported by two modules.
    assert len(union) == sum(len(m.__all__) for m in MODULES)
    for m in MODULES:
        for name in m.__all__:
            assert getattr(digitopo, name) is getattr(m, name), (m.__name__, name)
    assert {"Diag2D", "iter_frame_slabs"} <= set(digitopo.__all__)
    assert "main" not in digitopo.__all__


def _uncommented(path: Path) -> str:
    """The Python source at ``path`` without its comments."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return tokenize.untokenize(t for t in tokens if t.type != tokenize.COMMENT)


def test_every_export_has_a_reader_outside_the_tests():
    # A reader is a mention in src/ other than the name's own def/class
    # line, its __all__ entry, a relative import or a comment; the trace
    # entry points, the acceptance tests and the README also count, but
    # not a comment in the first two.
    src = [
        re.sub(r"^\s*from \.\w* import (\([^)]*\)|.*)$", "", _uncommented(p), flags=re.M)
        for p in sorted((SRC / "digitopo").glob("*.py"))
    ]
    src = [re.sub(r"^__all__ = \[[^]]*\]", "", text, flags=re.M) for text in src]
    other = [
        *(_uncommented(ROOT / name) for name in ("perfbench/spans.py", "tests/test_acceptance.py")),
        (ROOT / "README.md").read_text(),
    ]
    unread = []
    for name in digitopo.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class) {re.escape(name)}\b")
        lines = (line for text in src for line in text.splitlines() if not own.match(line))
        if not any(map(word.search, [*lines, *other])):
            unread.append(name)
    # ROADMAP item 4 (the streaming per-component hole count) builds on
    # the 2D corner fold, which has no reader until then.
    assert unread == ["fold_corner_histogram_2d"]


def test_src_frames_a_grid_only_through_grid_pad():
    # np.pad's fixed cost outweighs a whole classification of a small
    # image (grid._pad), so no module calls it.
    assert [p.name for p in (SRC / "digitopo").glob("*.py") if "np.pad(" in p.read_text()] == []


def test_src_finds_distinct_rows_without_np_unique_axis():
    # np.unique(rows, axis=0) sorts the rows as structured values, several
    # times slower than the one lexsort of grid._distinct_rows.
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "digitopo").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and any(keyword.arg == "axis" for keyword in node.keywords)
    ]
    assert calls == []


def _callers(name: str) -> list[str]:
    """``module.function`` of the top-level definition around every call
    in src/ of ``name``, as a plain name or an attribute, once per call."""
    found = []
    for path in sorted((SRC / "digitopo").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_each_answer_object_has_one_builder():
    # A piece's answer stays integer rows, whichever route gave it, and
    # the driver dedupes every piece's rows in one call; only a distinct
    # list of rows becomes objects, through one builder per object.
    assert _callers("SurfaceReport") == ["topo3d._answer"]
    assert _callers("CornerHistogram") == ["topo2d._histogram_of"]
    assert _callers("_distinct_lists").count("grid._per_component") == 1
    assert "grid._per_component" not in _callers("_distinct_rows")


def test_both_dimensions_hand_the_driver_their_own_functions():
    # One signature per hook in both dimensions, so each hook the driver
    # calls is the dimension's own function, not a lambda that re-plumbs
    # its arguments.
    for module in (topo2d, topo3d):
        hooks = module._HOOKS
        for field in ("classify", "slow", "answer"):
            hook = getattr(hooks, field)
            assert getattr(module, hook.__name__) is hook, (module.__name__, field)
        assert list(inspect.signature(hooks.classify).parameters) == ["codes", "labels", "count"]
    # Both scans give the dirty components' ids as ascending integers.
    for module, cells in (
        (topo2d, np.random.default_rng(3).random((24, 24)) < 0.5),
        (topo3d, np.random.default_rng(3).random((10, 10, 10)) < 0.05),
    ):
        labeling = grid._label(cells, module._HOOKS.capture)
        p = grid._pad(cells)
        dirty = module._HOOKS.scan(grid._window_codes(p), labeling)[0]
        assert isinstance(dirty, np.ndarray) and dirty.dtype.kind == "i", module.__name__
        assert dirty.size > 1 and (np.diff(dirty) > 0).all(), module.__name__
    # The single-piece calls keep no option that only tests set.
    assert list(inspect.signature(hole_count).parameters) == ["component"]
    assert list(inspect.signature(homology).parameters) == ["vol", "fallback_oracle"]
    assert list(inspect.signature(grid._analyze).parameters) == [
        "hooks",
        "grid",
        "repair",
        "fallback_oracle",
    ]


def test_each_scan_reads_the_codes_and_the_labeling_only():
    # The driver hands a scan the padded grid's window codes and the
    # labeling; a speckle edit goes to those two, not to a grid.
    for module in (topo2d, topo3d):
        assert list(inspect.signature(module._HOOKS.scan).parameters) == ["codes", "labeling"]


def test_homology_answers_one_26_component_only():
    # Two 3^3 cubes one voxel apart: not one component with a cavity.
    two = np.zeros((3, 3, 7), dtype=bool)
    two[:, :, :3] = two[:, :, 4:] = True
    for cells in (two, np.zeros((2, 2, 2), dtype=bool)):
        with pytest.raises(ValueError, match="^expected a single connected component$"):
            homology(grid._grid_of(cells))
    assert homology(grid._grid_of(two[:, :, :3])).betti == (1, 0, 0, 0)


def test_every_parameter_of_a_src_function_is_read():
    # A parameter that its function never reads is an option nothing
    # sets, or a grid handed over only to be written. The two left are
    # required by a shared hook signature: ``grid._repair``'s ``fix(view,
    # strides, vertex, hit)`` and ``grid._Hooks.slow``'s ``(piece,
    # fallback_oracle, component_id)``.
    unread = []
    for path in sorted((SRC / "digitopo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                name.id
                for statement in node.body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread += [f"{path.stem}.{node.name}:{a.arg}" for a in params if a and a.arg not in read]
    assert unread == ["topo2d._fix_window:_kind", "topo3d._piece_rows:_component_id"]


def test_readme_library_example_prints_what_its_comments_say():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    want = re.findall(r"# (.+)$", block, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == want == ["0", "(1, 2, 0, 0)"]


def test_src_parses_under_the_declared_python_floor():
    # No interpreter as old as the floor that pyproject.toml declares is
    # needed to check its grammar.
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = (3, int(floor.group(1)))
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_cli_runs_import_no_numpy_ma(tmp_path):
    # A plain np.unique(x) imports numpy.ma, about 10 ms per process.
    # src/ calls no np.unique; these runs, through the 2D and 3D
    # per-component driver, check that nothing else imports numpy.ma.
    vol, img = tmp_path / "frame.vox3", tmp_path / "image.pbm"
    digitopo.write_vox3(digitopo.gen_frame(2), vol)
    digitopo.write_pbm(image("11111\n10101\n11111\n00000\n11011"), img)
    runs = [[cmd, str(vol), "--json"] for cmd in ("homology", "validate", "genus")]
    runs += [[cmd, str(img), "--json"] for cmd in ("holes", "components")]
    code = (
        "import contextlib, io, sys\n"
        "from digitopo import cli_dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli_dispatch(argv) for argv in {runs!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[0, 0, 0, 0, 0] False"


def test_error_types_carry_their_exit_codes():
    for error, code in (
        (DigitopoError, 1),
        (ParseError, 1),
        (NoSuchComponentError, 1),
        (InvalidSurfaceError, 1),
        (PreconditionFailure, 2),
        (RepairDidNotConverge, 3),
    ):
        assert error.exit_code == code, error


def test_formula_refusal_is_both_a_precondition_failure_and_an_invalid_surface():
    # Two voxels that share only a vertex: their boundary's histogram
    # (m3=14, m6=1) gives m5 + 2*m6 - m3 = -12, which 8 does not divide.
    vol = volume("10\n00", "00\n01")
    with pytest.raises(InvalidSurfaceError) as info:
        homology(vol, fallback_oracle=False)
    assert isinstance(info.value, PreconditionFailure)
    assert info.value.exit_code == 2


def test_answers_are_slotted_frozen_values():
    surface = SurfaceReport(8, SurfaceHistogram(8, 0, 0, 0), 0, 2, "formula")
    corners = CornerHistogram(cp1=0, cp2=0, cp3=0, cp4=1, thin=0)
    for cls, args in (
        (SurfaceHistogram, (8, 0, 0, 0)),
        (SurfaceReport, (8, SurfaceHistogram(8, 0, 0, 0), 0, 2, "formula")),
        (TopoReport3D, (1, 1, (surface,), (1, 0, 0, 0))),
        (CornerHistogram, (0, 0, 0, 1, 0)),
        (HoleReport, (1, 1, corners, 0, HoleMethod.FORMULA, True)),
        (PreconditionReport, (True, ())),
    ):
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and hash(a) == hash(b), cls
        assert not hasattr(a, "__dict__"), cls
        first = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, first, 0)
        other = dataclasses.replace(a, **{first: 2})
        assert other != a, cls


def _many_components(ndim: int):
    """Over 100 components with few distinct answers, some of them dirty,
    and in 2D some speckles: a lattice of cells of side 6 (2D) or 4 (3D),
    each holding one of three motifs at its low corner."""
    side, n = (6, 11) if ndim == 2 else (4, 5)
    cells = np.zeros((side * n,) * ndim, dtype=bool)
    if ndim == 2:
        ring = image("111\n101\n110").cells  # a diagonal window of its own
        motifs = [np.ones((2, 2), bool), np.ones((1, 3), bool), ring]
    else:
        pair = np.zeros((2, 2, 2), bool)
        pair[0, 0, 0] = pair[1, 1, 1] = True  # a vertex pair
        motifs = [np.ones((1, 1, 1), bool), np.ones((1, 1, 2), bool), pair]
    for i, corner in enumerate(np.ndindex(*(n,) * ndim)):
        at = [side * c for c in corner]
        motif = motifs[i % 3]
        cells[tuple(slice(a, a + k) for a, k in zip(at, motif.shape))] = motif
        if ndim == 2 and i % 4 == 0:
            cells[at[0] + 4, at[1] + 4] = True  # a speckle
    return digitopo.grid._grid_of(cells)


@pytest.mark.parametrize("command", ["holes", "homology"])
def test_json_records_are_built_once_per_distinct_answer(command, tmp_path, monkeypatch):
    # The per-piece answers reach the JSON bytes as columns: a record
    # builder runs once per distinct answer or edit key, and no report or
    # edit object is made per item.
    path = tmp_path / ("in.pbm" if command == "holes" else "in.vox3")
    grid_ = _many_components(2 if command == "holes" else 3)
    (digitopo.write_pbm if command == "holes" else digitopo.write_vox3)(grid_, path)
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("hole_record", "component_record_3d", "action_record"):
        monkeypatch.setattr(report, name, counting(name, getattr(report, name)))
    for cls in (HoleReport, TopoReport3D, RepairAction):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_dispatch([command, "--json", str(path)]) == 0
    rep = json.loads(out.getvalue())
    filled = {"component", "area", "voxels"}
    answers = {
        json.dumps({k: v for k, v in c.items() if k not in filled}, sort_keys=True)
        for c in rep["components"]
    }
    keys = {(a["op"], a["reason"]) for a in rep["repair_actions"]}
    assert len(rep["components"]) > 100 and len(answers) <= 4 and 1 <= len(keys) <= 3
    record, cls = ("hole_record", "HoleReport") if command == "holes" else (
        "component_record_3d", "TopoReport3D"
    )
    assert 1 <= counts[record] <= len(answers) and counts[cls] <= len(answers)
    assert 1 <= counts["action_record"] <= len(keys) and counts["RepairAction"] <= len(keys)
