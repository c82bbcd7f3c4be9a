"""The output-diff harness (``tools/outdiff.py``) on a tiny corpus.

The tool is loaded by path, since ``tools`` is not a package.
"""

import importlib.util
import shutil
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_outdiff():
    spec = importlib.util.spec_from_file_location("outdiff", ROOT / "tools" / "outdiff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_has_no_differences(tmp_path):
    outdiff = load_outdiff()
    cases, diffs = outdiff.compare(ROOT / "src", ROOT / "src", tmp_path, tiny=True)
    groups = {case["group"] for case in cases}
    assert {"gen --json", "holes --json --no-repair --no-fallback-oracle"} <= groups
    assert {"repair -o", "genus --streaming", "validate --no-repair"} <= groups
    assert diffs == [None] * len(cases)
    assert outdiff.report(cases, diffs)[-1] == (
        f"outdiff: {len(cases)} runs per tree, 0 differ,"
        f" in 0 of {len(groups)} command and flag sets"
    )


def test_a_planted_difference_is_grouped_by_its_json_key_path(tmp_path):
    # A copy of the package whose hole records count one hole more: only
    # the JSON runs of holes differ, each at ``components[].holes`` alone.
    outdiff = load_outdiff()
    planted = tmp_path / "planted"
    shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
    record = planted / "digitopo" / "report.py"
    text = record.read_text()
    assert text.count('"holes": r.holes,') == 1
    record.write_text(text.replace('"holes": r.holes,', '"holes": r.holes + 1,'))
    runs = tmp_path / "runs"
    runs.mkdir()
    cases, diffs = outdiff.compare(ROOT / "src", planted, runs, tiny=True)
    differ = Counter(case["group"] for case, diff in zip(cases, diffs) if diff is not None)
    assert set(differ) == {
        "holes --json",
        "holes --json --no-repair",
        "holes --json --no-fallback-oracle",
        "holes --json --no-repair --no-fallback-oracle",
    }
    lines = outdiff.report(cases, diffs)
    keys = [line.strip() for line in lines if "json keys:" in line]
    assert sorted(keys) == sorted(f"json keys: components[].holes: {n}" for n in differ.values())


def test_a_planted_reader_difference_shows_in_the_errors(tmp_path):
    # A copy of the package whose P1 and vox3 readers word two errors
    # otherwise: each run that differs raised one of them and differs by
    # its error line alone, and the corpus's reader variants raise both.
    outdiff = load_outdiff()
    planted = tmp_path / "planted"
    shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
    words = {"pbm.py": ("unexpected character", "unexpected byte"),
             "vox3.py": ("characters, found", "chars, found")}
    for name, (old, new) in words.items():
        path = planted / "digitopo" / name
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    runs = tmp_path / "runs"
    runs.mkdir()
    cases, diffs = outdiff.compare(ROOT / "src", planted, runs, tiny=True)
    raised = set()
    for case, diff in zip(cases, diffs):
        if diff is None:
            continue
        x, y = diff
        assert (x["exit"], x["stdout"], x["output"]) == (y["exit"], y["stdout"], y["output"])
        old, new = next(pair for pair in words.values() if pair[0] in x["stderr"])
        assert y["stderr"] == x["stderr"].replace(old, new)
        raised.add(case["input"].rsplit(".", 1)[1])
    assert raised == {"pbm", "vox3"}
    assert any("stderr 'digitopo: error: line" in line for line in outdiff.report(cases, diffs))
