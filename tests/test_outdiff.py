"""The output-diff harness (``tools/outdiff.py``) on a tiny corpus.

The tool is loaded by path, since ``tools`` is not a package.
"""

import importlib.util
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
