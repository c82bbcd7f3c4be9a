"""The statement tracer (``tools/linetrace.py``) on a small module.

The tool is loaded by path, since ``tools`` is not a package.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''\
"""A module docstring runs as an assignment, and is no statement here."""


def pick(flag):
    """A function's docstring compiles to no instruction."""
    global _LAST
    if flag:
        return "yes"
    for _ in range(
        2
    ):
        pass
    return "no"


@staticmethod
def never():
    return 1
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_the_statements_that_never_ran(tmp_path):
    linetrace = load("linetrace", ROOT / "tools" / "linetrace.py")
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    with linetrace.LineTracer([path]) as tracer:
        assert load("small", path).pick(True) == "yes"
    ran = tracer.lines[str(path.resolve())]
    # The loop's header spans three lines; ``global`` and the docstrings
    # compile to nothing; the decorator line starts ``never``'s span.
    assert linetrace.unrun(path, ran) == [
        (9, "for _ in range("),
        (12, "pass"),
        (13, 'return "no"'),
        (18, "return 1"),
    ]
    assert [line for line, _ in linetrace.statements(path)] == [4, 7, 8, 9, 12, 13, 17, 18]
