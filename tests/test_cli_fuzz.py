"""The command line on mutated inputs: every run ends in a documented exit.

Small valid P1, P4 and vox3 files are mutated (byte flips, insertions,
deletions, header numbers rewritten) and run through ``cli_dispatch``
under the commands and their flag sets. A run returns 0, 1, 2, 3 or 64;
a nonzero exit writes one ``digitopo: error:`` line (64 from argparse
also writes its usage first), and no exception escapes. The one nonzero
exit without an error line is ``validate``'s disagreement, exit 1, which
reports its checks on stdout.
"""

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from digitopo import cli_dispatch, gen_frame, write_pbm, write_pbm_p4, write_vox3
from gridtext import image

RUNS = [
    ["components"],
    ["holes"],
    ["holes", "--no-repair"],
    ["holes", "--no-repair", "--no-fallback-oracle"],
    ["genus"],
    ["genus", "--no-repair"],
    ["genus", "--streaming", "--no-repair"],
    ["genus", "--streaming"],
    ["homology"],
    ["homology", "--no-repair"],
    ["homology", "--no-repair", "--no-fallback-oracle"],
    ["validate"],
    ["validate", "--no-repair"],
    ["repair"],
    ["repair", "-o", "OUT"],
]

# The header's numbers: dimensions in PBM, the three extents in vox3.
_HEADER_NUMBER = re.compile(rb"\d+")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory, and the valid files that the mutations start from."""
    d = tmp_path_factory.mktemp("fuzz")
    img = image("0111110\n0110010\n0110010\n0111110\n0000001")
    write_pbm(img, d / "p1")
    write_pbm_p4(img, d / "p4")
    write_vox3(gen_frame(1), d / "vox3")
    return d, {kind: (d / kind).read_bytes() for kind in ("p1", "p4", "vox3")}


@st.composite
def mutations(draw, data: bytes) -> bytes:
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["cell", "cell", "flip", "insert", "delete", "header"]))
        at = draw(st.integers(0, len(data)))
        if op == "cell":
            # A cell of a P1 or vox3 body (past the line that ends the
            # seeds' headers) turned over: the file stays valid, and the
            # analysis runs on a new grid.
            cells = [i for i in range(data.find(b"\n", 3) + 1, len(data)) if data[i] in b"01"]
            if cells:
                data[cells[at % len(cells)]] ^= 1
        elif op == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "insert":
            symbols = st.sampled_from([b"0", b"1", b"\n", b" ", b"#"])
            data[at:at] = draw(st.binary(min_size=1, max_size=3) | symbols)
        elif op == "delete":
            del data[at : at + draw(st.integers(1, 3))]
        elif op == "header":
            after_magic = 4 if data.startswith(b"vox3") else 2
            numbers = list(_HEADER_NUMBER.finditer(bytes(data), after_magic, 24))
            if numbers:
                m = numbers[draw(st.integers(0, len(numbers) - 1))]
                digits = str(draw(st.integers(0, 10**15) | st.integers(0, 12))).encode()
                data[m.start() : m.end()] = digits
    return bytes(data)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_mutated_input_gets_a_documented_exit(work, data):
    d, seeds = work
    kind = data.draw(st.sampled_from(sorted(seeds)))
    body = data.draw(mutations(seeds[kind]))
    json_flag = data.draw(st.sampled_from([[], ["--json"]]))
    path = d / "input"
    path.write_bytes(body)
    # Every command and flag set runs on each mutated input.
    for run in RUNS:
        argv = [str(d / "out") if a == "OUT" else a for a in run] + json_flag + [str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch(argv)
        lines = err.getvalue().splitlines()
        event(f"{kind} exit {code}")
        assert code in (0, 1, 2, 3, 64), (argv, body)
        if code == 0 or (code == 1 and run[0] == "validate" and not lines):
            assert lines == [] and out.getvalue(), (argv, body)
        elif code == 64:
            assert lines and re.match(r"digitopo( \w+)?: error: ", lines[-1]), (argv, body, lines)
            assert all(line.startswith(("usage:", " ")) for line in lines[:-1]), (argv, lines)
        else:
            assert len(lines) == 1 and lines[0].startswith("digitopo: error: "), (argv, lines)
            assert out.getvalue() == "", (argv, body)
