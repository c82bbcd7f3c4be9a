"""The block parsers against the loop parsers they replaced.

``pbm._read_p1_body`` deletes the P1 body's whitespace in one pass, and
classifies every byte only to place an error; ``pbm._header_tokens``
reads the PBM header by two regular expressions; ``vox3.iter_vox3_slabs``
reads as many whole slabs per call as fit in ``vox3._PIECE`` characters,
and checks them at once. The references below are the byte-by-byte P1
body parser and header reader and the row-by-row slab reader. On every
mutant of a valid file both must give the same grid (or tokens) or the
same ``ParseError`` text, line included; for vox3 the slabs yielded
before the error must match too, since a streaming fold has already seen
them.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitopo import ParseError, iter_vox3_slabs, pbm, read_pbm, vox3
from digitopo.grid import Image2D
from digitopo.vox3 import _parse_header, _parse_row


def reference_p1_body(data, start, width, height, line):
    body = data[start:]
    bits = []
    need = width * height
    for raw in body.split(b"\n"):
        for c in pbm._strip_comment(raw):
            ch = bytes((c,))
            if ch in b"01":
                bits.append(c - 0x30)
            elif not ch.isspace():
                raise ParseError(f"unexpected character {ch!r} in bitmap", line)
        line += 1
        if len(bits) >= need:
            break
    if len(bits) < need:
        # The last line holds the last byte; a final newline ends it.
        raise ParseError(
            f"bitmap truncated: expected {need} bits, found {len(bits)}",
            line - 1 - body.endswith(b"\n"),
        )
    cells = np.array(bits[:need], dtype=bool).reshape(height, width)
    return Image2D(width, height, cells)


def reference_header_tokens(data, want, start_line, start):
    tokens = []
    line = start_line
    i = start
    n = len(data)
    while len(tokens) < want:
        if i >= n:
            raise ParseError("unexpected end of file in header", line)
        c = data[i : i + 1]
        if c == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        if c == b"\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i, line


def reference_iter_vox3_slabs(path):
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first = fh.readline()
        if not first.endswith("\n"):
            raise ParseError("missing newline after header", 1)
        nx, ny, nz = _parse_header(first[:-1])
        yield (nx, ny, nz)
        lineno = 1
        for z in range(nz):
            if z > 0:
                sep = fh.readline()
                lineno += 1
                if sep != "\n":
                    raise ParseError("expected blank line between slabs", lineno)
            slab = np.empty((ny, nx), dtype=bool)
            for y in range(ny):
                raw = fh.readline()
                lineno += 1
                if not raw.endswith("\n"):
                    raise ParseError(
                        "unexpected end of file inside slab"
                        if raw == ""
                        else "missing trailing newline",
                        lineno,
                    )
                slab[y] = _parse_row(raw[:-1], nx, lineno)
            yield slab
        trailing = fh.read()
        if trailing.strip("\n"):
            lineno += 1
            raise ParseError("trailing content after last slab", lineno)


# ---------------------------------------------------------------------------
# mutants

# Every byte that ``pbm._P1_CLASS`` counts as whitespace, and some that
# only ``str.isspace`` takes (\x1c, \x85, \xa0), so the P1 whitespace set
# that the block parser deletes is pinned.
MUTANT_BYTE = st.sampled_from(
    [bytes((b,)) for b in b"01 #\n\r\t\x0b\x0c\x1c\x85\xa0x\x80"]
)


@st.composite
def mutants(draw, valid):
    # Most edits land past the header: the header parsers did not change.
    text, header = draw(valid)
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        start = 0 if draw(st.integers(0, 9)) == 0 else min(header, len(data))
        i = draw(st.integers(start, len(data)))
        if kind == "insert":
            data[i:i] = draw(MUTANT_BYTE)
        elif kind == "truncate":
            del data[i:]
        elif i < len(data):
            data[i : i + 1] = draw(MUTANT_BYTE) if kind == "flip" else b""
    return bytes(data)


@st.composite
def p1_files(draw):
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from("01"), min_size=width * height,
                          max_size=width * height))
    rows = ["".join(cells[y * width : (y + 1) * width]) for y in range(height)]
    style = draw(st.sampled_from(["packed", "spaced", "one-line"]))
    if style == "spaced":
        rows = [" ".join(r) for r in rows]
    elif style == "one-line":
        rows = [" ".join(rows)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), "# note 01")
    header = draw(st.sampled_from([f"P1\n{width} {height}", f"P1 # c\n{width}\n{height}"]))
    return ("\n".join([header, *rows]) + "\n").encode(), len(header)


# Header bytes: whitespace that ``bytes.isspace`` takes and some that it
# does not (\x1c-\x1f and \x85 are whitespace to ``str.isspace`` only).
HEADER_BYTE = st.sampled_from([bytes((b,)) for b in b"07 #\n\r\t\x0b\x0cx\x1c\x1f\x80\x85\xa0\xff"])


@st.composite
def pbm_headers(draw):
    """A PBM header and the start of its body, with up to six byte edits
    anywhere past the magic."""
    width, height = draw(st.integers(0, 120)), draw(st.integers(0, 120))
    sep = draw(st.sampled_from([" ", "\n", " # c 1 2\n", "\t#\n\n", "\r\n"]))
    text = f"{draw(st.sampled_from(['P1', 'P4']))}{sep}{width}{sep}{height}\n\x80\x01"
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        i = draw(st.integers(2, len(data)))
        if kind == "insert":
            data[i:i] = draw(HEADER_BYTE)
        elif kind == "truncate":
            del data[i:]
        elif i < len(data):
            data[i : i + 1] = draw(HEADER_BYTE) if kind == "flip" else b""
    return bytes(data)


@st.composite
def vox3_files(draw):
    nx, ny, nz = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.sampled_from("01"), min_size=nx * ny * nz,
                          max_size=nx * ny * nz))
    rows = ["".join(cells[i * nx : (i + 1) * nx]) + "\n" for i in range(ny * nz)]
    slabs = ["".join(rows[z * ny : (z + 1) * ny]) for z in range(nz)]
    header = f"vox3 {nx} {ny} {nz}"
    text = f"{header}\n" + "\n".join(slabs)
    return text.replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"]))).encode(), len(header)


# ---------------------------------------------------------------------------
# outcomes


def pbm_outcome(path):
    try:
        img = read_pbm(path)
    except ParseError as exc:
        return "error", str(exc), exc.line
    return "grid", img.cells.dtype, img.cells.shape, img.cells.tobytes()


def slab_outcome(iterate, path):
    seen = []
    try:
        for item in iterate(path):
            if isinstance(item, np.ndarray):
                item = item.dtype, item.shape, item.tobytes()
            seen.append(item)
    except ParseError as exc:
        return seen, str(exc), exc.line
    return seen, None, None


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant"


@settings(max_examples=400, deadline=None)
@given(data=mutants(p1_files()))
def test_p1_block_parser_matches_reference(scratch, data):
    scratch.write_bytes(data)
    got = pbm_outcome(scratch)
    with mock.patch.object(pbm, "_read_p1_body", reference_p1_body):
        want = pbm_outcome(scratch)
    assert got == want


def header_outcome(read, data, want, start_line):
    try:
        return read(data, want, start_line, 2)
    except ParseError as exc:
        return "error", str(exc), exc.line


@settings(max_examples=1000, deadline=None)
@given(data=pbm_headers(), want=st.integers(1, 3), start_line=st.integers(1, 3))
def test_header_reader_matches_reference(data, want, start_line):
    got = header_outcome(pbm._header_tokens, data, want, start_line)
    assert got == header_outcome(reference_header_tokens, data, want, start_line)


# Blocks of one slab read in pieces (1, 3, 7), of one or a few slabs
# (12, 25), and of the whole body (the default).
@pytest.mark.parametrize("piece", [1, 3, 7, 12, 25, 1 << 20])
@settings(max_examples=400, deadline=None)
@given(data=mutants(vox3_files()))
def test_vox3_slab_reader_matches_reference(scratch, piece, data):
    scratch.write_bytes(data)
    with mock.patch.object(vox3, "_PIECE", piece):
        got = slab_outcome(iter_vox3_slabs, scratch)
    assert got == slab_outcome(reference_iter_vox3_slabs, scratch)


@pytest.mark.parametrize("block", [1, 2, 7, 1 << 16])
def test_nth_true_finds_the_bit_across_blocks(monkeypatch, block):
    monkeypatch.setattr(pbm, "_BLOCK", block)
    rng = np.random.default_rng(5)
    for _ in range(50):
        mask = rng.random(int(rng.integers(1, 40))) < rng.random()
        where = np.flatnonzero(mask)
        for n in range(1, where.size + 1):
            assert pbm._nth_true(mask, n) == where[n - 1]


@settings(max_examples=100, deadline=None)
@given(drawn=st.one_of(p1_files(), vox3_files()))
def test_unmutated_files_parse(scratch, drawn):
    data, _ = drawn
    scratch.write_bytes(data)
    if data.startswith(b"P1"):
        assert pbm_outcome(scratch)[0] == "grid"
    else:
        assert slab_outcome(iter_vox3_slabs, scratch)[1] is None
