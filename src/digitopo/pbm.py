"""Reading and writing portable bitmaps (P1 ASCII and P4 packed).

In PBM a 1 bit is black; black pixels are the foreground here. P1 bodies
may space-separate bits or pack them into digit runs; both parse. '#'
starts a comment running to end of line anywhere in a P1 file and in the
P4 header. Write always emits P1 with one row per line, which keeps
fixtures diffable; write_pbm_p4 exists for the packed variant.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError
from .grid import Image2D

__all__ = ["read_pbm", "write_pbm", "write_pbm_p4"]


def _strip_comment(line: bytes) -> bytes:
    cut = line.find(b"#")
    return line if cut < 0 else line[:cut]


# Header whitespace with its comments, and one header token.
_SKIP = re.compile(rb"(?:\s|#[^\n]*)*")
_TOKEN = re.compile(rb"[^\s#]+")


def _header_tokens(data: bytes, want: int, start_line: int, start: int):
    """Collect `want` whitespace-separated header tokens with line tracking,
    reading `data` from offset `start`.

    Returns (tokens, offset_after_last, line_of_last). Comments count as
    whitespace. Offsets are into `data`.
    """
    tokens: list[bytes] = []
    line, i = start_line, start
    while len(tokens) < want:
        j = _SKIP.match(data, i).end()
        line += data.count(b"\n", i, j)
        if j >= len(data):
            raise ParseError("unexpected end of file in header", line)
        i = _TOKEN.match(data, j).end()
        tokens.append(data[j:i])
    return tokens, i, line


def read_pbm(path) -> Image2D:
    """Parse a P1 or P4 file into an image."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P1", b"P4"):
        raise ParseError("not a PBM file (magic must be P1 or P4)", 1)
    magic = data[:2]
    # The body is read in place, from offset `start` of the file's bytes.
    (wtok, htok), start, line = _header_tokens(data, 2, 1, 2)
    try:
        width, height = int(wtok), int(htok)
    except ValueError:
        raise ParseError(f"bad dimensions {wtok!r} {htok!r}", line) from None
    if width <= 0 or height <= 0:
        raise ParseError(f"bad dimensions {width} {height}", line)
    if magic == b"P1":
        return _read_p1_body(data, start, width, height, line)
    return _read_p4_body(data, start, width, height, line)


# P1 body byte classes: 0 whitespace, 1 bit digit, 2 anything else.
_P1_CLASS = np.full(256, 2, dtype=np.uint8)
_P1_CLASS[list(b" \t\n\r\x0b\x0c")] = 0
_P1_CLASS[list(b"01")] = 1
_P1_SPACE = bytes(np.flatnonzero(_P1_CLASS == 0).tolist())

# Bytes per block of ``_nth_true``.
_BLOCK = 1 << 16


def _nth_true(mask: np.ndarray, n: int) -> int:
    """Index of the n-th (1-based) True of ``mask``, which holds at least
    n; only the block holding it is expanded to indices."""
    for start in range(0, mask.size, _BLOCK):
        block = mask[start : start + _BLOCK]
        found = int(np.count_nonzero(block))
        if found >= n:
            return start + int(np.flatnonzero(block)[n - 1])
        n -= found
    raise ValueError("mask holds fewer than n True values")


def _read_p1_body(data: bytes, start: int, width: int, height: int, line: int) -> Image2D:
    """Decode the P1 body ``data[start:]``, whose first line is ``line``.

    Comments stripped, the whitespace bytes are deleted in one pass; when
    every byte kept is a bit and there are enough of them, the first
    width*height are the bitmap. Otherwise each byte is classified, to
    place the error: lines are scanned whole and none after the one that
    completes the bitmap, so a bad byte raises only up to the end of that
    line.
    """
    need = width * height
    # A final newline ends the file's last line rather than starting one.
    final_newline = data.endswith(b"\n")
    if data.find(b"#", start) >= 0:
        data = b"\n".join(_strip_comment(raw) for raw in data[start:].split(b"\n"))
        start = 0
    kept = np.frombuffer(data[start:].translate(None, _P1_SPACE), dtype=np.uint8)
    if kept.size >= need and kept.min() >= 0x30 and kept.max() <= 0x31:
        return Image2D(width, height, (kept[:need] == 0x31).reshape(height, width))
    body = np.frombuffer(data, dtype=np.uint8, offset=start)
    kind = _P1_CLASS[body]
    is_bit = kind == 1
    found = int(np.count_nonzero(is_bit))
    end = len(data)
    if found >= need:
        cut = data.find(b"\n", start + _nth_true(is_bit, need))
        if cut >= 0:
            end = cut
    bad = kind[: end - start] == 2
    if bad.any():
        off = start + int(np.argmax(bad))
        ch = data[off : off + 1]
        raise ParseError(
            f"unexpected character {ch!r} in bitmap", line + data.count(b"\n", start, off)
        )
    if found < need:
        raise ParseError(
            f"bitmap truncated: expected {need} bits, found {found}",
            line + data.count(b"\n", start) - final_newline,
        )
    cells = body[is_bit][:need] == 0x31
    return Image2D(width, height, cells.reshape(height, width))


def _read_p4_body(data: bytes, start: int, width: int, height: int, line: int) -> Image2D:
    # Header ends at exactly one whitespace byte before the packed rows.
    sep = data[start : start + 1]
    if not sep.isspace():
        raise ParseError("P4 header must end with whitespace", line)
    if sep == b"\n":
        line += 1
    start += 1
    stride = (width + 7) // 8
    need = stride * height
    if len(data) - start < need:
        raise ParseError(
            f"bitmap truncated: expected {need} bytes, found {len(data) - start}", line
        )
    rows = np.frombuffer(data, dtype=np.uint8, count=need, offset=start)
    bits = np.unpackbits(rows.reshape(height, stride), axis=1)[:, :width]
    return Image2D(width, height, bits.astype(bool))


def write_pbm(img: Image2D, path) -> None:
    """Write the image as ASCII P1, one packed digit row per line."""
    lines = [b"P1", f"{img.width} {img.height}".encode()]
    digits = img.cells.astype(np.uint8) + 0x30
    for y in range(img.height):
        lines.append(digits[y].tobytes())
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")


def write_pbm_p4(img: Image2D, path) -> None:
    """Write the image as packed binary P4."""
    packed = np.packbits(img.cells.astype(np.uint8), axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{img.width} {img.height}\n".encode())
        fh.write(packed.tobytes())
