"""Reading and writing portable bitmaps (P1 ASCII and P4 packed).

In PBM a 1 bit is black; black pixels are the foreground here. P1 bodies
may space-separate bits or pack them into digit runs; both parse. '#'
starts a comment running to end of line anywhere in a P1 file and in the
P4 header. Write always emits P1 with one row per line, which keeps
fixtures diffable; write_pbm_p4 exists for the packed variant.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .grid import Image2D

__all__ = ["read_pbm", "write_pbm", "write_pbm_p4"]


def _strip_comment(line: bytes) -> bytes:
    cut = line.find(b"#")
    return line if cut < 0 else line[:cut]


def _header_tokens(data: bytes, want: int, start_line: int):
    """Collect `want` whitespace-separated header tokens with line tracking.

    Returns (tokens, offset_after_last, line_of_last). Comments count as
    whitespace. Offsets are into `data`.
    """
    tokens: list[bytes] = []
    line = start_line
    i = 0
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


def read_pbm(path) -> Image2D:
    """Parse a P1 or P4 file into an image."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P1", b"P4"):
        raise ParseError("not a PBM file (magic must be P1 or P4)", 1)
    magic = data[:2]
    rest = data[2:]
    (wtok, htok), consumed, line = _header_tokens(rest, 2, 1)
    try:
        width, height = int(wtok), int(htok)
    except ValueError:
        raise ParseError(f"bad dimensions {wtok!r} {htok!r}", line) from None
    if width <= 0 or height <= 0:
        raise ParseError(f"bad dimensions {width} {height}", line)
    body = rest[consumed:]
    if magic == b"P1":
        return _read_p1_body(body, width, height, line)
    return _read_p4_body(body, width, height, line)


# P1 body byte classes: 0 whitespace, 1 bit digit, 2 anything else.
_P1_CLASS = np.full(256, 2, dtype=np.uint8)
_P1_CLASS[list(b" \t\n\r\x0b\x0c")] = 0
_P1_CLASS[list(b"01")] = 1


def _read_p1_body(body: bytes, width: int, height: int, line: int) -> Image2D:
    # Lines are scanned whole and none after the one that completes the
    # bitmap, so a bad byte raises only up to the end of that line.
    need = width * height
    if b"#" in body:
        body = b"\n".join(_strip_comment(raw) for raw in body.split(b"\n"))
    data = np.frombuffer(body, dtype=np.uint8)
    kind = _P1_CLASS[data]
    is_bit = kind == 1
    found = int(np.count_nonzero(is_bit))
    end = len(body)
    if found >= need:
        cut = body.find(b"\n", int(np.flatnonzero(is_bit)[need - 1]))
        if cut >= 0:
            end = cut
    bad = kind[:end] == 2
    if bad.any():
        off = int(np.argmax(bad))
        ch = body[off : off + 1]
        raise ParseError(
            f"unexpected character {ch!r} in bitmap", line + body.count(b"\n", 0, off)
        )
    if found < need:
        raise ParseError(
            f"bitmap truncated: expected {need} bits, found {found}",
            line + body.count(b"\n") + 1,
        )
    cells = data[is_bit][:need] == 0x31
    return Image2D(width, height, cells.reshape(height, width))


def _read_p4_body(body: bytes, width: int, height: int, line: int) -> Image2D:
    # Header ends at exactly one whitespace byte before the packed rows.
    if not body or not body[:1].isspace():
        raise ParseError("P4 header must end with whitespace", line)
    if body[:1] == b"\n":
        line += 1
    packed = body[1:]
    stride = (width + 7) // 8
    need = stride * height
    if len(packed) < need:
        raise ParseError(
            f"bitmap truncated: expected {need} bytes, found {len(packed)}", line
        )
    rows = np.frombuffer(packed[:need], dtype=np.uint8).reshape(height, stride)
    bits = np.unpackbits(rows, axis=1)[:, :width]
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
