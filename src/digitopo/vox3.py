"""The vox3 text container for binary volumes.

Layout, fixed bit-exactly:

    vox3 <nx> <ny> <nz>
    <ny lines of nx characters from {0,1}>   (slab z = 0)
    <blank line>
    <next slab>
    ...

One blank line separates consecutive slabs; the file ends with a
trailing newline. Any other character, a dimension mismatch, or a
missing trailing newline is a parse error carrying the line number.
Readers accept LF, CRLF or lone CR line ends; writers emit LF.
"""

from __future__ import annotations

import os
import stat
from typing import Iterator

import numpy as np

from .errors import ParseError
from .grid import Volume3D

__all__ = ["read_vox3", "write_vox3", "iter_vox3_slabs"]

_MAGIC = "vox3"

# The most characters one read of the body asks for.
_PIECE = 1 << 20
# The most characters of the header line; a valid one holds a few dozen.
_HEADER_CHARS = 1 << 20


def _parse_header(line: str) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 4 or parts[0] != _MAGIC:
        raise ParseError(f"bad header {line!r}, expected 'vox3 <nx> <ny> <nz>'", 1)
    try:
        nx, ny, nz = (int(p) for p in parts[1:])
    except ValueError:
        raise ParseError(f"bad dimensions in header {line!r}", 1) from None
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise ParseError(f"dimensions must be positive, got {nx} {ny} {nz}", 1)
    return nx, ny, nz


def _parse_row(line: str, nx: int, lineno: int, length: int | None = None) -> np.ndarray:
    """The row ``line``, without its newline; ``length`` is the row's
    length when ``line`` holds only its start."""
    length = len(line) if length is None else length
    if length != nx:
        raise ParseError(f"expected {nx} characters, found {length}", lineno)
    row = np.frombuffer(line.encode("ascii", "replace"), dtype=np.uint8)
    bad = (row != 0x30) & (row != 0x31)
    if bad.any():
        col = int(np.argmax(bad))
        raise ParseError(f"invalid character {line[col]!r} at column {col + 1}", lineno)
    return row == 0x31


def iter_vox3_slabs(path) -> Iterator[np.ndarray]:
    """Yield (ny, nx) boolean slabs in z order without loading the volume.

    The first yielded value is the (nx, ny, nz) dimension triple; slabs
    follow. Streaming consumers fold the slabs one at a time. A header
    line longer than ``_HEADER_CHARS`` characters is refused. The body is
    read in blocks of as many whole slabs, each with the blank line before
    it, as fit in ``_PIECE`` characters, or of one slab when it is larger;
    a block is checked at once and its slabs yielded up to the first bad
    one, whose error is then raised. No read asks for more than ``_PIECE``
    characters, so a header that declares more than the input holds
    costs no memory, on a pipe as on a regular file.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first = fh.readline(_HEADER_CHARS + 1)
        if not first.endswith("\n"):
            if len(first) > _HEADER_CHARS:
                raise ParseError(f"header longer than {_HEADER_CHARS} characters", 1)
            raise ParseError("missing newline after header", 1)
        nx, ny, nz = _parse_header(first[:-1])
        yield (nx, ny, nz)
        stride = nx + 1  # a row and its newline
        unit = 1 + ny * stride  # a slab and the blank line before it
        per_block = max(1, _PIECE // unit)
        # The header's newline stands in for the blank line before slab 0,
        # so every slab of a block sits at a multiple of ``unit``.
        lead = "\n"
        for z in range(0, nz, per_block):
            count = min(per_block, nz - z)
            block = lead + _read(fh, count * unit - len(lead))
            lead = ""
            ok = len(block) // unit  # fewer than count only at the end of the input
            if ok:  # else a header's sizes may pass numpy's bound
                codes = np.frombuffer(block.encode("ascii", "replace"), dtype=np.uint8)
                slabs = codes[: ok * unit].reshape(ok, unit)
                rows = slabs[:, 1:].reshape(ok, ny, stride)
                # '0' | 1 == '1' | 1 == '1'; any other byte differs.
                good = (
                    (slabs[:, 0] == 0x0A)
                    & (rows[:, :, nx] == 0x0A).all(axis=1)
                    & ((rows[:, :, :nx] | 1) == 0x31).all(axis=(1, 2))
                )
                if not good.all():
                    ok = int(np.argmin(good))
                yield from rows[:ok, :, :nx] == 0x31
            if ok < count:
                _slab_error(fh, block[ok * unit :], nx, ny, 1 + (z + ok) * (ny + 1))
        # Only newlines may follow, read a piece at a time.
        while True:
            trailing = _read(fh, _PIECE)
            if trailing.strip("\n"):
                raise ParseError("trailing content after last slab", nz * (ny + 1) + 1)
            if len(trailing) < _PIECE:
                break


def _slab_error(fh, text: str, nx: int, ny: int, lineno: int) -> None:
    """Raise the error of the bad slab whose blank line, on line
    ``lineno``, starts ``text``: the rest of its block as read."""
    if text[:1] != "\n":
        raise ParseError("expected blank line between slabs", lineno)
    stride = nx + 1
    block = text[1:]
    y = min(len(block) // stride, ny)
    if y:
        codes = np.frombuffer(block[: y * stride].encode("ascii", "replace"), dtype=np.uint8)
        codes = codes.reshape(y, stride)
        good = (codes[:, nx] == 0x0A) & ((codes[:, :nx] | 1) == 0x31).all(axis=1)
        # Every row before the first bad one is well formed, so the bad
        # row starts at its slot.
        if not good.all():
            y = int(np.argmin(good))
    _row_error(fh, block[y * stride :], nx, lineno + y + 1)


def _row_error(fh, rest: str, nx: int, lineno: int) -> None:
    """Raise the error of the bad row that starts ``rest``. While its
    newline is not yet read, ``fh`` is read on a piece at a time, keeping
    only the row's length and its first characters."""
    cut = rest.find("\n")
    length = cut if cut >= 0 else len(rest)
    line = rest[: nx + 1]
    while cut < 0:
        part = fh.read(_PIECE)
        if not part:
            raise ParseError(
                "unexpected end of file inside slab" if length == 0 else "missing trailing newline",
                lineno,
            )
        cut = part.find("\n")
        length += cut if cut >= 0 else len(part)
        if len(line) <= nx:
            line = (line + part)[: nx + 1]
    _parse_row(line[:length], nx, lineno, length)


def _read(fh, n: int) -> str:
    """Up to ``n`` characters of ``fh``, asking for at most ``_PIECE`` at
    a time: fewer only at the end of the input."""
    parts = []
    while n > 0:
        ask = min(n, _PIECE)
        part = fh.read(ask)
        parts.append(part)
        n -= len(part)
        if len(part) < ask:
            break
    return "".join(parts)


def read_vox3(path) -> Volume3D:
    """Parse a vox3 file into a volume.

    A regular file shorter than the smallest body of the volume its
    header declares is refused before any slab is read. The volume is
    allocated only once every slab has parsed, whatever the input.
    """
    it = iter_vox3_slabs(path)
    nx, ny, nz = next(it)
    st = os.stat(path)
    if stat.S_ISREG(st.st_mode):  # a pipe has no size: it reports 0
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            # At most one byte more than follows a CRLF header.
            left = st.st_size - len(fh.readline(_HEADER_CHARS + 1))
        # LF line ends, the shortest; CRLF files are larger.
        need = nz * ny * (nx + 1) + nz - 1
        if left < need:
            raise ParseError(
                f"a {nx}x{ny}x{nz} volume needs at least {need} bytes after the"
                f" header, the file has {left}",
                1,
            )
    return Volume3D(nx, ny, nz, np.stack(list(it)))


def write_vox3(vol: Volume3D, path) -> None:
    """Write the volume in vox3 layout, round-trip bit-exact."""
    text = np.full((vol.nz, vol.ny, vol.nx + 1), 0x0A, dtype=np.uint8)
    text[..., : vol.nx] = vol.cells
    text[..., : vol.nx] += 0x30
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} {vol.nx} {vol.ny} {vol.nz}\n".encode())
        for z in range(vol.nz):
            if z > 0:
                fh.write(b"\n")
            fh.write(text[z].tobytes())
