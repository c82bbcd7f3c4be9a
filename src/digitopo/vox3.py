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

# The most characters one read of a slab asks for.
_PIECE = 1 << 20


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


def _parse_row(line: str, nx: int, lineno: int) -> np.ndarray:
    if len(line) != nx:
        raise ParseError(f"expected {nx} characters, found {len(line)}", lineno)
    row = np.frombuffer(line.encode("ascii", "replace"), dtype=np.uint8)
    bad = (row != 0x30) & (row != 0x31)
    if bad.any():
        col = int(np.argmax(bad))
        raise ParseError(f"invalid character {line[col]!r} at column {col + 1}", lineno)
    return row == 0x31


def iter_vox3_slabs(path) -> Iterator[np.ndarray]:
    """Yield (ny, nx) boolean slabs in z order without loading the volume.

    The first yielded value is the (nx, ny, nz) dimension triple; slabs
    follow. Streaming consumers fold the slabs one at a time. No read asks
    for more than ``_PIECE`` characters, so a header that declares more
    than the input holds costs no memory, on a pipe as on a regular file.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first = fh.readline()
        if not first.endswith("\n"):
            raise ParseError("missing newline after header", 1)
        nx, ny, nz = _parse_header(first[:-1])
        yield (nx, ny, nz)
        stride = nx + 1  # a row and its newline
        want = ny * stride
        lineno = 1
        for z in range(nz):
            if z > 0:
                sep = fh.readline()
                lineno += 1
                if sep != "\n":
                    raise ParseError("expected blank line between slabs", lineno)
            block = _read(fh, want)
            rows = len(block) // stride
            codes = np.frombuffer(block.encode("ascii", "replace"), dtype=np.uint8)
            codes = codes[: rows * stride].reshape(rows, stride)
            # '0' | 1 == '1' | 1 == '1'; any other byte differs.
            good = (codes[:, nx] == 0x0A) & ((codes[:, :nx] | 1) == 0x31).all(axis=1)
            if rows < ny or not good.all():
                # Every row before the first bad one is well formed, so the
                # bad row starts at its slot; read it as a line and raise.
                y = int(np.argmin(good)) if not good.all() else rows
                raw = block[y * stride :]
                cut = raw.find("\n")
                raw = raw + fh.readline() if cut < 0 else raw[: cut + 1]
                lineno += y + 1
                if not raw.endswith("\n"):
                    raise ParseError(
                        "unexpected end of file inside slab"
                        if raw == ""
                        else "missing trailing newline",
                        lineno,
                    )
                _parse_row(raw[:-1], nx, lineno)
            lineno += ny
            yield codes[:, :nx] == 0x31
        # Only newlines may follow, read a piece at a time.
        while True:
            trailing = _read(fh, _PIECE)
            if trailing.strip("\n"):
                lineno += 1
                raise ParseError("trailing content after last slab", lineno)
            if len(trailing) < _PIECE:
                break


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
            left = st.st_size - len(fh.readline())
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
