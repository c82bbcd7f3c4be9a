"""File formats and the command-line interface."""

import contextlib
import hashlib
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from digitopo import (
    Adjacency,
    Image2D,
    ParseError,
    Volume3D,
    cli_dispatch,
    find_pathologies_2d,
    find_pathologies_3d,
    gen_block_2d,
    gen_block_3d,
    gen_fat_blob_3d,
    gen_fat_polyomino_2d,
    gen_frame,
    gen_holey_polyomino_2d,
    gen_noisy_image_2d,
    gen_noisy_volume_3d,
    gen_shell,
    iter_vox3_slabs,
    read_pbm,
    read_vox3,
    write_pbm,
    write_pbm_p4,
    write_vox3,
)
from digitopo import cli, grid, label_components_2d, label_components_3d, vox3
from gridtext import NONCONVERGENT_SLABS, REPAIR_CYCLE, image, volume

BLOB = image(
    """
    00000000
    00111100
    01111100
    01110000
    00110000
    00111000
    00111000
    00000000
    """
)

STAIRCASE = image(
    """
    00000000
    01100000
    01110000
    00111000
    00011100
    00001110
    00000110
    00000000
    """
)


# A vox3 header that declares 10^15 voxels, in a 26-byte file.
HUGE_VOX3 = b"vox3 100000 100000 100000\n"


@contextlib.contextmanager
def pipe_holding(data: bytes):
    """A path naming the read end of a pipe that a thread fills with
    ``data``, of any size, then ends; the input has no size, unlike a
    regular file."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    r, w = os.pipe()

    def feed():
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(w, view) :]
        except BrokenPipeError:  # the reader stopped early
            pass
        finally:
            os.close(w)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join(timeout=60)
    assert not writer.is_alive()


# ---------------------------------------------------------------------------
# PBM


class TestPbm:
    def test_p1_round_trip(self, tmp_path):
        path = tmp_path / "a.pbm"
        write_pbm(BLOB, path)
        back = read_pbm(path)
        assert np.array_equal(back.cells, BLOB.cells)

    def test_p4_round_trip(self, tmp_path):
        # Width 8 exercises exact byte fit; width 13 exercises pad bits.
        for img in (BLOB, gen_noisy_image_2d(1, width=13, height=5)):
            path = tmp_path / "b.pbm"
            write_pbm_p4(img, path)
            back = read_pbm(path)
            assert np.array_equal(back.cells, img.cells)

    def test_p1_p4_same_occupancy(self, tmp_path):
        img = gen_noisy_image_2d(2, width=21, height=9)
        a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
        write_pbm(img, a)
        write_pbm_p4(img, b)
        assert np.array_equal(read_pbm(a).cells, read_pbm(b).cells)

    def test_p1_whitespace_and_comments(self, tmp_path):
        path = tmp_path / "c.pbm"
        path.write_bytes(b"P1\n# a comment\n 3 # trailing\n2\n1 0 1\n0 1 0\n")
        img = read_pbm(path)
        assert (img.width, img.height) == (3, 2)
        assert img.cells.tolist() == [[True, False, True], [False, True, False]]

    def test_p1_packed_digits(self, tmp_path):
        path = tmp_path / "d.pbm"
        path.write_bytes(b"P1\n2 2\n10\n01\n")
        assert read_pbm(path).cells.tolist() == [[True, False], [False, True]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.pbm"
        path.write_bytes(b"P5\n2 2\nxxxx")
        with pytest.raises(ParseError, match="line 1"):
            read_pbm(path)

    def test_bad_dimensions(self, tmp_path):
        path = tmp_path / "f.pbm"
        path.write_bytes(b"P1\n0 3\n")
        with pytest.raises(ParseError):
            read_pbm(path)
        path.write_bytes(b"P1\nfoo 3\n111\n")
        with pytest.raises(ParseError):
            read_pbm(path)

    def test_truncated_p1_body(self, tmp_path):
        # The line named is the body's last line, with or without a final
        # newline.
        path = tmp_path / "g.pbm"
        for data in (b"P1\n3 2\n101\n", b"P1\n3 2\n101"):
            path.write_bytes(data)
            with pytest.raises(ParseError) as err:
                read_pbm(path)
            assert str(err.value) == "line 3: bitmap truncated: expected 6 bits, found 3"

    def test_bad_p1_character(self, tmp_path):
        path = tmp_path / "h.pbm"
        path.write_bytes(b"P1\n2 2\n10\n21\n")
        with pytest.raises(ParseError, match="line 4"):
            read_pbm(path)

    def test_p1_junk_after_the_completing_line_is_ignored(self, tmp_path):
        path = tmp_path / "j.pbm"
        path.write_bytes(b"P1\n2 2\n10\n01\njunk \x80\n")
        assert read_pbm(path).cells.tolist() == [[True, False], [False, True]]

    def test_p1_junk_on_the_completing_line_raises(self, tmp_path):
        path = tmp_path / "k.pbm"
        path.write_bytes(b"P1\n2 2\n10\n01 x1\n")
        with pytest.raises(ParseError) as err:
            read_pbm(path)
        assert str(err.value) == "line 4: unexpected character b'x' in bitmap"

    def test_p1_junk_after_a_line_opening_last_bit_raises(self, tmp_path):
        # The last needed bit opens its line: the scan for bad bytes must
        # still reach the end of that line.
        path = tmp_path / "k.pbm"
        path.write_bytes(b"P1\n2 2\n101\n1 x\n")
        with pytest.raises(ParseError) as err:
            read_pbm(path)
        assert str(err.value) == "line 4: unexpected character b'x' in bitmap"

    def test_truncated_p4_body(self, tmp_path):
        path = tmp_path / "i.pbm"
        path.write_bytes(b"P4\n16 4\n\x00\x00")
        with pytest.raises(ParseError, match="truncated"):
            read_pbm(path)

    def test_p4_header_ending_in_a_comment_exits_1(self, capsys, tmp_path):
        # The comment runs to the newline, so the byte after the header is
        # the body's first, not the one whitespace byte that must end it.
        path = tmp_path / "i.pbm"
        path.write_bytes(b"P4\n1 1#c\n\x80")
        assert cli_dispatch(["holes", str(path)]) == 1
        assert capsys.readouterr().err == (
            "digitopo: error: line 2: P4 header must end with whitespace\n"
        )


# ---------------------------------------------------------------------------
# vox3


class TestVox3:
    def test_frame_round_trip(self, tmp_path):
        vol = volume("111\n101\n111")
        path = tmp_path / "a.vox3"
        write_vox3(vol, path)
        back = read_vox3(path)
        assert (back.nx, back.ny, back.nz) == (3, 3, 1)
        assert np.array_equal(back.cells, vol.cells)

    def test_all_zeros_round_trip(self, tmp_path):
        vol = Volume3D(2, 3, 2, np.zeros((2, 3, 2), dtype=bool))
        path = tmp_path / "b.vox3"
        write_vox3(vol, path)
        assert np.array_equal(read_vox3(path).cells, vol.cells)

    def test_noisy_round_trip(self, tmp_path):
        vol = gen_noisy_volume_3d(5)
        path = tmp_path / "c.vox3"
        write_vox3(vol, path)
        assert np.array_equal(read_vox3(path).cells, vol.cells)

    def test_write_read_write_stable(self, tmp_path):
        vol = gen_frame(2)
        a, b = tmp_path / "a.vox3", tmp_path / "b.vox3"
        write_vox3(vol, a)
        write_vox3(read_vox3(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_iter_yields_dims_then_slabs(self, tmp_path):
        vol = volume("10\n01", "11\n00")
        path = tmp_path / "d.vox3"
        write_vox3(vol, path)
        it = iter_vox3_slabs(path)
        assert next(it) == (2, 2, 2)
        slabs = list(it)
        assert len(slabs) == 2
        assert np.array_equal(np.stack(slabs), vol.cells)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "e.vox3"
        path.write_bytes(b"vox4 2 2 1\n10\n01\n")
        with pytest.raises(ParseError, match="line 1"):
            read_vox3(path)

    def test_a_header_of_no_cell(self, tmp_path):
        path = tmp_path / "z.vox3"
        path.write_bytes(b"vox3 2 0 1\n")
        with pytest.raises(ParseError, match="^line 1: dimensions must be positive, got 2 0 1$"):
            read_vox3(path)

    def test_body_too_short(self, tmp_path):
        path = tmp_path / "f.vox3"
        path.write_bytes(b"vox3 2 2 2\n10\n01\n\n10\n")
        with pytest.raises(ParseError):
            read_vox3(path)

    def test_missing_blank_separator(self, tmp_path):
        path = tmp_path / "g.vox3"
        path.write_bytes(b"vox3 2 2 2\n10\n01\n10\n01\n")
        with pytest.raises(ParseError):
            read_vox3(path)

    def test_wrong_row_length(self, tmp_path):
        path = tmp_path / "h.vox3"
        path.write_bytes(b"vox3 2 2 1\n100\n01\n")
        with pytest.raises(ParseError, match="line 2"):
            read_vox3(path)

    def test_bad_character(self, tmp_path):
        path = tmp_path / "i.vox3"
        path.write_bytes(b"vox3 2 2 1\n10\n0x\n")
        with pytest.raises(ParseError, match="line 3"):
            read_vox3(path)

    def test_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "j.vox3"
        path.write_bytes(b"vox3 2 2 1\n10\n01")
        with pytest.raises(ParseError):
            read_vox3(path)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_line_ends_parse(self, tmp_path, newline):
        path = tmp_path / "l.vox3"
        text = b"vox3 2 2 2\n10\n01\n\n11\n00\n"
        path.write_bytes(text.replace(b"\n", newline))
        assert np.array_equal(read_vox3(path).cells, volume("10\n01", "11\n00").cells)

    def test_non_ascii_byte_is_reported_as_replacement_character(self, tmp_path):
        path = tmp_path / "m.vox3"
        path.write_bytes(b"vox3 3 1 1\n1\x800\n")
        with pytest.raises(ParseError) as err:
            read_vox3(path)
        assert str(err.value) == "line 2: invalid character '\ufffd' at column 2"

    def test_missing_trailing_newline_wins_over_row_length(self, tmp_path):
        path = tmp_path / "n.vox3"
        path.write_bytes(b"vox3 2 2 1\n10\n011")
        with pytest.raises(ParseError) as err:
            read_vox3(path)
        assert str(err.value) == "line 3: missing trailing newline"

    def test_trailing_content(self, tmp_path):
        path = tmp_path / "k.vox3"
        path.write_bytes(b"vox3 2 2 1\n10\n01\n\n11\n")
        with pytest.raises(ParseError):
            read_vox3(path)

    def test_a_header_larger_than_the_file_allocates_nothing(self, tmp_path):
        # 10^15 declared voxels in a 26-byte file: the volume is refused
        # before it is allocated, and the slab reader reads no more than
        # the file holds.
        path = tmp_path / "big.vox3"
        path.write_bytes(HUGE_VOX3)
        with pytest.raises(ParseError) as err:
            read_vox3(path)
        assert str(err.value) == (
            "line 1: a 100000x100000x100000 volume needs at least 1000010000099999"
            " bytes after the header, the file has 0"
        )
        it = iter_vox3_slabs(path)
        assert next(it) == (100000, 100000, 100000)
        with pytest.raises(ParseError, match="line 2: unexpected end of file inside slab"):
            next(it)

    def test_a_header_on_a_pipe_allocates_nothing(self):
        # A pipe has no size to check, so the volume is allocated only
        # once its slabs have parsed, and the body is read in pieces.
        with pipe_holding(HUGE_VOX3) as path:
            with pytest.raises(ParseError) as err:
                read_vox3(path)
        assert str(err.value) == "line 2: unexpected end of file inside slab"
        with pipe_holding(HUGE_VOX3) as path:
            it = iter_vox3_slabs(path)
            assert next(it) == (100000, 100000, 100000)
            with pytest.raises(ParseError, match="line 2: unexpected end of file inside slab"):
                next(it)

    @pytest.mark.parametrize("on_pipe", [False, True])
    def test_newlines_after_the_last_slab_are_read_in_pieces(self, tmp_path, on_pipe):
        # 20 MiB of newlines after a 2x2x1 volume, read in pieces of
        # vox3._PIECE characters, cost a few MiB, not twice their size.
        text = b"vox3 2 2 1\n10\n01\n" + b"\n" * (20 << 20)
        path = tmp_path / "tail.vox3"
        path.write_bytes(text)
        with pipe_holding(text) if on_pipe else contextlib.nullcontext(path) as source:
            tracemalloc.start()
            try:
                vol = read_vox3(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert vol.cells.tolist() == [[[True, False], [False, True]]]
        assert peak < 8 << 20

    @pytest.mark.parametrize("on_pipe", [False, True])
    @pytest.mark.parametrize(
        "text, err",
        [
            (b"vox3 2 2 2\n10\n01\n", "line 4: expected blank line between slabs"),
            (b"vox3 2 2 2\n10\n0", "line 3: missing trailing newline"),
            (b"vox3 2 2 2", "line 1: header longer than 1048576 characters"),
        ],
        ids=["separator", "row", "header"],
    )
    def test_a_line_without_its_newline_is_read_in_pieces(self, tmp_path, on_pipe, text, err):
        # 40 MiB with no newline, where a separator, a row or the header
        # runs on, cost a few MiB: no read asks for the whole line.
        text += b"0" * (40 << 20)
        path = tmp_path / "long.vox3"
        path.write_bytes(text)
        with pipe_holding(text) if on_pipe else contextlib.nullcontext(path) as source:
            tracemalloc.start()
            try:
                with pytest.raises(ParseError) as got:
                    read_vox3(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert str(got.value) == err
        assert peak < 8 << 20

    @pytest.mark.parametrize("piece", [3, 1 << 20])
    def test_a_long_row_keeps_its_length(self, tmp_path, monkeypatch, piece):
        # The rest of a row past the block is counted a piece at a time.
        monkeypatch.setattr(vox3, "_PIECE", piece)
        path = tmp_path / "row.vox3"
        path.write_bytes(b"vox3 2 2 1\n10\n0" + b"1" * (3 << 20) + b"\n")
        with pytest.raises(ParseError) as err:
            read_vox3(path)
        assert str(err.value) == f"line 3: expected 2 characters, found {(3 << 20) + 1}"

    def test_a_header_line_is_bounded(self, tmp_path, monkeypatch):
        # A first line of vox3._HEADER_CHARS characters is read; one more
        # is refused at line 1, newline or not.
        monkeypatch.setattr(vox3, "_HEADER_CHARS", 12)
        path = tmp_path / "head.vox3"
        path.write_bytes(b"vox3 2 1 1  \n10\n")
        assert read_vox3(path) == volume("10")
        for text in (b"vox3 2 1 1   \n10\n", b"vox3 2 1 1   "):
            path.write_bytes(text)
            with pytest.raises(ParseError) as err:
                read_vox3(path)
            assert str(err.value) == "line 1: header longer than 12 characters"

    @pytest.mark.parametrize(
        "dims, err",
        [
            ("E 1 1", "line 2: expected 1000000000000000000000000 characters, found 1"),
            ("1 E 1", "line 3: unexpected end of file inside slab"),
            ("1 1 E", "line 3: expected blank line between slabs"),
        ],
        ids=["nx", "ny", "nz"],
    )
    def test_a_dimension_past_numpy_shapes_is_a_parse_error(self, tmp_path, dims, err):
        # 10^24 rows or columns are never shaped into an array: the input
        # ends first, as in any short body.
        path = tmp_path / "wide.vox3"
        path.write_bytes(f"vox3 {dims.replace('E', str(10**24))}\n1\n".encode())
        it = iter_vox3_slabs(path)
        next(it)
        with pytest.raises(ParseError) as got:
            list(it)
        assert str(got.value) == err

    @pytest.mark.parametrize("on_pipe", [False, True])
    def test_content_after_pieces_of_newlines_keeps_its_line(self, tmp_path, monkeypatch, on_pipe):
        # The first character other than a newline stops the read, in any
        # piece; the error names the line after the last slab's.
        monkeypatch.setattr(vox3, "_PIECE", 4)
        text = b"vox3 2 2 1\n10\n01\n" + b"\n" * 10 + b"1\n" + b"\n" * (1 << 20)
        path = tmp_path / "tail.vox3"
        path.write_bytes(text)
        with pipe_holding(text) if on_pipe else contextlib.nullcontext(path) as source:
            with pytest.raises(ParseError) as err:
                read_vox3(source)
        assert str(err.value) == "line 4: trailing content after last slab"

    @pytest.mark.parametrize(
        "text",
        [
            b"vox3 3 2 2\n101\n010\n\n111\n000\n",
            b"vox3 5 3 1\n10110\n01011\n11111\n",
            b"vox3 2 2 2\n10\n01\n\n10\n",  # too short
            b"vox3 2 2 2\n10\n01\n10\n01\n",  # no blank line
            b"vox3 2 2 1\n100\n01\n",  # a long row
            b"vox3 2 2 1\n10\n0x\n",  # a bad character
            b"vox3 2 2 1\n10\n01",  # no trailing newline
            b"vox3 2 2 1\n10\n01\n\n11\n",  # trailing content
            b"vox3 2 2 2\r\n10\r\n01\r\n\r\n11\r\n00\r\n",
        ],
    )
    @pytest.mark.parametrize("piece", [1, 2, 5, 1 << 20])
    def test_a_pipe_reads_as_the_file_does(self, tmp_path, monkeypatch, text, piece):
        # Pieces of any size give the slabs, or the error, that one read
        # per slab of the same bytes in a regular file gives; read_vox3
        # on a pipe has no size check, so a short body gets the slab
        # reader's message.
        path = tmp_path / "p.vox3"
        path.write_bytes(text)

        def slabs(path):
            it = iter_vox3_slabs(path)
            try:
                return [next(it), *(slab.tolist() for slab in it)]
            except ParseError as err:
                return str(err)

        want = slabs(path)
        want_volume = None if isinstance(want, str) else read_vox3(path)
        monkeypatch.setattr(vox3, "_PIECE", piece)
        assert slabs(path) == want
        with pipe_holding(text) as pipe:
            assert slabs(pipe) == want
        with pipe_holding(text) as pipe:
            try:
                got = read_vox3(pipe)
            except ParseError as err:
                got = str(err)
        assert got == (want if want_volume is None else want_volume)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_the_size_bound_is_the_shortest_valid_body(self, tmp_path, newline):
        # A valid file with LF line ends is exactly at the bound, and it
        # parses with every line end; one byte short of it is refused.
        path = tmp_path / "s.vox3"
        text = b"vox3 3 2 2\n101\n010\n\n111\n000\n"
        path.write_bytes(text.replace(b"\n", newline))
        assert read_vox3(path) == volume("101\n010", "111\n000")
        path.write_bytes(text[:-1])
        with pytest.raises(ParseError) as err:
            read_vox3(path)
        assert str(err.value).endswith("needs at least 17 bytes after the header, the file has 16")


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *args):
    code = cli_dispatch(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def _untimed(out: str) -> str:
    """Human stdout without its first line, which holds the time; JSON
    stdout as it is."""
    return out.partition("\n")[2] if out.startswith("# ") else out


class TestCliReports:
    def test_holes_on_worked_blob(self, capsys, tmp_path):
        path = tmp_path / "blob.pbm"
        write_pbm(BLOB, path)
        code, out = run_cli(capsys, "holes", "--json", str(path))
        assert code == 0
        rep = json.loads(out)
        assert rep["schema_version"] == 1
        assert rep["total_holes"] == 0
        comp = rep["components"][0]
        assert comp["histogram"]["cp2"] == 8
        assert comp["histogram"]["cp4"] == 4
        assert comp["method"] == "formula"
        assert rep["input"].startswith("sha256:")

    def test_genus_on_frame(self, capsys, tmp_path):
        path = tmp_path / "frame.vox3"
        write_vox3(gen_frame(1), path)
        code, out = run_cli(capsys, "genus", "--json", str(path))
        assert code == 0
        rep = json.loads(out)
        assert rep["genus"] == 1
        assert rep["euler_characteristic"] == 0
        assert rep["histogram"] == {
            "irregular": 0, "m3": 8, "m4": 16, "m5": 8, "m6": 0, "total": 32,
        }

    def test_homology_on_shell(self, capsys, tmp_path):
        path = tmp_path / "shell.vox3"
        write_vox3(gen_shell((3, 3, 3), (1, 1, 1)), path)
        code, out = run_cli(capsys, "homology", "--json", str(path))
        assert code == 0
        rep = json.loads(out)
        assert rep["components"][0]["betti"] == [1, 0, 1, 0]
        assert len(rep["components"][0]["surfaces"]) == 2

    def test_components_on_a_volume_counts_26_components(self, capsys, tmp_path):
        # (0,0,0) and (1,0,1) share an edge: one 26-component, two
        # 6-components. (3,1,1) stands alone.
        path = tmp_path / "v.vox3"
        write_vox3(volume("1000\n0000", "0100\n0001"), path)
        code, out = run_cli(capsys, "components", "--json", str(path))
        assert code == 0
        rep = json.loads(out)
        assert rep["adjacency"] == "indirect-26"
        assert rep["count"] == 2
        assert rep["components"] == [
            {"component": 1, "cells": 2},
            {"component": 2, "cells": 1},
        ]

    def test_components_adjacency(self, capsys, tmp_path):
        path = tmp_path / "two.pbm"
        write_pbm(image("10\n01"), path)
        code, out = run_cli(capsys, "components", "--json", str(path))
        assert code == 0
        rep = json.loads(out)
        assert rep["count"] == 2
        assert rep["adjacency"] == "direct-4"

    def test_components_paints_no_labels(self, capsys, monkeypatch, tmp_path):
        # The count and sizes come from the labeller's runs alone.
        grids = [volume("1000\n0000", "0100\n0001"), image("1101\n0100\n0011")]
        want = [
            label_components_3d(grids[0], Adjacency.INDIRECT_3D),
            label_components_2d(grids[1]),
        ]

        def fail(*_):
            raise AssertionError("components painted labels")

        monkeypatch.setattr(grid, "_label", fail)
        for g, labeling, path in zip(grids, want, (tmp_path / "v.vox3", tmp_path / "i.pbm")):
            (write_vox3 if path.suffix == ".vox3" else write_pbm)(g, path)
            code, out = run_cli(capsys, "components", "--json", str(path))
            assert code == 0
            rep = json.loads(out)
            assert rep["count"] == labeling.count
            assert [c["cells"] for c in rep["components"]] == labeling.sizes[1:].tolist()

    def test_python_m_digitopo_runs_the_command_line(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "v.vox3"
        path.write_bytes(b"vox3 2 2 1\n11\n11\n")
        argv = ["components", "--json", str(path)]
        code, want = run_cli(capsys, *argv)
        assert code == 0
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run(
            [sys.executable, "-m", "digitopo", *argv], capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert (run.returncode, run.stderr, run.stdout) == (0, "", want)
        # The same module in this process, as ``-m`` runs it.
        monkeypatch.setattr(sys, "argv", ["digitopo", *argv])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("digitopo", run_name="__main__")
        assert done.value.code == 0
        assert capsys.readouterr().out == want

    def test_json_byte_identical_across_runs(self, capsys, tmp_path):
        path = tmp_path / "n.pbm"
        write_pbm(gen_noisy_image_2d(3), path)
        _, first = run_cli(capsys, "holes", "--json", str(path))
        _, second = run_cli(capsys, "holes", "--json", str(path))
        assert first == second

    def test_streaming_genus_identical(self, capsys, tmp_path):
        path = tmp_path / "frame.vox3"
        write_vox3(gen_frame(3, ring_width=2), path)
        _, batch = run_cli(capsys, "genus", "--json", "--no-repair", str(path))
        _, streamed = run_cli(
            capsys, "genus", "--json", "--no-repair", "--streaming", str(path)
        )
        assert batch == streamed
        assert json.loads(batch)["genus"] == 3

    def test_human_mode_has_timestamp_header(self, capsys, tmp_path):
        path = tmp_path / "frame.vox3"
        write_vox3(gen_frame(1), path)
        code, out = run_cli(capsys, "genus", str(path))
        assert code == 0
        assert out.startswith("# ")
        assert "digitopo genus" in out.splitlines()[0]
        assert "genus: 1" in out

    def test_json_mode_has_no_timestamp(self, capsys, tmp_path):
        path = tmp_path / "frame.vox3"
        write_vox3(gen_frame(1), path)
        _, out = run_cli(capsys, "genus", "--json", str(path))
        json.loads(out)  # pure JSON, no leading comment line
        assert not out.startswith("#")


class TestCliRepairValidate:
    def test_repair_cleans_the_whole_grid_holes_each_component(self, capsys, tmp_path):
        # `holes` cleans each component alone and counts at once: on its
        # own canvas the lone pixel at (0, 0) is a speckle, and fixing the
        # diagonal window of the rest adds (0, 1), which leaves (1, 2) a
        # one-pixel hole. `repair` cleans the image as one grid: (0, 0)
        # touches the rest diagonally and stays, the fix is the same, and
        # `holes` on the output cleans again and fills the one-pixel hole.
        path = tmp_path / "in.pbm"
        write_pbm(image("101\n011\n101\n111"), path)
        _, out = run_cli(capsys, "holes", "--json", str(path))
        assert json.loads(out)["total_holes"] == 1
        repaired = tmp_path / "out.pbm"
        run_cli(capsys, "repair", str(path), "-o", str(repaired))
        for flags in ((), ("--no-repair",)):
            _, out = run_cli(capsys, "holes", "--json", str(repaired), *flags)
            assert json.loads(out)["total_holes"] == 0

    def test_no_repair_still_deletes_speckles_and_fills_pixel_holes(self, capsys, tmp_path):
        # `--no-repair` skips the pathology repair only: the 2D speckle
        # scan still fills a one-pixel hole and deletes a lone pixel.
        filled = (
            '{"command":"holes","components":[{"area":25,"component":1,"histogram":'
            '{"boundary_total":16,"cp0":0,"cp1":0,"cp2":4,"cp3":12,"cp4":0,"thin":0},'
            '"holes":0,"method":"formula","precondition_ok":true}],"input":"sha256:'
            'cbc7b325fb2d7573d9b67d78f61c04a42a5e43d6e0d1c93d06ab8a33c05060a4",'
            '"repair_actions":[{"op":"add","reason":"speckle","x":2,"y":2}],'
            '"schema_version":1,"total_holes":0}\n'
        )
        deleted = (
            '{"command":"holes","components":[],"input":"sha256:'
            '4b27344ec7524986ebaaff41983e258fdda048382154588334592cbf85878389",'
            '"repair_actions":[{"op":"delete","reason":"speckle","x":0,"y":0}],'
            '"schema_version":1,"total_holes":0}\n'
        )
        for grid, want in (
            (image("11111\n11111\n11011\n11111\n11111"), filled),
            (image("1"), deleted),
        ):
            path = tmp_path / "in.pbm"
            write_pbm(grid, path)
            assert run_cli(capsys, "holes", "--no-repair", "--json", str(path)) == (0, want)

    def test_repair_writes_clean_pbm(self, capsys, tmp_path):
        src = tmp_path / "noisy.pbm"
        dst = tmp_path / "clean.pbm"
        write_pbm(gen_noisy_image_2d(9), src)
        code, _ = run_cli(capsys, "repair", "--json", str(src), "-o", str(dst))
        assert code == 0
        assert find_pathologies_2d(read_pbm(dst)) == []

    def test_repair_writes_clean_vox3(self, capsys, tmp_path):
        src = tmp_path / "noisy.vox3"
        dst = tmp_path / "clean.vox3"
        write_vox3(gen_noisy_volume_3d(4), src)
        code, _ = run_cli(capsys, "repair", "--json", str(src), "-o", str(dst))
        assert code == 0
        assert find_pathologies_3d(read_vox3(dst)) == []

    def test_validate_agreement(self, capsys, tmp_path):
        for name, writer, grid in (
            ("s.pbm", write_pbm, STAIRCASE),
            ("n.pbm", write_pbm, gen_noisy_image_2d(7)),
            ("f.vox3", write_vox3, gen_frame(2)),
            ("v.vox3", write_vox3, gen_noisy_volume_3d(11)),
        ):
            path = tmp_path / name
            writer(grid, path)
            code, _ = run_cli(capsys, "validate", str(path))
            assert code == 0, name



def _raw_images(seed: int, count: int):
    """Bernoulli images (sides 1-39, density 0-1, Kronecker scale 1-3)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        h, w, scale = (int(n) for n in rng.integers(1, [40, 40, 4]))
        coarse = rng.random((h, w)) < rng.random()
        cells = np.kron(coarse, np.ones((scale, scale), dtype=bool))
        yield Image2D(cells.shape[1], cells.shape[0], cells)


class TestCliPinnedOutput:
    """The 2D commands' ``--json`` output on 30 raw images, half of them
    P4, pinned by digest: any changed byte of stdout, of an exit code or
    of a ``repair -o`` file fails here. The human output is pinned too,
    without its timestamp line. Run from the images' directory, so
    ``repair -o`` echoes a fixed relative path."""

    DIGESTS = {
        "holes": (
            "562e282ee65ef1df2efa527fae7968c9"
            "24c1a527303463f9eb2944b188d38600"
        ),
        "holes --no-repair": (
            "428016ae2e153c962b9043a0c30ca4a7"
            "82456438db4eb677756347d166afe152"
        ),
        "validate": (
            "7ab55fba0def4f244c2a10874ffc6826"
            "d6711e89fcf1954d26f0a7186d299b0a"
        ),
        "validate --no-repair": (
            "cee359966906aa619b7ba90be112092f"
            "0cceec896730dfb8f530148ca7208899"
        ),
        "components": (
            "eac3e6750e32032dd91dbc4247765fd0"
            "84e4d396171c91580f5f998bb2523f44"
        ),
        "repair -o out.pbm": (
            "e13815fe2c3e13e6bb98a4b5367efd90"
            "6d29aaa65465f2f2dd6fa1f21d7b4252"
        ),
    }

    # The same commands' human stdout, its timestamp line dropped.
    HUMAN_DIGESTS = {
        "holes": (
            "254f8471893355056a92351d098bef1f"
            "df176c345e421cb46b40a8719653ec53"
        ),
        "holes --no-repair": (
            "6ad1702ab11270de1824679fbbc6cd4d"
            "e196b4e03e30d7bc61a850d1ffa8c4cf"
        ),
        "validate": (
            "1a4300f7372d17d1fed196ed511c296d"
            "685c916170103cc154d59ffe8851a544"
        ),
        "validate --no-repair": (
            "1d0dae867eb5d8abd691347e29d52525"
            "d374747360f4fcf8a9b364ed18ff9542"
        ),
        "components": (
            "3ccb67b392612db9b635bfa3183a4e09"
            "9050dd669d9afef2659a0e9859ad76c9"
        ),
        "repair -o out.pbm": (
            "7af2545382472d6cfdc1038140476382"
            "6c7a322cd7bc7909b82e221839005ae8"
        ),
    }

    @staticmethod
    def digest(capsys, command: str, *mode: str) -> str:
        cmd, *flags = command.split()
        h = hashlib.sha256()
        for i, img in enumerate(_raw_images(seed=8, count=30)):
            name = f"raw{i}.pbm"
            (write_pbm_p4 if i % 2 else write_pbm)(img, name)
            code, out = run_cli(capsys, cmd, *mode, name, *flags)
            h.update(f"{code}\n{_untimed(out)}".encode())
            if cmd == "repair":
                h.update(open("out.pbm", "rb").read())
        return h.hexdigest()

    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_json_output_is_pinned(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert self.digest(capsys, command, "--json") == self.DIGESTS[command]

    @pytest.mark.parametrize("command", list(HUMAN_DIGESTS))
    def test_human_output_is_pinned(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert self.digest(capsys, command) == self.HUMAN_DIGESTS[command]


def _raw_volumes(seed: int, count: int):
    """Bernoulli volumes (sides 1-12, density 0-1)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nz, ny, nx = (int(n) for n in rng.integers(1, 13, size=3))
        cells = rng.random((nz, ny, nx)) < rng.random()
        yield Volume3D(nx, ny, nz, cells)


class TestCliPinnedOutput3D:
    """The 3D commands' ``--json`` output on 20 raw volumes, then on one
    holding ``REPAIR_CYCLE`` beside a block (exit 3 with repair), and
    their human output, pinned by digest as ``TestCliPinnedOutput`` pins
    the 2D ones."""

    DIGESTS = {
        "homology": (
            "8bc336c556f4483f094dc91a77331c5a"
            "5673344cb9c83dd183901d7e10628d01"
        ),
        "homology --no-repair": (
            "260c952725bed4f9a93e97af9865c6f8"
            "3b61dc5cd5868dc4b46a68374d93d2eb"
        ),
        "homology --no-fallback-oracle": (
            "8bc336c556f4483f094dc91a77331c5a"
            "5673344cb9c83dd183901d7e10628d01"
        ),
        "validate": (
            "aec5900a9fd465c061ce0723b0407142"
            "a31130b4dc0d97801c73622c06c26e6e"
        ),
        "validate --no-repair": (
            "39dc4ec80b223198a3003a84e84d764b"
            "b973e82380223fcfc64e43cd182af908"
        ),
    }

    # The same commands' human stdout, its timestamp line dropped.
    HUMAN_DIGESTS = {
        "homology": (
            "0e2c2eb897f84e0d4de163f606726b53"
            "e6f8d70177e5eee240f70524e740d911"
        ),
        "homology --no-repair": (
            "2f1a7e769952b0f756c3b7f42de7ff25"
            "0ace80b4fdd23bada8e5ca9e5b5af638"
        ),
        "homology --no-fallback-oracle": (
            "0e2c2eb897f84e0d4de163f606726b53"
            "e6f8d70177e5eee240f70524e740d911"
        ),
        "validate": (
            "5b2de673ce8a5e13362e5ad38559d774"
            "4cbba376af31a41e4a37f68d57126aa7"
        ),
        "validate --no-repair": (
            "e6fb20366810e54fb1582f31dbc3b214"
            "a1ca732fd73d16650c68276f4b031294"
        ),
    }

    @staticmethod
    def digest(capsys, command: str, *mode: str) -> str:
        cmd, *flags = command.split()
        cells = np.zeros((6, 5, 9), dtype=bool)
        cells[1:5, 1:4, 1:5] = REPAIR_CYCLE
        cells[1:4, 1:4, 6:8] = True
        vols = [*_raw_volumes(seed=9, count=20), Volume3D(9, 5, 6, cells)]
        h = hashlib.sha256()
        for i, vol in enumerate(vols):
            name = f"raw{i}.vox3"
            write_vox3(vol, name)
            code, out = run_cli(capsys, cmd, *mode, name, *flags)
            h.update(f"{code}\n{_untimed(out)}".encode())
        return h.hexdigest()

    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_json_output_is_pinned(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert self.digest(capsys, command, "--json") == self.DIGESTS[command]

    @pytest.mark.parametrize("command", list(HUMAN_DIGESTS))
    def test_human_output_is_pinned(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert self.digest(capsys, command) == self.HUMAN_DIGESTS[command]


# One run of every gen shape: its flags, and the library call that they
# must match. Block sizes left unset default to 8.
GEN_RUNS = [
    ("block2d", ["--width", "5", "--height", "3"], lambda: gen_block_2d(5, 3)),
    ("block2d", [], lambda: gen_block_2d(8, 8)),
    ("block3d", ["--nx", "2", "--nz", "4"], lambda: gen_block_3d(2, 8, 4)),
    ("frame", ["--holes", "2", "--ring-width", "2", "--thickness", "3"],
     lambda: gen_frame(2, 2, 3)),
    ("shell", ["--outer", "6,5,4", "--cavity", "2,1,2"], lambda: gen_shell((6, 5, 4), (2, 1, 2))),
    ("poly2d", ["--seed", "3", "--area", "64", "--min-width", "3"],
     lambda: gen_fat_polyomino_2d(3, 64, 3)),
    ("holey2d", ["--seed", "4", "--area", "128", "--holes", "2"],
     lambda: gen_holey_polyomino_2d(4, 128, 2, 2)),
    ("blob3d", ["--seed", "2", "--volume", "64"], lambda: gen_fat_blob_3d(2, 64, 2)),
    ("noisy2d", ["--seed", "5", "--width", "9", "--rate", "0.2"],
     lambda: gen_noisy_image_2d(5, width=9, rate=0.2)),
    ("noisy3d", ["--seed", "6", "--nz", "5", "--rate", "0.1"],
     lambda: gen_noisy_volume_3d(6, nz=5, rate=0.1)),
]


class TestCliGen:
    def test_every_shape_is_run(self):
        assert {shape for shape, _, _ in GEN_RUNS} == set(cli._GEN)

    @pytest.mark.parametrize("shape, flags, make", GEN_RUNS)
    def test_gen_writes_its_generators_bytes(self, capsys, tmp_path, shape, flags, make):
        out = make()
        ref, path = tmp_path / "ref", tmp_path / "out"
        if isinstance(out, Image2D):
            write_pbm(out, ref)
            dims, cells = f"{out.width}x{out.height}", out.area
        else:
            write_vox3(out, ref)
            dims, cells = f"{out.nx}x{out.ny}x{out.nz}", out.voxel_count
        code, text = run_cli(capsys, "gen", "--json", shape, str(path), *flags)
        assert code == 0
        assert path.read_bytes() == ref.read_bytes()
        rep = json.loads(text)
        assert (rep["shape"], rep["path"]) == (shape, str(path))
        assert (rep["dimensions"], rep["occupied_cells"]) == (dims, cells)

    def test_gen_frame_then_genus(self, capsys, tmp_path):
        path = tmp_path / "g.vox3"
        code, _ = run_cli(capsys, "gen", "frame", str(path), "--holes", "2")
        assert code == 0
        code, out = run_cli(capsys, "genus", "--json", str(path))
        assert code == 0
        assert json.loads(out)["genus"] == 2

    def test_gen_holey_then_holes(self, capsys, tmp_path):
        path = tmp_path / "h.pbm"
        code, _ = run_cli(capsys, "gen", "holey2d", str(path), "--seed", "4")
        assert code == 0
        code, out = run_cli(capsys, "holes", "--json", str(path))
        assert code == 0
        assert json.loads(out)["total_holes"] == 1

    def test_gen_seed_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
        run_cli(capsys, "gen", "noisy2d", str(a), "--seed", "12")
        run_cli(capsys, "gen", "noisy2d", str(b), "--seed", "12")
        assert a.read_bytes() == b.read_bytes()

    def test_gen_shell_sizes(self, capsys, tmp_path):
        path = tmp_path / "s.vox3"
        code, _ = run_cli(
            capsys, "gen", "shell", str(path),
            "--outer", "4,4,4", "--cavity", "2,2,2",
        )
        assert code == 0
        vol = read_vox3(path)
        assert vol.voxel_count == 64 - 8


class TestCliBench:
    def test_batch_rows(self, capsys):
        code, out = run_cli(capsys, "bench", "--json", "--ring-widths", "2,4")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["ring_width"] for r in rows] == [2, 4]
        for r in rows:
            assert r["mode"] == "batch"
            assert r["genus"] == 1
            assert r["object_voxels"] == 8 * r["ring_width"] ** 3
            assert r["time_us"] >= 0

    def test_streaming_rows_track_memory(self, capsys):
        code, out = run_cli(
            capsys, "bench", "--json", "--streaming", "--ring-widths", "2,4"
        )
        assert code == 0
        for r in json.loads(out)["rows"]:
            assert r["mode"] == "streaming"
            assert r["held_bytes_peak"] <= 3 * r["slab_bytes"]


class TestCliExitCodes:
    def test_usage_errors(self, capsys, tmp_path):
        assert run_cli(capsys, "frobnicate")[0] == 64
        assert run_cli(capsys, "holes")[0] == 64
        assert run_cli(capsys, "holes", "--bogus-flag", "x.pbm")[0] == 64
        path = tmp_path / "f.vox3"
        write_vox3(gen_frame(1), path)
        # --streaming outside genus/bench, and genus --streaming without
        # --no-repair, are both usage errors.
        for cmd in ("components", "holes", "homology", "repair", "validate"):
            assert run_cli(capsys, cmd, "--streaming", str(path))[0] == 64, cmd
        assert run_cli(capsys, "gen", "frame", "--streaming", str(tmp_path / "g.vox3"))[0] == 64
        assert not (tmp_path / "g.vox3").exists()
        assert run_cli(capsys, "genus", "--streaming", str(path))[0] == 64
        # --no-repair and --fallback-oracle exist only on the analysis
        # commands that read them (validate and genus take no
        # --fallback-oracle), and --seed only on gen.
        unknown = [
            (cmd, flag)
            for cmd in ("components", "repair")
            for flag in ("--no-repair", "--fallback-oracle", "--no-fallback-oracle", "--seed=1")
        ]
        unknown += [("validate", "--fallback-oracle"), ("validate", "--no-fallback-oracle")]
        unknown += [("genus", "--fallback-oracle"), ("genus", "--no-fallback-oracle")]
        unknown += [(cmd, "--seed=1") for cmd in ("holes", "genus", "homology", "validate")]
        for cmd, flag in unknown:
            assert cli_dispatch([cmd, flag, str(path)]) == 64, (cmd, flag)
            err = capsys.readouterr().err
            assert f"digitopo: error: unrecognized arguments: {flag}\n" in err
        for flag in ("--no-repair", "--no-fallback-oracle"):
            assert run_cli(capsys, "gen", "frame", flag, str(tmp_path / "g.vox3"))[0] == 64
            assert run_cli(capsys, "bench", flag, "--ring-widths", "2")[0] == 64
        assert not (tmp_path / "g.vox3").exists()

    def test_main_exits_with_the_code_of_its_run(self, capsys, tmp_path, monkeypatch):
        # The console script: ``main`` reads sys.argv and exits with the
        # code that ``cli_dispatch`` returns.
        path = tmp_path / "f.pbm"
        write_pbm(image("11\n11"), path)
        for argv, code in (
            (["components", "--json", str(path)], 0),
            (["components", "--bogus-flag", str(path)], 64),
        ):
            monkeypatch.setattr(sys, "argv", ["digitopo", *argv])
            with pytest.raises(SystemExit) as info:
                cli.main()
            assert info.value.code == code, argv
        captured = capsys.readouterr()
        assert json.loads(captured.out)["count"] == 1
        assert captured.err.endswith("digitopo: error: unrecognized arguments: --bogus-flag\n")

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_wrong_format_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "f.vox3"
        write_vox3(gen_frame(1), path)
        flat = tmp_path / "f.pbm"
        write_pbm(image("11\n11"), flat)
        for cmd, arg, kind in (
            ("holes", path, "2D PBM"),
            ("genus", flat, "vox3"),
            ("homology", flat, "vox3"),
        ):
            assert cli_dispatch([cmd, str(arg)]) == 1, cmd
            err = capsys.readouterr().err
            assert err == f"digitopo: error: {cmd} expects a {kind} input\n"

    def test_the_dimension_is_checked_before_any_cell_is_read(self, capsys, tmp_path):
        # Batch and streaming genus sniff the header alike; a PBM whose
        # body would not parse is rejected for its dimension all the same.
        good, bad = tmp_path / "f.pbm", tmp_path / "bad.pbm"
        write_pbm(image("11\n11"), good)
        bad.write_bytes(b"P1\n2 2\n1 x\n")
        for path in (good, bad):
            for flags in ([], ["--no-repair"], ["--streaming", "--no-repair"]):
                assert cli_dispatch(["genus", *flags, str(path)]) == 1, (path, flags)
                captured = capsys.readouterr()
                assert captured.err == "digitopo: error: genus expects a vox3 input\n"
                assert captured.out == ""

    def test_parser_is_built_once(self, capsys, tmp_path):
        path = tmp_path / "f.pbm"
        write_pbm(image("11\n11"), path)
        code, out = run_cli(capsys, "holes", "--json", str(path))
        assert code == 0 and out.startswith("{")
        code, out = run_cli(capsys, "holes", str(path))
        assert code == 0 and out.startswith("# ") and " digitopo holes\n" in out
        assert run_cli(capsys, "holes", "--bogus-flag", str(path))[0] == 64
        assert cli._build_parser() is cli._build_parser()

    def test_unrecognized_input_format(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"hello\n")
        assert cli_dispatch(["components", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "digitopo: error: line 1: unrecognized input format (want PBM P1/P4 or vox3)\n"
        )

    def test_bad_gen_and_bench_values(self, capsys, tmp_path):
        path = tmp_path / "s.vox3"
        assert cli_dispatch(["gen", "shell", str(path), "--outer", "5,5"]) == 1
        assert capsys.readouterr().err == "digitopo: error: expected x,y,z, got '5,5'\n"
        assert not path.exists()
        assert cli_dispatch(["bench", "--ring-widths", "2,x"]) == 64
        assert capsys.readouterr().err == "digitopo: error: bad --ring-widths\n"

    def test_bench_with_a_bad_frame_exits_1_in_both_modes(self, capsys):
        for flags in ([], ["--streaming"]):
            assert cli_dispatch(["bench", *flags, "--ring-widths", "2,0"]) == 1, flags
            captured = capsys.readouterr()
            assert captured.err == "digitopo: error: bad frame parameters\n", flags
            assert captured.out == ""

    def test_a_grid_too_large_to_allocate_exits_1(self, capsys, tmp_path):
        # A ring width of 10^8 asks numpy for a 79.9 PiB slab, which it
        # refuses before touching memory.
        path = tmp_path / "x.vox3"
        for argv in (
            ["gen", "frame", str(path), "--holes", "1", "--ring-width", "100000000"],
            ["bench", "--streaming", "--ring-widths", "100000000"],
        ):
            assert cli_dispatch(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("digitopo: error: "), argv
            assert captured.err.count("\n") == 1 and captured.out == "", argv
            assert not path.exists()

    def test_genus_of_an_empty_volume_exits_1(self, capsys, tmp_path):
        path = tmp_path / "empty.vox3"
        write_vox3(Volume3D(3, 4, 5), path)
        for flags in ([], ["--no-repair"], ["--streaming", "--no-repair"]):
            assert cli_dispatch(["genus", *flags, str(path)]) == 1, flags
            captured = capsys.readouterr()
            assert captured.err == (
                "digitopo: error: no digital surface: the histogram has no point\n"
            ), flags
            assert captured.out == ""

    def test_noise_rate_outside_unit_interval_exits_1(self, capsys, tmp_path):
        for shape in ("noisy2d", "noisy3d"):
            for rate in ("-0.1", "2", "nan", "inf"):
                path = tmp_path / f"{shape}.out"
                assert cli_dispatch(["gen", shape, str(path), "--rate", rate]) == 1, rate
                assert capsys.readouterr().err == "digitopo: error: bad noise parameters\n"
                assert not path.exists()

    def test_empty_polyomino_and_blob_exit_1(self, capsys, tmp_path):
        for shape, flag, error in (
            ("holey2d", "--area", "bad polyomino parameters"),
            ("blob3d", "--volume", "bad blob parameters"),
        ):
            path = tmp_path / f"{shape}.out"
            assert cli_dispatch(["gen", shape, str(path), flag, "0"]) == 1, shape
            assert capsys.readouterr().err == f"digitopo: error: {error}\n"
            assert not path.exists()

    def test_exit_code_follows_the_error_type(self, capsys, tmp_path):
        # Two raw volumes of TestCliPinnedOutput3D, left unrepaired. On the
        # first the formula refuses a surface, which exits 2 with the
        # fallback off; the oracle answers it. On the second the oracle
        # rejects the boundary too, which exits 1.
        vols = list(_raw_volumes(seed=9, count=7))
        refused, rejected = tmp_path / "refused.vox3", tmp_path / "rejected.vox3"
        write_vox3(vols[3], refused)
        write_vox3(vols[6], rejected)
        no_fallback = ["--no-repair", "--no-fallback-oracle"]
        for path, flags, code, err in (
            (refused, no_fallback, 2, "not a valid digital surface"),
            (refused, ["--no-repair"], 0, ""),
            (rejected, no_fallback, 2, "not a valid digital surface"),
            (rejected, ["--no-repair"], 1, "non-orientable or non-manifold boundary"),
        ):
            argv = ["homology", *flags, str(path)]
            assert cli_dispatch(argv) == code, argv
            assert capsys.readouterr().err == (err and f"digitopo: error: {err}\n"), argv

    def test_missing_file(self, capsys):
        assert run_cli(capsys, "holes", "/nonexistent/x.pbm")[0] == 1

    def test_precondition_failure_without_fallback(self, capsys, tmp_path):
        # One 4-component with a diagonal window, left unrepaired: only the
        # oracle may count it, so without the oracle the pipeline refuses.
        path = tmp_path / "diag.pbm"
        write_pbm(image("111\n101\n110"), path)
        code, _ = run_cli(
            capsys, "holes", "--no-repair", "--no-fallback-oracle", str(path)
        )
        assert code == 2
        code, out = run_cli(capsys, "holes", "--no-repair", "--json", str(path))
        assert code == 0
        comp = json.loads(out)["components"][0]
        assert comp["method"] == "oracle-fallback"
        assert comp["holes"] == 1

    def test_nonconvergence_exit(self, capsys, tmp_path):
        path = tmp_path / "osc.vox3"
        write_vox3(volume(*NONCONVERGENT_SLABS), path)
        assert run_cli(capsys, "repair", str(path))[0] == 3
        assert run_cli(capsys, "homology", str(path))[0] == 3

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["homology"], "line 1: a 100000x100000x100000 volume needs at least"),
            (["validate", "--json"], "line 1: a 100000x100000x100000 volume needs at least"),
            (["genus", "--streaming", "--no-repair"], "line 2: unexpected end of file"),
        ],
        ids=["homology", "validate", "genus-streaming"],
    )
    def test_a_header_larger_than_the_file_exits_1(self, capsys, tmp_path, argv, err):
        path = tmp_path / "big.vox3"
        path.write_bytes(HUGE_VOX3)
        assert cli_dispatch([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"digitopo: error: {err}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["homology"],
                "line 1: a 100000x100000x100000 volume needs at least 1000010000099999"
                " bytes after the header, the file has 0",
            ),
            (["genus", "--streaming", "--no-repair"], "line 2: unexpected end of file inside slab"),
        ],
        ids=["homology", "genus-streaming"],
    )
    def test_a_header_on_a_pipe_exits_1(self, capsys, argv, err):
        with pipe_holding(HUGE_VOX3) as path:
            assert cli_dispatch([*argv, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"digitopo: error: {err}\n"

    @pytest.mark.parametrize("header", [b"P1\n1000000000 1000000000\n", b"P4\n1000000000 1000000000\n"])
    def test_a_pbm_header_larger_than_the_file_exits_1(self, capsys, tmp_path, header):
        path = tmp_path / "big.pbm"
        path.write_bytes(header + b"1")
        assert cli_dispatch(["holes", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("digitopo: error: line 3: bitmap truncated: expected")
        assert captured.err.count("\n") == 1

    def test_parse_error_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P1\n2 2\n10\n")
        assert run_cli(capsys, "holes", str(path))[0] == 1


# ---------------------------------------------------------------------------
# inputs on a pipe


def _small_inputs(tmp_path):
    """A small P1, P4 and vox3 file, each with a hole and a dirty window."""
    img = image("0111110\n0110010\n0110010\n0111110\n0000001")
    cells = gen_frame(1).cells.copy()
    cells[0, 0, 0] = True  # meets the frame at a vertex
    p1, p4, vol = tmp_path / "in-p1.pbm", tmp_path / "in-p4.pbm", tmp_path / "in.vox3"
    write_pbm(img, p1)
    write_pbm_p4(img, p4)
    write_vox3(Volume3D(*cells.shape[::-1], cells), vol)
    return {"p1": p1, "p4": p4, "vox3": vol}


class TestCliPipes:
    """Every command reads an input on a pipe as it reads the same bytes
    in a regular file."""

    @pytest.mark.parametrize("kind", ["p1", "p4", "vox3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["components"],
            ["holes"],
            ["homology"],
            ["validate"],
            ["genus"],
            ["genus", "--streaming", "--no-repair"],
            ["repair", "-o", "OUT"],
        ],
        ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "OUT"),
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_a_pipe_gives_the_regular_files_output(self, capsys, tmp_path, kind, argv, json_flag):
        path = _small_inputs(tmp_path)[kind]
        out = tmp_path / ("out.vox3" if kind == "vox3" else "out.pbm")
        argv = [str(out) if a == "OUT" else a for a in argv] + json_flag

        def run(source):
            out.unlink(missing_ok=True)
            code = cli_dispatch([*argv, source])
            captured = capsys.readouterr()
            written = out.read_bytes() if "-o" in argv else None
            return code, _untimed(captured.out), captured.err, written

        want = run(str(path))
        with pipe_holding(path.read_bytes()) as pipe:
            assert run(pipe) == want

    def test_a_pipe_is_read_from_a_copy_that_is_then_removed(self, capsys, tmp_path, monkeypatch):
        copies = tmp_path / "tmp"
        copies.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(copies))
        digest = cli.report.input_digest
        read = []
        monkeypatch.setattr(cli.report, "input_digest", lambda p: read.append(p) or digest(p))
        with pipe_holding(_small_inputs(tmp_path)["vox3"].read_bytes()) as pipe:
            assert cli_dispatch(["homology", "--json", pipe]) == 0
        assert capsys.readouterr().err == ""
        assert [os.path.dirname(p) for p in read] == [str(copies)]
        assert list(copies.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["holes", "genus", "validate"])
    def test_a_missing_input_or_a_directory_keeps_its_error(self, capsys, tmp_path, cmd):
        for path, err in (
            ("/nonexistent/x.pbm", "[Errno 2] No such file or directory: '/nonexistent/x.pbm'"),
            (str(tmp_path), f"[Errno 21] Is a directory: '{tmp_path}'"),
        ):
            assert cli_dispatch([cmd, path]) == 1
            assert capsys.readouterr().err == f"digitopo: error: {err}\n"
