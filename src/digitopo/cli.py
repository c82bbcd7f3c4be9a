"""Command-line interface for the analysis pipeline.

Subcommands: components, holes, genus, homology, repair, validate, gen,
bench. Input format is sniffed from the file: PBM (P1/P4) is 2D, vox3 is
3D. Flags go after the subcommand.

Exit codes (an error's code is its type's ``exit_code``, see ``errors``):
    0   success
    1   runtime failure: parse errors, an input of the other dimension,
        invalid surfaces, a grid too large to allocate, validate disagreement
    2   formula preconditions failed with the oracle fallback disabled
    3   repair did not converge
    64  usage error: unknown flag or subcommand, bad flag combination

`--no-fallback-oracle` exists only on holes and homology, the commands
that fall back: validate runs both routes and genus only the formula.
`--streaming` applies to genus and bench only, and genus additionally
needs `--no-repair` there (repair edits need the whole grid in memory).
Streaming and default mode produce byte-identical reports. JSON output
(`--json`) is canonical and carries no timestamp; the human printer
starts with one comment line giving the time and command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import shutil
import stat
import sys
import tempfile
import time
import tracemalloc
from collections.abc import Callable, Iterable
from datetime import datetime

from . import oracle, pbm, report, shapes, streaming, topo2d, topo3d, vox3
from .errors import DigitopoError, ParseError
from .grid import (
    Adjacency,
    Image2D,
    Volume3D,
    _canvases,
    label_components_2d,
    label_components_3d,
)

__all__ = ["cli_dispatch", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors mapped to exit 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit a JSON report")
    # The analysis flags, on the commands that read them.
    no_repair = argparse.ArgumentParser(add_help=False)
    no_repair.add_argument(
        "--no-repair",
        action="store_true",
        help="skip the pathology repair; 2D speckle deletion and one-pixel-hole filling still run",
    )
    fallback = argparse.ArgumentParser(add_help=False)
    fallback.add_argument(
        "--fallback-oracle",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fall back to slow exact counting when formula preconditions fail",
    )

    parser = _Parser(prog="digitopo", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="cmd", required=True, metavar="command")

    streaming_help = "fold slab by slab in bounded memory"

    def sub(name, helptext, *parents):
        return subs.add_parser(name, parents=[shared, *parents], help=helptext)

    p = sub("components", "count connected components")
    p.add_argument("input")
    p.set_defaults(func=_cmd_components)

    p = sub("holes", "hole count per 2D component", no_repair, fallback)
    p.add_argument("input")
    p.set_defaults(func=_cmd_holes)

    p = sub("genus", "genus of the whole boundary surface of a 3D volume", no_repair)
    p.add_argument("input")
    p.add_argument("--streaming", action="store_true", help=streaming_help)
    p.set_defaults(func=_cmd_genus)

    p = sub("homology", "Betti numbers per 3D component", no_repair, fallback)
    p.add_argument("input")
    p.set_defaults(func=_cmd_homology)

    p = sub(
        "repair",
        "remove pathological configurations from the whole grid at once"
        " (holes, homology and validate repair each component alone)",
    )
    p.add_argument("input")
    p.add_argument("-o", "--output", help="write the repaired grid here")
    p.set_defaults(func=_cmd_repair)

    p = sub("validate", "run formula and oracle paths and compare", no_repair)
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    p = sub("gen", "write a generated shape to a file")
    p.add_argument("shape", choices=list(_GEN))
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--nz", type=int)
    p.add_argument("--holes", type=int, default=1)
    p.add_argument("--ring-width", type=int, default=1)
    p.add_argument("--thickness", type=int, default=1)
    p.add_argument("--outer", default="5,5,5", help="shell outer size x,y,z")
    p.add_argument("--cavity", default="1,1,1", help="shell cavity size x,y,z")
    p.add_argument("--area", type=int, default=256)
    p.add_argument("--volume", type=int, default=512)
    p.add_argument("--rate", type=float)
    p.add_argument("--min-width", type=int, default=2)
    p.set_defaults(func=_cmd_gen)

    p = sub("bench", "time the genus counting pass over generated volumes")
    p.add_argument(
        "--ring-widths",
        default="64,128",
        help="comma-separated frame ring widths; object voxels = 8*r^3",
    )
    p.add_argument("--streaming", action="store_true", help=streaming_help)
    p.set_defaults(func=_cmd_bench)

    return parser


# ---------------------------------------------------------------------------
# input loading and output


def _sniff(ns, want=None):
    """The reader of ``ns.input``, by the format its first bytes name.
    The one check of the input's dimension: it must give a ``want`` when
    given, checked before any cell is read."""
    with open(ns.input, "rb") as fh:
        head = fh.read(4)
    if head[:2] in (b"P1", b"P4"):
        read, kind = pbm.read_pbm, Image2D
    elif head == b"vox3":
        read, kind = vox3.read_vox3, Volume3D
    else:
        raise ParseError("unrecognized input format (want PBM P1/P4 or vox3)", 1)
    if want is not None and kind is not want:
        raise DigitopoError(f"{ns.cmd} expects a {'2D PBM' if want is Image2D else 'vox3'} input")
    return read


def _load(ns, want=None):
    """The grid in ``ns.input``, of type ``want`` when given, and the
    command's report, which names the input by its digest."""
    grid = _sniff(ns, want)(ns.input)
    return grid, report.base_report(ns.cmd, report.input_digest(ns.input))


def _emit(ns, rep: dict, human_lines: Callable[[], Iterable[str]]) -> None:
    """Write ``rep`` as JSON, or else the lines that ``human_lines()`` builds."""
    if ns.json:
        sys.stdout.write(report.dumps(rep))
    else:
        stamp = datetime.now().isoformat(timespec="seconds")
        sys.stdout.write(f"# {stamp} digitopo {ns.cmd}\n")
        sys.stdout.write("".join(line + "\n" for line in human_lines()))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_components(ns) -> int:
    grid, rep = _load(ns)
    if isinstance(grid, Image2D):
        labeling = label_components_2d(grid, Adjacency.DIRECT_2D)
        adjacency = "direct-4"
    else:
        labeling = label_components_3d(grid, Adjacency.INDIRECT_3D)
        adjacency = "indirect-26"
    sizes = labeling.sizes.tolist()
    rep["adjacency"] = adjacency
    rep["count"] = labeling.count
    rep["components"] = [
        {"component": i, "cells": sizes[i]} for i in range(1, labeling.count + 1)
    ]
    _emit(ns, rep, lambda: [
        f"components: {labeling.count} ({adjacency})",
        *(f"component {i}: {sizes[i]} cells" for i in range(1, labeling.count + 1)),
    ])
    return 0


def _cmd_holes(ns) -> int:
    grid, rep = _load(ns, Image2D)
    found = topo2d._columns(grid, repair=not ns.no_repair, fallback_oracle=ns.fallback_oracle)
    rep["components"] = report._hole_records(found)
    rep["repair_actions"] = report._action_records(found.log)
    holes = [answer[1] for answer in found.answers]
    rep["total_holes"] = sum(holes[a] for a in found.answer.tolist())
    _emit(ns, rep, lambda: [
        *(
            f"component {n}: area={area} holes={holes[a]} method={found.answers[a][2].value}"
            for n, (area, a) in enumerate(zip(found.sizes.tolist(), found.answer.tolist()), 1)
        ),
        f"total holes: {rep['total_holes']} ({len(found.log)} repair edits)",
    ])
    return 0


def _cmd_genus(ns) -> int:
    if ns.streaming and not ns.no_repair:
        print(
            "digitopo: error: --streaming requires --no-repair"
            " (repair edits need the whole grid)",
            file=sys.stderr,
        )
        return 64
    read = _sniff(ns, Volume3D)
    rep = report.base_report("genus", report.input_digest(ns.input))
    if ns.streaming:
        slabs = vox3.iter_vox3_slabs(ns.input)
        next(slabs)  # dimension triple
        hist, _stats = streaming.fold_surface_histogram_3d(slabs)
    else:
        grid = read(ns.input)
        if not ns.no_repair:
            grid, _actions = topo3d.repair_3d(grid)
        hist = topo3d.classify_surface(topo3d.to_point_space(grid))
    g = topo3d.genus(hist)
    rep["histogram"] = report.surface_histogram_record(hist)
    rep["genus"] = g
    rep["euler_characteristic"] = 2 - 2 * g
    rep["method"] = "formula"
    _emit(ns, rep, lambda: [
        "histogram: "
        + " ".join(f"m{k}={rep['histogram'][f'm{k}']}" for k in (3, 4, 5, 6)),
        f"genus: {rep['genus']} (euler characteristic {rep['euler_characteristic']})",
    ])
    return 0


def _cmd_homology(ns) -> int:
    grid, rep = _load(ns, Volume3D)
    found = topo3d._columns(grid, repair=not ns.no_repair, fallback_oracle=ns.fallback_oracle)
    rep["components"] = report._component_records_3d(found)
    rep["repair_actions"] = report._action_records(found.log)

    def lines():
        for n, (voxels, a) in enumerate(zip(found.sizes.tolist(), found.answer.tolist()), 1):
            surfaces, betti = found.answers[a]
            b = ",".join(str(v) for v in betti)
            yield f"component {n}: voxels={voxels} surfaces={len(surfaces)} betti=({b})"
            for i, s in enumerate(surfaces, start=1):
                yield (
                    f"  surface {i}: points={s.points} genus={s.genus}"
                    f" method={s.method}"
                )
        yield f"{len(found.log)} repair edits"

    _emit(ns, rep, lines)
    return 0


def _cmd_repair(ns) -> int:
    grid, rep = _load(ns)
    if isinstance(grid, Image2D):
        cleaned, speckle_actions = topo2d.remove_speckles(grid)
        cleaned, path_actions = topo2d.repair_2d(cleaned)
        actions = speckle_actions + path_actions
        if ns.output:
            pbm.write_pbm(cleaned, ns.output)
    else:
        cleaned, actions = topo3d.repair_3d(grid)
        if ns.output:
            vox3.write_vox3(cleaned, ns.output)
    rep["repair_actions"] = report._action_records(report._edit_rows(actions, grid.cells.ndim))
    # Repair returns only once its scan finds no pathological window, and
    # raises otherwise, so none remains.
    rep["remaining_pathologies"] = 0
    if ns.output:
        rep["output"] = ns.output
    _emit(ns, rep, lambda: [
        f"{len(actions)} repair edits, 0 pathologies remain",
        *([f"wrote {ns.output}"] if ns.output else []),
    ])
    return 0


def _cmd_validate(ns) -> int:
    grid, rep = _load(ns)
    in_2d = isinstance(grid, Image2D)
    found = (topo2d if in_2d else topo3d)._columns(grid, not ns.no_repair, keep_pieces=True)
    # Per labeling of the driver: a 2D piece is cut onto its own canvas,
    # and the 3D pieces take one oracle call, where an odd chi raises.
    checks = [None] * len(found.sizes)
    for labeling, ids, places in found.pieces:
        ids = ids.tolist()
        got = _canvases(labeling, ids) if in_2d else oracle._euler_surfaces(labeling.labels, ids)
        for i, piece in zip(places.tolist(), got):
            if in_2d:
                formula, flood = found.answers[found.answer[i]][1], oracle.holes_by_floodfill(piece)
                euler = 1 - oracle.euler_2d(piece).chi
                check = {"formula": formula, "flood_fill": flood, "euler": euler}
                agree = formula == flood == euler
            else:
                formula_surfaces, (_, formula, _, _) = found.answers[found.answer[i]]
                euler = sum((2 - s.chi) // 2 for s in piece)
                check = {"formula": formula, "euler": euler}
                agree = formula == euler and len(piece) == len(formula_surfaces)
            checks[i] = {"component": i + 1, **check, "agree": agree}
    all_agree = all(c["agree"] for c in checks)
    rep["checks"] = checks
    rep["agree"] = all_agree
    _emit(ns, rep, lambda: [
        *(" ".join(f"{k}={v}" for k, v in c.items()) for c in checks),
        "agree" if all_agree else "DISAGREE",
    ])
    return 0 if all_agree else 1


def _triple(text):
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ParseError(f"expected x,y,z, got {text!r}")
    return tuple(parts)


def _sizes(ns, *names):
    """The block extents ``names``, 8 where unset."""
    return [8 if getattr(ns, n) is None else getattr(ns, n) for n in names]


def _given(ns, *names):
    """The flags among ``names`` that were set; unset ones fall through
    to the generator's defaults."""
    return {n: getattr(ns, n) for n in names if getattr(ns, n) is not None}


# Shape name -> its generator call on the parsed flags. The generator is
# looked up when the entry runs, so a wrapper installed on ``shapes``
# sees the call.
_GEN = {
    "block2d": lambda ns: shapes.gen_block_2d(*_sizes(ns, "width", "height")),
    "block3d": lambda ns: shapes.gen_block_3d(*_sizes(ns, "nx", "ny", "nz")),
    "frame": lambda ns: shapes.gen_frame(ns.holes, ns.ring_width, ns.thickness),
    "shell": lambda ns: shapes.gen_shell(_triple(ns.outer), _triple(ns.cavity)),
    "poly2d": lambda ns: shapes.gen_fat_polyomino_2d(ns.seed, ns.area, ns.min_width),
    "holey2d": lambda ns: shapes.gen_holey_polyomino_2d(ns.seed, ns.area, ns.holes, ns.min_width),
    "blob3d": lambda ns: shapes.gen_fat_blob_3d(ns.seed, ns.volume, ns.min_width),
    "noisy2d": lambda ns: shapes.gen_noisy_image_2d(
        ns.seed, **_given(ns, "width", "height", "rate")
    ),
    "noisy3d": lambda ns: shapes.gen_noisy_volume_3d(
        ns.seed, **_given(ns, "nx", "ny", "nz", "rate")
    ),
}


def _cmd_gen(ns) -> int:
    out = _GEN[ns.shape](ns)
    write = pbm.write_pbm if isinstance(out, Image2D) else vox3.write_vox3
    write(out, ns.output)
    dims = "x".join(str(n) for n in reversed(out.cells.shape))
    cells = int(out.cells.sum())
    rep = report.base_report("gen")
    rep["shape"] = ns.shape
    rep["seed"] = ns.seed
    rep["path"] = ns.output
    rep["dimensions"] = dims
    rep["occupied_cells"] = cells
    _emit(ns, rep, lambda: [f"wrote {ns.output} ({dims}, {cells} occupied cells)"])
    return 0


def _bench_row(ring_width: int, use_streaming: bool) -> dict:
    holes, thickness = 1, ring_width

    def run():
        if use_streaming:
            hist, stats = streaming.fold_surface_histogram_3d(
                streaming.iter_frame_slabs(holes, ring_width, thickness)
            )
            return hist, stats
        vol = shapes.gen_frame(holes, ring_width, thickness)
        return topo3d.classify_surface(topo3d.to_point_space(vol)), None

    t0 = time.perf_counter()
    hist, stats = run()
    elapsed = time.perf_counter() - t0

    tracemalloc.start()
    run()
    _, mem_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Slabs 1..thickness are alike; the first and last are empty.
    slab = shapes.frame_slab(1, holes, ring_width, thickness)
    (ny, nx), nz = slab.shape, thickness + 2
    object_voxels = int(slab.sum()) * thickness
    row = {
        "mode": "streaming" if use_streaming else "batch",
        "ring_width": ring_width,
        "nx": nx,
        "ny": ny,
        "nz": nz,
        "grid_cells": nx * ny * nz,
        "object_voxels": object_voxels,
        "genus": topo3d.genus(hist),
        "time_us": int(elapsed * 1_000_000),
        "tracemalloc_peak_bytes": int(mem_peak),
    }
    if stats is not None:
        row["held_bytes_peak"] = stats.held_bytes_peak
        row["slab_bytes"] = stats.slab_bytes
    return row


def _cmd_bench(ns) -> int:
    try:
        widths = [int(w) for w in ns.ring_widths.split(",") if w]
    except ValueError:
        print("digitopo: error: bad --ring-widths", file=sys.stderr)
        return 64
    rows = [_bench_row(w, ns.streaming) for w in widths]
    rep = report.base_report("bench")
    rep["rows"] = rows
    _emit(ns, rep, lambda: [
        f"r={r['ring_width']} voxels={r['object_voxels']}"
        f" time={r['time_us']}us peak={r['tracemalloc_peak_bytes']}B"
        f" genus={r['genus']} ({r['mode']})"
        for r in rows
    ])
    return 0


# ---------------------------------------------------------------------------
# dispatch


def cli_dispatch(argv) -> int:
    """Parse argv and run one subcommand, mapping errors to exit codes."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        with _on_disk(ns):
            return ns.func(ns)
    except (DigitopoError, OSError, ValueError, MemoryError) as e:
        print(f"digitopo: error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 1)


@contextlib.contextmanager
def _on_disk(ns):
    """A pipe that ``ns.input`` names is copied to disk for the command:
    the sniff, the digest and the reader each open the input."""
    path = getattr(ns, "input", None)  # gen and bench take none
    try:
        pipe = path is not None and stat.S_ISFIFO(os.stat(path).st_mode)
    except OSError:  # the command's own open reports it
        pipe = False
    if not pipe:
        yield
        return
    with tempfile.NamedTemporaryFile(prefix="digitopo-") as copy:
        with open(path, "rb") as fh:
            shutil.copyfileobj(fh, copy)
        copy.flush()
        ns.input = copy.name
        yield


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
