"""The output checker: verifies every op with the benchmark's own code.

``check_op`` returns None for a correct op, or a ``(class, reason)`` pair.
Classes listed in ``KNOWN`` are defects the program has today; they are
counted as failed ops and listed with their reasons, never filtered out.
Any other class is a new defect and makes the run incorrect.
"""

from __future__ import annotations

import json

import numpy as np
from scipy import ndimage

from corpus import record

KNOWN = {
    "repair-cycle": "3D repair oscillates and exits 3 (ROADMAP open item 3)",
    "genus-multi-surface": "genus applies the one-surface formula to a boundary of several"
    " surfaces and exits 1 (ROADMAP open item 3)",
    "2d-replay-mismatch": "holes reported per component do not match the replayed image"
    " (on some components the formula path reports fewer holes than flood fill finds)",
}


# ---------------------------------------------------------------------------
# cell counts of closed cubical complexes


def euler_3d(cells: np.ndarray) -> int:
    """V - E + F - C of the union of closed unit cubes on the object voxels."""
    p = np.pad(cells, 1)
    c = int(cells.sum())
    f = int((p[1:-1, 1:-1, :-1] | p[1:-1, 1:-1, 1:]).sum())
    f += int((p[1:-1, :-1, 1:-1] | p[1:-1, 1:, 1:-1]).sum())
    f += int((p[:-1, 1:-1, 1:-1] | p[1:, 1:-1, 1:-1]).sum())
    qx, qy, qz = p[:, :, 1:-1], p[:, 1:-1, :], p[1:-1, :, :]
    e = int((qx[:-1, :-1] | qx[:-1, 1:] | qx[1:, :-1] | qx[1:, 1:]).sum())
    e += int((qy[:-1, :, :-1] | qy[:-1, :, 1:] | qy[1:, :, :-1] | qy[1:, :, 1:]).sum())
    e += int((qz[:, :-1, :-1] | qz[:, :-1, 1:] | qz[:, 1:, :-1] | qz[:, 1:, 1:]).sum())
    v = np.zeros(tuple(s - 1 for s in p.shape), dtype=bool)
    for dz in (0, 1):
        for dy in (0, 1):
            for dx in (0, 1):
                v |= p[dz : dz + v.shape[0], dy : dy + v.shape[1], dx : dx + v.shape[2]]
    return int(v.sum()) - e + f - c


def euler_2d(cells: np.ndarray) -> int:
    """V - E + F of the union of closed unit squares on the pixels."""
    p = np.pad(cells, 1)
    f = int(cells.sum())
    e = int((p[:-1, 1:-1] | p[1:, 1:-1]).sum()) + int((p[1:-1, :-1] | p[1:-1, 1:]).sum())
    v = int((p[:-1, :-1] | p[:-1, 1:] | p[1:, :-1] | p[1:, 1:]).sum())
    return v - e + f


def replay(cells: np.ndarray, actions: list) -> np.ndarray:
    """Apply a report's ``repair_actions`` to a copy of the input grid."""
    out = cells.copy()
    for a in actions:
        idx = (a["z"], a["y"], a["x"]) if cells.ndim == 3 else (a["y"], a["x"])
        out[idx] = a["op"] == "add"
    return out


# ---------------------------------------------------------------------------
# own readers for files the program writes


def read_grid(path: str) -> tuple[tuple, np.ndarray]:
    """Dimensions from the header and the grid of a P1 or vox3 file, as
    the program writes them (one header line for vox3, two for P1)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(b"vox3"):
        head, body = data.split(b"\n", 1)
        dims = tuple(int(t) for t in head.split()[1:])
    else:
        _, head, body = data.split(b"\n", 2)
        dims = tuple(int(t) for t in head.split())
    digits = np.frombuffer(body, dtype=np.uint8)
    bits = digits[(digits == 0x30) | (digits == 0x31)] == 0x31
    return dims, bits.reshape(dims[::-1])


# ---------------------------------------------------------------------------
# per-command checks


def _homology(rep: dict, inp) -> tuple | None:
    cells = replay(inp.cells, rep["repair_actions"])
    chi = euler_3d(cells)
    betti = [c["betti"] for c in rep["components"]]
    total = sum(b[0] - b[1] + b[2] for b in betti)
    if chi != total:
        return "3d-euler-mismatch", f"replayed chi {chi} != sum(1 - b1 + b2) {total}"
    want = inp.expect.get("betti")
    if want is not None and [b[:3] for b in betti] != [want]:
        return "wrong-betti", f"betti {betti} != {want}"
    return None


def _holes(rep: dict, inp) -> tuple | None:
    cells = replay(inp.cells, rep["repair_actions"])
    labels, count = ndimage.label(cells)
    comps = rep["components"]
    if count != len(comps):
        return "2d-replay-mismatch", f"{count} components replayed, {len(comps)} reported"
    chi = 0
    for i, box in enumerate(ndimage.find_objects(labels), start=1):
        chi += euler_2d(labels[box] == i)
    want = sum(1 - c["holes"] for c in comps)
    if chi != want:
        return "2d-replay-mismatch", f"replayed chi {chi} != sum(1 - holes) {want}"
    return None


def _components(rep: dict, inp) -> tuple | None:
    structure = np.ones((3, 3, 3)) if inp.cells.ndim == 3 else None
    count = ndimage.label(inp.cells, structure=structure)[1]
    cells = sum(c["cells"] for c in rep["components"])
    if rep["count"] != count or cells != int(inp.cells.sum()):
        return "wrong-components", f"{rep['count']} components / {cells} cells, want {count}"
    return None


def _genus(rep: dict, inp) -> tuple | None:
    want = inp.expect.get("genus")
    if want is not None and rep["genus"] != want:
        return "wrong-genus", f"genus {rep['genus']} != {want}"
    return None


def _repair(rep: dict, inp, output: str) -> tuple | None:
    if rep["remaining_pathologies"] != 0:
        return "repair-incomplete", f"{rep['remaining_pathologies']} pathologies remain"
    dims, _ = read_grid(output)
    if dims != inp.cells.shape[::-1]:
        return "repair-output", f"wrote {dims}, input is {inp.cells.shape[::-1]}"
    return None


def _gen(rep: dict, output: str) -> tuple | None:
    dims, cells = read_grid(output)
    got = "x".join(str(d) for d in dims)
    if got != rep["dimensions"] or int(cells.sum()) != rep["occupied_cells"]:
        return "gen-output", (
            f"file reads {got} with {int(cells.sum())} cells,"
            f" report says {rep['dimensions']} with {rep['occupied_cells']}"
        )
    return None


def gen_cells(stdout: str) -> int:
    """Output grid cells of a gen op, from its report."""
    dims = json.loads(stdout)["dimensions"].split("x")
    return int(np.prod([int(d) for d in dims]))


def check_op(op, rc: int, stdout: str, stderr: str, inp) -> tuple | None:
    """None when the op's output is right, else (failure class, reason)."""
    cmd = op.argv[0]
    if rc == 3 and "repair did not converge" in stderr:
        return "repair-cycle", stderr.strip()
    if rc != 0:
        multi = cmd == "genus" and record(inp)["surfaces"] > 1
        if multi and "not a valid digital surface" in stderr:
            return "genus-multi-surface", stderr.strip()
        return "exit", f"exit {rc}: {stderr.strip()}"
    try:
        rep = json.loads(stdout)
    except ValueError:
        return "bad-json", stdout[:200]
    if cmd == "homology":
        return _homology(rep, inp)
    if cmd == "holes":
        return _holes(rep, inp)
    if cmd == "components":
        return _components(rep, inp)
    if cmd == "genus":
        return _genus(rep, inp)
    if cmd == "validate":
        return None if rep["agree"] else ("disagree", "validate reports agree: false")
    if cmd == "repair":
        return _repair(rep, inp, op.output)
    if cmd == "gen":
        return _gen(rep, op.output)
    return "unchecked", f"no check for {cmd}"
