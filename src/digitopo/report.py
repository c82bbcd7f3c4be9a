"""JSON report records for the command-line pipeline.

Reports are plain dicts serialized by ``dumps`` with sorted keys and
fixed separators, so identical inputs and flags produce byte-identical
output. Every numeric field is an integer (times are integer
microseconds, sizes integer bytes). Every hole record and every surface
record carries a method field; a 3D component record carries its
surfaces', one per surface. No timestamps are embedded; the
human-readable printer may add one as a plain text line outside the JSON.

The builders (``action_record``, ``hole_record``, ``component_record_3d``
and the surface and histogram records inside them) are the only
statement of each record's shape. The per-item arrays of ``holes``,
``homology`` and ``repair`` reach ``dumps`` as columns (``_Records``):
each item's index among the distinct answers, and the integers it fills
in, its component id and size or its coordinates. The builder runs once
per answer, on its first item. An answer of one item is encoded as it
is. The record of any other becomes a %-format with a ``%d`` slot per
filled value, cut at a NUL that the encoder never writes, so no byte of
a record is taken for a slot; it must give the first item's encoding,
and each item then fills in its own integers. A report with no
``_Records`` is encoded as it is.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from .grid import _OPS, _REASONS
from .topo2d import HoleReport, RepairAction
from .topo3d import SurfaceHistogram, SurfaceReport, TopoReport3D

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "input_digest",
    "action_record",
    "hole_record",
    "surface_histogram_record",
    "surface_record",
    "component_record_3d",
    "base_report",
    "dumps",
]

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def input_digest(path) -> str:
    """sha256 of the raw input file bytes, prefixed with the algorithm."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def action_record(a: RepairAction) -> dict:
    rec = {"op": a.op.value, "reason": a.reason.value, "x": a.x, "y": a.y}
    if a.z is not None:
        rec["z"] = a.z
    return rec


def _corner_histogram_record(h) -> dict:
    return {
        "cp0": h.cp0,
        "cp1": h.cp1,
        "cp2": h.cp2,
        "cp3": h.cp3,
        "cp4": h.cp4,
        "thin": h.thin,
        "boundary_total": h.boundary_total,
    }


def hole_record(r: HoleReport) -> dict:
    return {
        "component": r.component_id,
        "area": r.area,
        "histogram": _corner_histogram_record(r.histogram),
        "holes": r.holes,
        "method": r.method.value,
        "precondition_ok": r.precondition_ok,
    }


def surface_histogram_record(h: SurfaceHistogram) -> dict:
    """A surface histogram's record: inside each surface record, and the
    ``histogram`` of the ``genus`` report."""
    return {
        "m3": h.m3,
        "m4": h.m4,
        "m5": h.m5,
        "m6": h.m6,
        "irregular": h.irregular,
        "total": h.total,
    }


def surface_record(s: SurfaceReport) -> dict:
    return {
        "points": s.points,
        "histogram": surface_histogram_record(s.histogram),
        "genus": s.genus,
        "euler_characteristic": s.euler_characteristic,
        "method": s.method,
    }


def component_record_3d(r: TopoReport3D) -> dict:
    return {
        "component": r.component_id,
        "voxels": r.voxel_count,
        "surfaces": [surface_record(s) for s in r.boundary_surfaces],
        "betti": list(r.betti),
    }


# ---------------------------------------------------------------------------
# serialization


def _pieces(record: dict, slots) -> list[str]:
    """``record`` as ``dumps`` encodes it, cut at the values of its keys
    in ``slots``: one more piece than slots, the key before each cut. The
    keys between two cuts are encoded together."""
    members, run = [], {}
    for key in sorted(record):
        if key in slots:
            if run:
                members.append(_encode(run)[1:-1])
                run = {}
            members.append(_encode(key) + ":\0")
        else:
            run[key] = record[key]
    if run:
        members.append(_encode(run)[1:-1])
    # The encoder escapes every control character, so a NUL is only a cut.
    return ("{" + ",".join(members) + "}").split("\0")


def _template(record: dict, filled) -> str:
    """``record``'s encoding as a %-format with one ``%d`` slot for the
    value of each of its ``filled`` keys, in sorted key order. Filling it
    with the wrong number of values raises ``TypeError``."""
    for key in filled & record.keys():
        if type(record[key]) is not int:
            raise TypeError(f"filled key {key!r} holds {record[key]!r}, not an int")
    return "%d".join(p.replace("%", "%%") for p in _pieces(record, filled))


class _Records(NamedTuple):
    """A per-item array of a report, as columns: ``dumps`` writes item i as
    ``build(answers[answer[i]], values[i])``, the values a tuple."""

    answer: np.ndarray  # per item: the index of its answer
    answers: Sequence  # everything of an item's record but its filled values
    values: np.ndarray  # per item: its filled values, in sorted key order
    filled: frozenset  # the record keys whose values each item fills in
    build: Callable  # (answer, values) -> the item's record


def _encode_records(records: _Records) -> str:
    """The encoded list of ``records``. The builder runs once per answer,
    on the answer's first item. An answer of one item is encoded as it is.
    The record of any other becomes a template that must give the first
    item's encoding when filled with its values; every item of the answer
    then fills it in, all in one %-format."""
    answer, values = records.answer, records.values
    counts = np.bincount(answer, minlength=len(records.answers))
    seen = np.flatnonzero(counts)
    firsts = np.argsort(answer, kind="stable")[(counts.cumsum() - counts)[seen]]
    formats = {}
    for a, i in zip(seen.tolist(), firsts.tolist()):
        first = tuple(values[i].tolist())
        record = records.build(records.answers[a], first)
        text = _encode(record)
        if counts[a] == 1:
            formats[a] = text.replace("%", "%%")
            continue
        fmt = formats[a] = _template(record, records.filled)
        if fmt % first != text:
            raise ValueError(f"filled values {first} do not give {text}")
    filled = values[counts[answer] > 1].reshape(-1).tolist()
    return "[" + ",".join(map(formats.__getitem__, answer.tolist())) % tuple(filled) + "]"


# The builders are looked up when a record is built, so that a wrapper
# installed on this module sees the call.
def _piece_records(columns, keys: tuple, build) -> _Records:
    """The records of ``topo2d._columns`` or ``topo3d._columns``. Each
    piece fills in ``keys``, its component id and its size in sorted
    order; its edits are not read."""
    ids = np.arange(1, len(columns.answer) + 1)
    values = np.stack([ids if k == "component" else columns.sizes for k in keys], axis=1)
    return _Records(columns.answer, columns.answers, values, frozenset(keys), build)


def _hole_records(columns) -> _Records:
    return _piece_records(
        columns, ("area", "component"), lambda a, v: hole_record(HoleReport(v[1], v[0], *a))
    )


def _component_records_3d(columns) -> _Records:
    return _piece_records(
        columns, ("component", "voxels"), lambda a, v: component_record_3d(TopoReport3D(*v, *a))
    )


# An edit's answer: its op and reason, ``added + 2 * reason`` of its row.
_EDIT_ANSWERS = [(op, reason) for reason in _REASONS for op in _OPS]


def _edit_rows(actions, ndim: int) -> np.ndarray:
    """The rows of ``actions`` on a grid of ``ndim`` axes: ``grid._actions`` inverted."""
    rows = [(a.z or 0, a.y, a.x, _OPS.index(a.op), _REASONS.index(a.reason)) for a in actions]
    return np.array(rows, dtype=np.int64).reshape(-1, 5)[:, 3 - ndim :]


def _action_records(log: np.ndarray) -> _Records:
    """The records of edits, rows of ``grid._actions``. An image edit has
    no z: its record has none, and its row no z column."""
    xyz = ("x", "y", "z")[: log.shape[1] - 2]
    return _Records(
        log[:, -2] + 2 * log[:, -1],
        _EDIT_ANSWERS,
        log[:, -3::-1],
        frozenset(xyz),
        lambda answer, v: action_record(RepairAction(v[0], v[1], *answer, *v[2:])),
    )


def base_report(command: str, digest: str | None = None) -> dict:
    rep = {"schema_version": SCHEMA_VERSION, "command": command}
    if digest is not None:
        rep["input"] = digest
    return rep


def dumps(report: dict) -> str:
    """Canonical serialization: sorted keys, fixed separators, newline.
    A ``_Records`` value is written as its list of records."""
    slots = sorted(k for k, v in report.items() if isinstance(v, _Records))
    arrays = [_encode_records(report[k]) for k in slots]
    return "".join(p + a for p, a in zip(_pieces(report, slots), [*arrays, "\n"]))
