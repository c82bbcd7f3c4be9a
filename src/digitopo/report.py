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
``homology`` and ``repair`` reach ``dumps`` as ``_Records``, which it
writes with one template per distinct record. An item's template key is
every field of its dataclass but the filled ones, the component id or an
edit's coordinates, and those a builder never reads. The first item with
a key is encoded as it is. When the key comes again, the builder's
record of that second item becomes a %-format with a ``%d`` slot for
each filled value, which must give the first item's encoding when filled
with its values, and each later item with that key only fills in its own
integers. A template is the encodings of the keys before and after each
filled one, cut at a NUL that the encoder never writes, so no byte of a
record can be taken for a slot. A report with no ``_Records`` is encoded
as it is. ``_Records`` and its makers are private: they are how the
command-line layer hands ``dumps`` its items, and any other caller gets
the same bytes from a plain list of the builders' records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable, Sequence
from operator import attrgetter
from typing import NamedTuple

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
    """A per-item array of a report, which ``dumps`` writes as the list of
    ``build(item)`` over ``items``."""

    items: Sequence
    build: Callable  # item -> its record
    filled: frozenset  # the record keys whose values each item fills in
    key: Callable  # item -> every field but the filled ones that ``build`` may read
    values: Callable  # item -> the filled values, in sorted key order


def _records(items, build, cls, filled: dict, skipped=frozenset()) -> _Records:
    """``items``, instances of the dataclass ``cls``, as ``_Records``.
    ``filled`` maps each filled record key to the field it holds. The
    template key is every other field of ``cls`` but the ``skipped``
    ones, which ``build`` must not read."""
    keys = sorted(filled)
    fields = [f.name for f in dataclasses.fields(cls)]
    rest = [f for f in fields if f not in skipped and f not in filled.values()]
    return _Records(
        items, build, frozenset(keys), attrgetter(*rest), attrgetter(*(filled[k] for k in keys))
    )


def _encode_records(records: _Records) -> str:
    """The encoded list of ``records``. A record whose key is new is
    encoded as it is. When its key comes again, the second item's record
    becomes the key's template, which must give the first item's encoding
    when filled with its values; each later item only fills it in."""
    formats: dict = {}  # key -> template
    firsts: dict = {}  # key -> (values, encoding) of the one item with that key so far
    out = []
    for item in records.items:
        key, values = records.key(item), records.values(item)
        fmt = formats.get(key)
        if fmt is None:
            first = firsts.pop(key, None)
            if first is None:
                text = _encode(records.build(item))
                firsts[key] = (values, text)
                out.append(text)
                continue
            fmt = formats[key] = _template(records.build(item), records.filled)
            if fmt % first[0] != first[1]:
                raise ValueError(f"filled values {first[0]} do not give {first[1]}")
        out.append(fmt % values)
    return "[" + ",".join(out) + "]"


# The builders are looked up when a record is built, so that a wrapper
# installed on this module sees the call.
def _hole_records(reports: Sequence[HoleReport]) -> _Records:
    return _records(reports, lambda r: hole_record(r), HoleReport, {"component": "component_id"})


def _component_records_3d(reports: Sequence[TopoReport3D]) -> _Records:
    return _records(
        reports,
        lambda r: component_record_3d(r),
        TopoReport3D,
        {"component": "component_id"},
        skipped={"repair_actions"},
    )


def _action_records(actions: Sequence[RepairAction]) -> _Records:
    """An image edit's z is None and its record has no z: a list of image
    edits fills in x and y, and its z is part of the key."""
    xyz = ("x", "y") if actions and actions[0].z is None else ("x", "y", "z")
    return _records(actions, lambda a: action_record(a), RepairAction, {k: k for k in xyz})


def base_report(command: str, digest: str | None = None) -> dict:
    rep = {"schema_version": SCHEMA_VERSION, "command": command}
    if digest is not None:
        rep["input"] = digest
    return rep


def dumps(report: dict) -> str:
    """Canonical serialization: sorted keys, fixed separators, newline.
    A ``_Records`` value is written as its list of records."""
    arrays = {k: _encode_records(v) for k, v in report.items() if isinstance(v, _Records)}
    if not arrays:
        return _encode(report) + "\n"
    pieces = _pieces(report, arrays.keys())
    parts = [pieces[0]]
    for key, piece in zip(sorted(arrays), pieces[1:]):
        parts += (arrays[key], piece)
    return "".join(parts) + "\n"
