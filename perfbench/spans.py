"""Span tracing around the public entry points of each digitopo module.

``Tracer.install`` replaces each entry point listed in ``ENTRY_POINTS`` by
a wrapper in every digitopo module namespace that binds it: for example
``_component_canvas`` in ``grid``, ``cli``, ``topo2d`` and ``topo3d``.
Calls inside a module resolve through its globals, so the wrapper also
sees those. Spans (name, start, end, parent) stay in memory; a layer's
self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

from digitopo.errors import RepairDidNotConverge

# module -> {attribute: span name}. report.dumps and the record builders
# are the JSON layer; label_background_2d and find_pathologies_2d stay
# inside the oracle and 2D repair/precheck spans that call them.
ENTRY_POINTS = {
    "digitopo.report": {
        "input_digest": "cli.digest",
        "dumps": "cli.json",
        "base_report": "cli.json",
        "action_record": "cli.json",
        "hole_record": "cli.json",
        "surface_record": "cli.json",
        "component_record_3d": "cli.json",
    },
    "digitopo.pbm": {"read_pbm": "pbm.read", "write_pbm": "pbm.write", "write_pbm_p4": "pbm.write"},
    "digitopo.vox3": {
        "read_vox3": "vox3.read",
        "write_vox3": "vox3.write",
        "iter_vox3_slabs": "vox3.slab_iter",
    },
    "digitopo.grid": {
        "label_components_2d": "grid.label",
        "label_components_3d": "grid.label",
        "_component_canvas": "grid.canvas",
    },
    "digitopo.topo3d": {
        "analyze_volume": "topo3d.analyze",
        "repair_3d": "topo3d.repair",
        "find_pathologies_3d": "topo3d.pathology_scan",
        "homology": "topo3d.homology",
        "to_point_space": "topo3d.point_space",
        "split_surface_components": "topo3d.split",
        "classify_surface": "topo3d.classify",
    },
    "digitopo.topo2d": {
        "_analyze_components": "topo2d.pipeline",
        "remove_speckles": "topo2d.speckle",
        "repair_2d": "topo2d.repair",
        "hole_count": "topo2d.hole_count",
        "check_preconditions_2d": "topo2d.precheck",
        "classify_boundary_2d": "topo2d.classify",
    },
    "digitopo.oracle": {
        "holes_by_floodfill": "oracle.floodfill",
        "_surface_components": "oracle.surface",
    },
    "digitopo.streaming": {"fold_surface_histogram_3d": "streaming.fold"},
    "digitopo.shapes": {
        name: "shapes.gen"
        for name in (
            "gen_block_2d",
            "gen_block_3d",
            "gen_frame",
            "gen_shell",
            "gen_fat_polyomino_2d",
            "gen_holey_polyomino_2d",
            "gen_fat_blob_3d",
            "gen_noisy_image_2d",
            "gen_noisy_volume_3d",
        )
    },
}

GENERATORS = {"vox3.slab_iter"}

# (metric, unit) -> how it is read from self times (s), calls and counters.
PER_LAYER = [
    ("cli.self_s", "s"), ("cli.digest_s", "s"), ("cli.json_s", "s"),
    ("pbm.read_s", "s"), ("pbm.write_s", "s"), ("pbm.bytes_read", "bytes"),
    ("vox3.read_s", "s"), ("vox3.write_s", "s"), ("vox3.slab_iter_s", "s"),
    ("vox3.bytes_read", "bytes"),
    ("grid.label_s", "s"), ("grid.label_calls", "count"),
    ("grid.canvas_s", "s"), ("grid.canvas_calls", "count"),
    ("topo3d.analyze_s", "s"),
    ("topo3d.repair_s", "s"), ("topo3d.repair_calls", "count"),
    ("topo3d.repair_edits", "count"), ("topo3d.repair_failed", "count"),
    ("topo3d.pathology_scan_s", "s"), ("topo3d.pathology_scans", "count"),
    ("topo3d.homology_s", "s"), ("topo3d.point_space_s", "s"),
    ("topo3d.split_s", "s"), ("topo3d.classify_s", "s"),
    ("topo3d.surfaces", "count"), ("topo3d.formula_ratio", "ratio"),
    ("topo2d.pipeline_s", "s"),
    ("topo2d.speckle_s", "s"), ("topo2d.repair_s", "s"), ("topo2d.repair_edits", "count"),
    ("topo2d.hole_count_s", "s"), ("topo2d.precheck_s", "s"), ("topo2d.classify_s", "s"),
    ("topo2d.components", "count"), ("topo2d.formula_ratio", "ratio"),
    ("oracle.floodfill_s", "s"), ("oracle.floodfill_calls", "count"),
    ("oracle.surface_s", "s"), ("oracle.surface_calls", "count"),
    ("streaming.fold_s", "s"), ("streaming.slabs", "count"),
    ("streaming.held_bytes_peak", "bytes"),
    ("shapes.gen_s", "s"), ("shapes.gen_calls", "count"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        self.calls[name] += 1
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- counters read from results, outside the span -----------------------

    def _after(self, span: str, args, result) -> None:
        c = self.counts
        if span in ("pbm.read", "vox3.slab_iter"):
            c[span.split(".")[0] + ".bytes_read"] += os.path.getsize(args[0])
        elif span == "topo3d.repair":
            c["topo3d.repair_edits"] += len(result[1])
        elif span in ("topo2d.speckle", "topo2d.repair"):
            c["topo2d.repair_edits"] += len(result[1])
        elif span == "topo3d.homology":
            c["topo3d.surfaces"] += len(result.boundary_surfaces)
            c["topo3d.formula"] += sum(s.method == "formula" for s in result.boundary_surfaces)
        elif span == "topo2d.hole_count":
            c["topo2d.components"] += 1
            c["topo2d.formula"] += result.method.value == "formula"
        elif span == "streaming.fold":
            stats = result[1]
            c["streaming.slabs"] += stats.steps
            peak = max(c["streaming.held_bytes_peak"], stats.held_bytes_peak)
            c["streaming.held_bytes_peak"] = peak

    def _wrap(self, fn, span: str):
        tracer = self

        if span in GENERATORS:
            def stepped(*args, **kwargs):
                tracer._after(span, args, None)
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item

            return stepped

        def wrapped(*args, **kwargs):
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            except RepairDidNotConverge:
                if span == "topo3d.repair":
                    tracer.counts["topo3d.repair_failed"] += 1
                raise
            finally:
                tracer.close(idx)
            tracer._after(span, args, result)
            return result

        return wrapped

    def install(self) -> None:
        """Wrap every entry point in every digitopo namespace binding it."""
        namespaces = [
            m for n, m in sys.modules.items() if n == "digitopo" or n.startswith("digitopo.")
        ]
        for module, attrs in ENTRY_POINTS.items():
            for attr, span in attrs.items():
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(original, span)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            self._restore.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            setattr(ns, key, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_seconds(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def metrics(self, overhead_ratio: float) -> dict:
        self_s = self.self_seconds()
        values = dict(self.counts)
        for name, _ in PER_LAYER:
            if name.endswith("_s"):
                values[name] = self_s.get(name[:-2], 0.0)
        values["cli.self_s"] = self_s.get("cli", 0.0)
        for name, span in (
            ("grid.label_calls", "grid.label"),
            ("grid.canvas_calls", "grid.canvas"),
            ("topo3d.repair_calls", "topo3d.repair"),
            ("topo3d.pathology_scans", "topo3d.pathology_scan"),
            ("oracle.floodfill_calls", "oracle.floodfill"),
            ("oracle.surface_calls", "oracle.surface"),
            ("shapes.gen_calls", "shapes.gen"),
        ):
            values[name] = self.calls[span]
        c = self.counts
        values["topo3d.formula_ratio"] = c["topo3d.formula"] / max(c["topo3d.surfaces"], 1)
        values["topo2d.formula_ratio"] = c["topo2d.formula"] / max(c["topo2d.components"], 1)
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)
