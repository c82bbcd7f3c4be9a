"""digitopo benchmark: per-file CLI runs, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload vol-many --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One op is one ``digitopo`` command on one file, called in-process through
``digitopo.cli_dispatch`` with stdout captured: file read, digest, parse,
labelling, repair, classification, oracle fallback and JSON output. The
load is a closed loop with one client; every workload runs in its own
process. The last line of stdout is the result object; the lines before
it are the workload record. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread for numpy/scipy: the loop has a single client by design.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from corpus import WORKLOADS, Op, build, record  # noqa: E402
from speed import REFERENCE_PROCESS_CODE, REFERENCE_PROCESS_MS, Clock  # noqa: E402

ROOT = Path.cwd()
SETUP_REPEATS = 5
COLD_STARTS = 5
COLD_START_CODE = "from digitopo.cli import main; main()"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import digitopo from ./src of the checkout, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "digitopo" / "__init__.py").is_file():
        raise SystemExit("perfbench: no ./src/digitopo here; run from the repository root")
    sys.path.insert(0, str(src))
    import digitopo

    if Path(digitopo.__file__).resolve().parent != (src / "digitopo").resolve():
        raise SystemExit(f"perfbench: imported digitopo from {digitopo.__file__}, not ./src")
    return digitopo.cli_dispatch


def run_op(dispatch, op, tracer=None):
    """One timed op: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        span = tracer.open("cli") if tracer else None
        try:
            rc = dispatch(op.argv)
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        finally:
            if tracer:
                tracer.close(span)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def setup(workload, seed, dispatch):
    """Draw and write the inputs, then warm every command up untimed."""
    t0 = time.perf_counter()
    corpus = build(workload, seed)
    for op in corpus.warmup:
        run_op(dispatch, op)
    return corpus, time.perf_counter() - t0


class ColdStart:
    """Fresh ``digitopo`` processes on the smallest input, one at a time,
    each followed by the reference process that scales it (speed.py)."""

    def __init__(self, corpus):
        import check

        self._check = check.check_op
        self.input = min(corpus.inputs.values(), key=lambda i: (os.path.getsize(i.name), i.name))
        argv = ["components", "--json", self.input.name]
        self.op = Op("cold-start components", argv, 0, self.input.name)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.raw_ms: list[float] = []
        self.ms: list[float] = []
        self.ok = True

    def _spawn(self, argv):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=self.env, timeout=150)
        return proc, (time.perf_counter() - t0) * 1000.0

    def sample(self) -> None:
        proc, ms = self._spawn([sys.executable, "-c", COLD_START_CODE] + self.op.argv)
        ref, ref_ms = self._spawn([sys.executable, "-c", REFERENCE_PROCESS_CODE])
        self.ok &= ref.returncode == 0
        self.raw_ms.append(ms)
        self.ms.append(ms * REFERENCE_PROCESS_MS / ref_ms)
        verdict = self._check(self.op, proc.returncode, proc.stdout, proc.stderr, self.input)
        self.ok &= verdict is None


def measure(dispatch, ops, seconds, clock=None, cold=None, tracer=None):
    """Round-robin passes over ``ops`` for ``seconds`` (the first pass always
    completes), with the cold starts spread evenly over the same window.

    Returns per-op raw samples, per-op samples at the reference speed
    (empty without a clock), first-pass outputs, and whether every later
    sample printed the same bytes.
    """
    raw = {op.name: [] for op in ops}
    scaled = {op.name: [] for op in ops}
    first = {}
    same = True
    start = time.perf_counter()
    due = [start + seconds * (i + 0.5) / COLD_STARTS for i in range(COLD_STARTS)] if cold else []

    def run(op):
        nonlocal same
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            cold.sample()
        rc, out, err, dt = run_op(dispatch, op, tracer)
        raw[op.name].append(dt)
        if clock:
            scaled[op.name].append(clock.scale(dt))
        if op.name not in first:
            first[op.name] = (rc, out, err)
        elif first[op.name][:2] != (rc, out):
            same = False

    for op in ops:
        run(op)
    while time.perf_counter() - start < seconds:
        for op in ops:
            run(op)
            if time.perf_counter() - start >= seconds:
                break
    for _ in due:
        cold.sample()
    return raw, scaled, first, same


def check_all(corpus, first):
    """Check every op's output; returns (cells per op, failure list)."""
    import check

    cells, failures = {}, []
    for op in corpus.ops:
        rc, out, err = first[op.name]
        verdict = check.check_op(op, rc, out, err, corpus.inputs.get(op.input))
        if verdict is None:
            cells[op.name] = check.gen_cells(out) if op.argv[0] == "gen" else op.cells
        else:
            cells[op.name] = 0
            cls, reason = verdict
            failures.append(
                {"op": op.name, "class": cls, "known": cls in check.KNOWN, "reason": reason}
            )
    return cells, failures


def workload_report(corpus, raw, scaled, first, failures, same):
    import check

    outputs = "".join(first[op.name][1] for op in corpus.ops)
    classes = sorted({f["class"] for f in failures if f["known"]})
    return {
        "workload": corpus.workload,
        "seed": corpus.seed,
        "inputs": [record(i) for i in corpus.inputs.values()],
        "ops": [
            {
                "op": op.name,
                "argv": op.argv,
                "exit": first[op.name][0],
                "raw_ms_median": statistics.median(raw[op.name]) * 1000.0,
                "ms_median": statistics.median(scaled[op.name] or [0.0]) * 1000.0,
                "samples": len(raw[op.name]),
            }
            for op in corpus.ops
        ],
        "failures": failures,
        "known_failure_classes": {c: check.KNOWN[c] for c in classes},
        "failed_ratio": {"value": len(failures) / len(corpus.ops), "unit": "ratio"},
        "stdout_sha256": hashlib.sha256(outputs.encode()).hexdigest(),
        "stdout_same_every_sample": same,
    }


def run_workload(args) -> int:
    dispatch = load_program()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    os.chdir(work)
    try:
        if args.trace:
            return traced_run(args, dispatch)
        return timed_run(args, dispatch)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


UNITS = {"cells_per_s": "cells/s", "op_ms_p50": "ms", "cold_start_ms": "ms",
         "peak_rss_mb": "MiB", "setup_s": "s"}


def _end_to_end(cells, samples, failed_ops, cold_ms, setup_s):
    """Time metrics. Each op counts once, at the median of its samples."""
    per_op = {name: statistics.median(ts) for name, ts in samples.items()}
    op_ms = [float("inf") if n in failed_ops else t * 1000.0 for n, t in per_op.items()]
    p50 = statistics.median(op_ms)
    if p50 == float("inf"):  # half or more failed: report the whole pass
        p50 = sum(per_op.values()) * 1000.0
    return {
        "cells_per_s": sum(cells.values()) / sum(per_op.values()),
        "op_ms_p50": p50,
        "cold_start_ms": statistics.median(cold_ms),
        "setup_s": statistics.median(setup_s),
    }


def timed_run(args, dispatch) -> int:
    clock = Clock()
    raw_setup, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        corpus, dt = setup(args.workload, args.seed, dispatch)
        raw_setup.append(dt)
        setup_s.append(clock.scale(dt))
    cold = ColdStart(corpus)
    raw, scaled, first, same = measure(dispatch, corpus.ops, args.seconds, clock, cold)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cells, failures = check_all(corpus, first)
    failed_ops = {f["op"] for f in failures}

    # Reported times are at the reference host speed (speed.py); the raw
    # ones go into the workload record beside them.
    values = _end_to_end(cells, scaled, failed_ops, cold.ms, setup_s)
    values["peak_rss_mb"] = peak_rss_mb
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}

    report = workload_report(corpus, raw, scaled, first, failures, same)
    report["raw_end_to_end"] = _end_to_end(cells, raw, failed_ops, cold.raw_ms, raw_setup)
    report["kernel_ms_median"] = statistics.median(clock.kernel_samples)
    report["cold_start_input"] = cold.input.name
    report["cold_start_output_ok"] = cold.ok
    print(json.dumps(report, indent=1))
    correct = same and cold.ok and all(f["known"] for f in failures)
    # Ops, not samples: the number of samples follows the host's speed,
    # while which ops fail follows only the inputs.
    print(_result(correct, len(corpus.ops), len(failures), metrics))
    return 0


def traced_run(args, dispatch) -> int:
    import spans

    corpus, _ = setup(args.workload, args.seed, dispatch)
    raw, scaled, first, same = measure(dispatch, corpus.ops, 0)
    untraced = sum(t for ts in raw.values() for t in ts)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_raw, _, traced_first, _ = measure(dispatch, corpus.ops, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    traced = sum(t for ts in traced_raw.values() for t in ts)
    same &= all(traced_first[k][:2] == first[k][:2] for k in first)
    _, failures = check_all(corpus, first)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(str(span_file))
    report = workload_report(corpus, raw, scaled, first, failures, same)
    report["span_file"] = str(span_file.relative_to(ROOT))
    report["span_count"] = len(tracer.spans)
    print(json.dumps(report, indent=1))
    correct = same and all(f["known"] for f in failures)
    print(_result(correct, len(corpus.ops), len(failures), tracer.metrics(traced / untraced)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
