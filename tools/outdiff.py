"""Compare the command-line output of two trees of this repository.

    python3 tools/outdiff.py BASE [HEAD]

BASE and HEAD are git refs. Each is checked out with ``git worktree``
under a temporary directory, which is removed at exit; without HEAD the
working tree is compared. Every command of a fixed matrix runs on a fixed
corpus in both trees:

* corpus: the perfbench inputs of seeds 1-3 (``perfbench/corpus.py``),
  raw Bernoulli grids (PBM P1 and P4, vox3), copies of some of them in
  the forms the readers treat apart (``_reader_variants``), and every
  ``gen`` shape at two seeds, whose outputs are also analysed. Files with
  equal bytes run once;
* matrix: components, holes, genus, homology, validate and repair on
  every input, each with every subset of ``--json`` and the flags of
  ``FLAGS``; gen with and without ``--json``. ``bench`` is left out, as
  it reports times.

Each tree runs the whole matrix in one subprocess, in process through
``digitopo.cli_dispatch``, with ``PYTHONPATH`` set to that tree's
``src``. A run's exit code, stdout (the human printer's timestamp line
masked), stderr and written bytes are compared. The differences are
printed grouped by command and flag set, then one summary line; the exit
status is 1 when any run differs. Within a group, runs whose stdout is
JSON on both sides are also counted by the key paths whose values differ
(``_json_paths``), such as ``components[].surfaces[].genus``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"

FLAGS = {
    "components": (),
    "holes": ("--no-repair", "--no-fallback-oracle"),
    # genus no longer takes --no-fallback-oracle; the runs keep its exit 64 in view.
    "genus": ("--no-repair", "--no-fallback-oracle", "--streaming"),
    "homology": ("--no-repair", "--no-fallback-oracle"),
    # validate no longer takes --no-fallback-oracle; the runs keep its exit 64 in view.
    "validate": ("--no-repair", "--no-fallback-oracle"),
    "repair": ("-o",),
}
SHAPES = (
    "block2d", "block3d", "frame", "shell", "poly2d", "holey2d", "blob3d", "noisy2d", "noisy3d",
)
_STAMP = re.compile(r"\A# \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d ")
_SHOWN = 5  # example runs listed per group


# ---------------------------------------------------------------------------
# corpus


def _perfbench_corpus():
    """``perfbench/corpus.py``, whose writers and inputs the corpus uses."""
    if "perfbench_corpus" not in sys.modules:
        path = ROOT / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
        # Registered before it runs: its dataclasses look their module up.
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_corpus"]


def _raw_grids(into: Path, count: int, side2: int, side3: int, seed: int = 20131) -> None:
    """``count`` Bernoulli images as P1, as many as P4, and as many
    volumes: sides drawn from 1..side, density from 0..1."""
    import numpy as np

    corpus = _perfbench_corpus()
    rng = np.random.default_rng(seed)
    for i in range(count):
        for kind in ("p1", "p4", "vox3"):
            side = side3 if kind == "vox3" else side2
            shape = rng.integers(1, side + 1, size=3 if kind == "vox3" else 2)
            cells = rng.random(tuple(shape.tolist())) < rng.random()
            if kind == "vox3":
                corpus.write_vox3(str(into / f"raw{i}.vox3"), cells)
            else:
                corpus.write_pbm(str(into / f"raw{i}-{kind}.pbm"), cells, kind == "p4")


def _reader_variants(into: Path, count: int, seed: int = 20132) -> None:
    """Copies of the first ``count`` raw grids in the forms the readers
    treat apart: vox3 with CRLF and with lone-CR line ends, P1 with spaced
    bits and with comments, and each file truncated past its header and
    with bit 6 of one body byte flipped, which makes any P1 or vox3 byte
    a bad one."""
    import numpy as np

    rng = np.random.default_rng(seed)
    for i in range(count):
        raw = {ext: (into / f"raw{i}{ext}").read_bytes() for ext in (".vox3", "-p1.pbm", "-p4.pbm")}
        magic, dims, *rows = raw["-p1.pbm"].split(b"\n")[:-1]
        spaced = [r.replace(b"0", b"0 ").replace(b"1", b"1\t") for r in rows]
        commented = [magic + b" # raw", dims, b"# rows follow", *(r + b" # row" for r in rows)]
        variants = {
            "-crlf.vox3": raw[".vox3"].replace(b"\n", b"\r\n"),
            "-cr.vox3": raw[".vox3"].replace(b"\n", b"\r"),
            "-spaced.pbm": b"\n".join([magic, dims, *spaced]) + b"\n",
            "-comment.pbm": b"\n".join(commented) + b"\n",
        }
        for ext, data in raw.items():
            # The header is vox3's first line, and a PBM's first two.
            body = data.index(b"\n", 3 if ext.endswith(".pbm") else 0) + 1
            variants[f"-cut{ext}"] = data[: int(rng.integers(body, len(data)))]
            flipped = bytearray(data)
            flipped[int(rng.integers(body, len(data)))] ^= 0x40
            variants[f"-flip{ext}"] = bytes(flipped)
        for ext, data in variants.items():
            (into / f"raw{i}{ext}").write_bytes(data)


def _perfbench_inputs(into: Path, seeds=(1, 2, 3)) -> None:
    """The inputs ``perfbench/corpus.py`` draws for each workload and seed,
    in one directory per workload and seed."""
    corpus = _perfbench_corpus()
    cwd = os.getcwd()
    try:
        for workload, seed in itertools.product(corpus.WORKLOADS, seeds):
            d = into / f"{workload}-s{seed}"
            d.mkdir()
            os.chdir(d)
            corpus.build(workload, seed)
    finally:
        os.chdir(cwd)


def build_corpus(into: Path, tiny: bool = False) -> tuple[list, list]:
    """Write the input files under ``into``. Returns the gen command lines
    (argv, output path) and the input paths, both relative to a tree's
    working directory, where ``into`` is linked as ``in``."""
    if tiny:
        _raw_grids(into, 2, 12, 5)
        _reader_variants(into, 1)
        seeds = (1,)
    else:
        _perfbench_inputs(into)
        _raw_grids(into, 12, 40, 12)
        _reader_variants(into, 4)
        seeds = (1, 2)
    gens = []
    for shape, seed in itertools.product(SHAPES, seeds):
        ext = "vox3" if shape.endswith("3d") or shape in ("frame", "shell") else "pbm"
        out = f"gen/{shape}-s{seed}.{ext}"
        gens.append((["gen", shape, out, "--seed", str(seed)], out))
    # Files with equal bytes (perfbench's fixed shapes, repeated per seed)
    # run once, under their first name.
    seen, inputs = set(), []
    for path in sorted(p for p in into.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).digest()
        if digest not in seen:
            seen.add(digest)
            inputs.append("in/" + path.relative_to(into).as_posix())
    return gens, inputs + [out for _, out in gens]


def matrix(gens: list, inputs: list) -> list[dict]:
    """The runs: each gen command with and without ``--json``, then every
    command on every input with every subset of its flags."""
    cases = []
    for (argv, out), json_flag in itertools.product(gens, ((), ("--json",))):
        cmd, *rest = argv
        flags = " ".join(json_flag)
        cases.append({"group": f"gen {flags}".strip(), "input": rest[1],
                      "argv": [cmd, *json_flag, *rest], "output": out})
    for path in inputs:
        ext = path.rsplit(".", 1)[1]
        for cmd, extra in FLAGS.items():
            for n in range(len(extra) + 2):
                for flags in itertools.combinations(("--json", *extra), n):
                    argv, output = [cmd], None
                    for flag in flags:
                        if flag == "-o":
                            output = f"out.{ext}"
                            argv += ["-o", output]
                        else:
                            argv.append(flag)
                    cases.append({"group": " ".join([cmd, *flags]), "input": path,
                                  "argv": argv + [path], "output": output})
    return cases


# ---------------------------------------------------------------------------
# running one tree


def _digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _json_paths(text: bytes) -> dict[str, str] | None:
    """A digest of the values at each key path of the JSON document
    ``text``, or None when it is not one. A path names the keys from the
    root, with ``[]`` for the items of a list: ``components[].holes``
    holds every component's hole count, in document order, and
    ``components`` the length of the list."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    values = defaultdict(list)
    todo = [("", doc)]
    while todo:
        path, node = todo.pop()
        if isinstance(node, dict):
            todo += [(f"{path}.{key}" if path else key, v) for key, v in reversed(node.items())]
        elif isinstance(node, list):
            values[path].append(len(node))
            todo += [(f"{path}[]", v) for v in reversed(node)]
        else:
            values[path].append(node)
    return {path: _digest(json.dumps(v).encode()) for path, v in values.items()}


def work(cases_path: str, results_path: str) -> None:
    """Run every case of ``cases_path`` through ``cli_dispatch`` in this
    process and write one result per case to ``results_path``."""
    import digitopo

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if src not in Path(digitopo.__file__).resolve().parents:
        raise SystemExit(f"outdiff: imported digitopo from {digitopo.__file__}, not {src}")
    Path("gen").mkdir(exist_ok=True)
    results = []
    for case in json.loads(Path(cases_path).read_text()):
        output = Path(case["output"]) if case["output"] else None
        if output is not None and output.exists():
            output.unlink()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = digitopo.cli_dispatch(case["argv"])
            except Exception:  # a crash is a result; its traceback names the tree's paths
                code = "crash"
                err.write(traceback.format_exc().strip().splitlines()[-1])
        stdout = _STAMP.sub("# <time> ", out.getvalue(), count=1).encode()
        written = output.read_bytes() if output is not None and output.exists() else None
        results.append({
            "exit": code,
            "stdout": _digest(stdout),
            "stdout_bytes": len(stdout),
            "json": _json_paths(stdout) if "--json" in case["argv"] else None,
            "stderr": err.getvalue(),
            "output": _digest(written),
        })
    Path(results_path).write_text(json.dumps(results))


def _start(src: Path, workdir: Path, inputs: Path, cases_path: Path) -> subprocess.Popen:
    workdir.mkdir()
    (workdir / "in").symlink_to(inputs, target_is_directory=True)
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{TOOLS}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    code = "import sys, outdiff; outdiff.work(*sys.argv[1:])"
    argv = [sys.executable, "-c", code, str(cases_path), str(workdir / "results.json")]
    return subprocess.Popen(argv, cwd=workdir, env=env)


def compare(src_a: Path, src_b: Path, scratch: Path, tiny: bool = False) -> tuple[list, list]:
    """Run the matrix on the ``digitopo`` of ``src_a`` and of ``src_b``,
    both at once, under ``scratch``. Returns the cases and, per case, the
    pair of results when they differ, else None."""
    inputs = scratch / "inputs"
    inputs.mkdir()
    cases = matrix(*build_corpus(inputs, tiny))
    cases_path = scratch / "cases.json"
    cases_path.write_text(json.dumps(cases))
    procs = [
        _start(Path(src).resolve(), scratch / side, inputs, cases_path)
        for src, side in ((src_a, "a"), (src_b, "b"))
    ]
    try:
        if any([proc.wait() for proc in procs]):
            raise SystemExit("outdiff: a tree's run failed")
    finally:
        for proc in procs:
            proc.kill()
    a, b = (json.loads((scratch / side / "results.json").read_text()) for side in "ab")
    return cases, [None if x == y else (x, y) for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# report


def _describe(x: dict, y: dict) -> str:
    parts = []
    if x["exit"] != y["exit"]:
        parts.append(f"exit {x['exit']} -> {y['exit']}")
    if x["stdout"] != y["stdout"]:
        parts.append(f"stdout {x['stdout_bytes']} B -> {y['stdout_bytes']} B")
    if x["stderr"] != y["stderr"]:
        last = [s.strip().splitlines()[-1][:100] if s.strip() else "" for s in (x["stderr"], y["stderr"])]
        parts.append(f"stderr {last[0]!r} -> {last[1]!r}")
    if x["output"] != y["output"]:
        parts.append("written bytes differ")
    return "; ".join(parts)


def _key_paths(x: dict, y: dict) -> list[str]:
    """The JSON key paths whose values differ between two runs' stdout,
    or none when either is not JSON."""
    if x["stdout"] == y["stdout"] or x["json"] is None or y["json"] is None:
        return []
    return sorted(p for p in x["json"].keys() | y["json"].keys() if x["json"].get(p) != y["json"].get(p))


def report(cases: list, diffs: list) -> list[str]:
    """The differences grouped by command and flag set, with the JSON key
    paths that differ, then one line."""
    groups: dict[str, list] = {}
    runs = Counter(case["group"] for case in cases)
    for case, diff in zip(cases, diffs):
        if diff is not None:
            groups.setdefault(case["group"], []).append((case["input"], *diff))
    lines = []
    for group, found in groups.items():
        lines.append(f"== {group}: {len(found)} of {runs[group]} runs differ")
        exits = Counter(f"exit {x['exit']} -> {y['exit']}" for _, x, y in found)
        lines.append("   " + ", ".join(f"{k}: {n}" for k, n in sorted(exits.items())))
        keys = Counter(p for _, x, y in found for p in _key_paths(x, y))
        if keys:
            lines.append("   json keys: " + ", ".join(f"{k}: {n}" for k, n in sorted(keys.items())))
        for path, x, y in found[:_SHOWN]:
            lines.append(f"   {path}: {_describe(x, y)}")
        if len(found) > _SHOWN:
            lines.append(f"   ... and {len(found) - _SHOWN} more")
    differ = sum(len(found) for found in groups.values())
    lines.append(
        f"outdiff: {len(cases)} runs per tree, {differ} differ,"
        f" in {len(groups)} of {len(runs)} command and flag sets"
    )
    return lines


# ---------------------------------------------------------------------------
# git


@contextlib.contextmanager
def checkout(ref: str, path: Path):
    """The ``src`` of ``ref``, checked out with ``git worktree`` at
    ``path`` and removed on exit."""
    git = ["git", "-C", str(ROOT), "worktree"]
    subprocess.run(git + ["add", "--detach", "--quiet", str(path), ref], check=True)
    try:
        yield path / "src"
    finally:
        subprocess.run(git + ["remove", "--force", str(path)], check=False)


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="git ref of the tree to compare against")
    p.add_argument("head", nargs="?", help="git ref of the other tree (default: the working tree)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="outdiff-") as tmp, contextlib.ExitStack() as stack:
        tmp = Path(tmp)
        src_a = stack.enter_context(checkout(args.base, tmp / "base"))
        if args.head is None:
            src_b = ROOT / "src"
        else:
            src_b = stack.enter_context(checkout(args.head, tmp / "head"))
        scratch = tmp / "runs"
        scratch.mkdir()
        cases, diffs = compare(src_a, src_b, scratch)
    print(f"outdiff: {args.base} against {args.head or 'the working tree'}")
    print("\n".join(report(cases, diffs)))
    return 1 if any(diffs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
