"""Byte-identity gate: run the fixed set of CLI jobs, or compare two runs.

    PYTHONPATH=src python tools/byte_gate.py run OUT
    python tools/byte_gate.py diff A B

``run`` sends 31 jobs through ``bcvhelix.cli.main`` in this process: the
22 benchmark jobs of ``perfbench/inputs.py`` (``make_jobs`` of each
workload) and the three shipped configs under ``configs/`` through
``verify``, ``export`` and ``deform``.  It uses the ``bcvhelix`` that
``import bcvhelix`` finds (this checkout's ``src`` if none is on the path),
so pointing PYTHONPATH at another checkout's ``src`` runs that code against
the same job set.  Each job gets the directory ``OUT/<name>/`` with its
config ``job.json``, ``exit_code``, ``stdout``, ``stderr`` and the files it
wrote under ``out/``.  Paths handed to the CLI are relative to that
directory, so two runs in different places can be compared byte for byte.
It writes every job, then lists the jobs whose exit code is not 0 and
exits 1 if there is any, else 0.

``diff`` lists every file present in only one of two run directories or
with different bytes, and exits 1 if there is any, else 0.  Under each
differing file it says what moved: a changed exit code, and for a JSON
report (``*.json``, ``stdout``) or a CSV file the largest absolute change of
a number, with its place and both values, and every changed ``pass`` field.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_COMMANDS = ("verify", "export", "deform")

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import inputs  # noqa: E402  (the benchmark's job lists)


def _jobs() -> list[tuple[str, str, dict]]:
    """(name, command, config) of every run, in a fixed order."""
    jobs = [
        (f"{workload}-{job.name}", job.command, job.config)
        for workload in inputs.WORKLOADS
        for job in inputs.make_jobs(workload, 0)
    ]
    cfg_dir = os.path.join(ROOT, "configs")
    for fname in sorted(os.listdir(cfg_dir)):
        with open(os.path.join(cfg_dir, fname)) as fh:
            cfg = json.load(fh)
        stem = os.path.splitext(fname)[0]
        jobs += [(f"shipped-{cmd}-{stem}", cmd, cfg) for cmd in SHIPPED_COMMANDS]
    return jobs


def load_cli():
    """``bcvhelix.cli`` as ``import bcvhelix`` finds it, else from this
    checkout's ``src``."""
    try:
        import bcvhelix.cli
    except ImportError:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import bcvhelix.cli
    return bcvhelix.cli


def run_job(cli, job_dir: str, command: str, cfg: dict):
    """Run one job through ``cli.main`` into the new directory job_dir, laid
    out as ``run`` lays out each job; (its exit code, or "crash" after an
    uncaught exception, whose traceback goes to stderr; its stderr text)."""
    os.makedirs(job_dir)
    with open(os.path.join(job_dir, "job.json"), "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
    stdout, stderr = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(job_dir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main([command, "--config", "job.json", "--out", "out"])
            except Exception:
                rc = "crash"
                traceback.print_exc()
    finally:
        os.chdir(home)
    captured = {
        "exit_code": f"{rc}\n",
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
    }
    for fname, text in captured.items():
        with open(os.path.join(job_dir, fname), "w") as fh:
            fh.write(text)
    return rc, captured["stderr"]


def run(out: str) -> int:
    cli = load_cli()
    print(f"bcvhelix from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    failing = []
    for name, command, cfg in _jobs():
        rc, _ = run_job(cli, os.path.join(out, name), command, cfg)
        print(f"{name}: exit {rc}", file=sys.stderr)
        if rc != 0:
            failing.append(f"{name}: exit {rc}")
    for line in failing:
        print(f"nonzero exit: {line}", file=sys.stderr)
    return 1 if failing else 0


def _files(top: str) -> dict[str, str]:
    """Relative path -> absolute path of every file below top."""
    found = {}
    for dirpath, _, fnames in os.walk(top):
        for fname in fnames:
            path = os.path.join(dirpath, fname)
            found[os.path.relpath(path, top)] = path
    return found


def _number(x):
    """x as a float if it is a JSON or CSV number, else None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _leaves(x, path=""):
    """(path, value) of every scalar in a parsed JSON value."""
    if isinstance(x, dict):
        for key in sorted(x):
            yield from _leaves(x[key], f"{path}.{key}" if path else str(key))
    elif isinstance(x, list):
        for i, item in enumerate(x):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, x


def _csv_cells(text: str):
    """(path, cell) of every CSV cell; the path names the row and the header."""
    rows = [line.split(",") for line in text.splitlines()]
    header = rows[0] if rows else []
    for r, row in enumerate(rows[1:], start=1):
        for c, cell in enumerate(row):
            yield f"row {r} {header[c] if c < len(header) else c}", cell


def _moves(rel: str, old: bytes, new: bytes) -> list[str]:
    """What moved between two versions of one file, one line each."""
    name = os.path.basename(rel)
    old_t, new_t = old.decode(errors="replace"), new.decode(errors="replace")
    if name == "exit_code":
        return [f"exit code {old_t.strip()} -> {new_t.strip()}"]
    try:
        if name.endswith(".csv"):
            cells_a, cells_b = dict(_csv_cells(old_t)), dict(_csv_cells(new_t))
        elif name.endswith(".json") or name == "stdout":
            cells_a = dict(_leaves(json.loads(old_t)))
            cells_b = dict(_leaves(json.loads(new_t)))
        else:
            return []
    except ValueError:
        return ["not parsed"]
    lines = []
    if cells_a.keys() != cells_b.keys():
        lines.append(f"{len(cells_a.keys() ^ cells_b.keys())} places in only one file")
    worst = None
    for path in sorted(cells_a.keys() & cells_b.keys()):
        x, y = cells_a[path], cells_b[path]
        if x == y:
            continue
        if path == "pass" or path.endswith(".pass"):
            lines.append(f"pass at {path}: {json.dumps(x)} -> {json.dumps(y)}")
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            lines.append(f"{path}: {x!r} -> {y!r}")
            continue
        if math.isnan(fx) and math.isnan(fy):
            continue
        change = abs(fy - fx)
        if math.isnan(change):
            change = math.inf
        if worst is None or change > worst[0]:
            worst = (change, path, x, y)
    if worst is not None:
        change, path, x, y = worst
        lines.insert(0, f"max |change| {change:.3g} at {path}: {x} -> {y}")
    return lines


def diff(a: str, b: str) -> int:
    fa, fb = _files(a), _files(b)
    differing = []
    for rel in sorted(fa.keys() | fb.keys()):
        if rel not in fa or rel not in fb:
            differing.append(f"{rel}: only in {a if rel in fa else b}")
            continue
        with open(fa[rel], "rb") as ha, open(fb[rel], "rb") as hb:
            old, new = ha.read(), hb.read()
        if old != new:
            differing.append(f"{rel}: bytes differ")
            differing += [f"  {line}" for line in _moves(rel, old, new)]
    for line in differing:
        print(line)
    total = len(fa.keys() | fb.keys())
    count = sum(not line.startswith(" ") for line in differing)
    print(f"{count} of {total} files differ", file=sys.stderr)
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every job into a new directory; exit 1 if any job exits nonzero")
    p.add_argument("out")
    p = sub.add_parser("diff", help="compare two run directories")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(os.path.abspath(args.out))
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
