"""One workload in one fresh interpreter: set up, run jobs, check outputs.

Started by ``run.py`` from the root of a checkout.  Jobs go through
``bcvhelix.cli.main`` in a closed loop (one job at a time, no threads).  The
timed phase runs passes over the job list until ``--seconds`` have elapsed
(see ``run_phase``).  Output checks run after the timed phases.  Prints one JSON line with the raw
figures for ``run.py`` to reduce; ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402  (the benchmark's own module, stdlib only)


@dataclass
class JobRecord:
    index: int  # position in the job list
    phase: str  # "untraced" or "traced"
    rep: int  # pass number within the phase
    rc: object  # exit code, or "crash" on an uncaught exception
    start: float  # perf_counter() when the job started
    seconds: float
    out_dir: str
    stdout: str
    stderr: str
    problems: list = field(default_factory=list)  # benchmark-side check failures
    passed: bool = False  # the program's own verdict: exit 0 and report pass


class SpeedProbe:
    """The host's speed over time, sampled inside this process.

    On a shared host the speed of this vCPU swings by about 1.5x in spells
    of seconds to minutes (other tenants on the same core and cache), and a
    job of several seconds cannot dodge them by repetition.  While running,
    a 25 Hz real-time timer runs a fixed pure-Python kernel (0.1-0.15 ms,
    about 0.3 % of the time) in the signal handler and records its duration.
    ``scale(a, b)`` is ``REF_S`` over the kernel's mean duration around
    [a, b]; a wall time times this scale is the time in units of the
    kernel, expressed in seconds through the fixed ``REF_S``.  The program
    under test sets no signal handlers, and Python retries the system calls
    the timer interrupts.
    """

    PERIOD_S = 0.04
    HALO_S = 0.25  # a short interval also takes the samples this close to it
    # Nominal kernel duration.  It only sets the scale of the reported
    # seconds: about the kernel's fastest duration on a 2 GHz Xeon vCPU, so
    # scaled times come out near wall times on that host at its fastest.
    REF_S = 100e-6

    def __init__(self):
        self.times: list = []
        self.durations: list = []

    def _tick(self, signum, frame):
        t = perf_counter()
        x = 0.0
        for i in range(1200):
            x += (i * 0.5) % 3.0
        self.times.append(t)
        self.durations.append(perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, a: float, b: float) -> float:
        lo = bisect.bisect_left(self.times, a - self.HALO_S)
        hi = bisect.bisect_right(self.times, b + self.HALO_S)
        if lo == hi:  # no sample near: a long C call held the signal back
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return self.REF_S / statistics.fmean(self.durations[lo:hi])

    def summary(self) -> dict:
        return {
            "samples": len(self.durations),
            "kernel_min_s": min(self.durations),
            "kernel_median_s": statistics.median(self.durations),
        }


def run_job(cli, argv: list) -> tuple:
    """(exit code, start, seconds, stdout, stderr) of one ``bcvhelix`` invocation."""
    out, err = io.StringIO(), io.StringIO()
    t = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            rc = "crash"
            traceback.print_exc()
    return rc, t, perf_counter() - t, out.getvalue(), err.getvalue()


def run_phase(cli, jobs, cfg_paths, out_root, phase, seconds, fill, tracer=None):
    """Passes over ``jobs`` in list order until ``seconds`` have elapsed, the
    first pass always whole; returns (records, elapsed).

    With ``fill`` a later pass skips every job whose best time so far does
    not fit in the time left, so the run ends close to ``seconds`` and the
    short jobs get repetitions spread over the whole run while a long job
    (verify's oscillatory family, about 20 s) may run once.  Without it
    every pass is whole, so each job weighs the same in per-job averages.
    """
    records = []
    best = [math.inf] * len(jobs)
    start = perf_counter()
    for rep in itertools.count():
        if rep and perf_counter() - start >= seconds:
            break
        ran = False
        for k, job in enumerate(jobs):
            if rep and fill and best[k] > seconds - (perf_counter() - start):
                continue
            out_dir = os.path.join(out_root, f"{phase}-{rep}", f"{k:02d}")
            if tracer is not None:
                tracer.job = (phase, rep, k)
            rc, t, took, stdout, stderr = run_job(
                cli, [job.command, "--config", cfg_paths[k], "--out", out_dir]
            )
            records.append(JobRecord(k, phase, rep, rc, t, took, out_dir, stdout, stderr))
            best[k] = min(best[k], took)
            ran = True
        if not ran:
            break
    return records, perf_counter() - start


def _digests(out_dir: str) -> dict:
    if not os.path.isdir(out_dir):
        return {}
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@functools.lru_cache(maxsize=None)
def _profile_csv_problems(text: str, nu: int) -> tuple:
    """``nu`` rows of finite u, xi1, xi2, theta0, U with xi1 > 0.  Cached on
    the text, so repeats with identical bytes are parsed once."""
    lines = text.splitlines()
    if lines[:1] != ["u,xi1,xi2,theta0,U"]:
        return (f"unexpected header {lines[:1]}",)
    rows = lines[1:]
    if len(rows) != nu:
        return (f"{len(rows)} rows, expected {nu}",)
    for i, row in enumerate(rows):
        vals = [float(tok) for tok in row.split(",")]
        if len(vals) != 5 or not all(math.isfinite(v) for v in vals) or vals[1] <= 0.0:
            return (f"bad row {i}: {row}",)
    return ()


def _check_profile_csv(path: str, nu: int) -> list:
    with open(path) as fh:
        text = fh.read()
    return [f"{os.path.basename(path)}: {p}" for p in _profile_csv_problems(text, nu)]


def check_record(rec: JobRecord, job) -> None:
    """The program's own gates and the benchmark-side output checks.

    A report whose gates fail (``pass: false``, exit 1) is a correct output:
    the program ran and told the truth about the surface.  It sets
    ``rec.passed`` to False, which the ``pass_ratio`` metric counts.  Only
    wrong or missing outputs go into ``rec.problems``; those make the
    operation failed and the run not correct.
    """
    if rec.rc not in (0, 1):
        rec.problems.append(f"exit status {rec.rc!r}: {rec.stderr.strip()[-300:]}")
        return
    report_path = os.path.join(rec.out_dir, job.report_name)
    if not os.path.exists(report_path):
        rec.problems.append(f"exit {rec.rc} without {job.report_name}: {rec.stderr.strip()[-300:]}")
        return
    with open(report_path) as fh:
        report = json.load(fh)
    lines = rec.stdout.strip().splitlines()
    try:
        printed = json.loads(lines[-1]) if lines else None
    except ValueError:
        printed = None
    if printed != report:
        rec.problems.append("stdout report differs from the report file")
    verdict = report.get("pass", True)
    if rec.rc != (0 if verdict else 1):
        rec.problems.append(f"exit {rec.rc} disagrees with report pass={verdict}")
    if job.command in ("minimal", "cmc", "chart"):
        nu = job.config["grid"]["nu"]
        csv_path = os.path.join(rec.out_dir, f"{job.basename}.profile.csv")
        if not os.path.exists(csv_path):
            rec.problems.append("profile CSV missing")
        else:
            rec.problems.extend(_check_profile_csv(csv_path, nu))
    rec.passed = rec.rc == 0 and verdict is True and not rec.problems


def check_all(records, jobs) -> None:
    """Per-job checks, then byte identity of every output across repeats."""
    first = {}
    for rec in records:
        check_record(rec, jobs[rec.index])
        seen = (rec.rc, _digests(rec.out_dir))
        ref = first.setdefault(rec.index, (rec, seen))
        if ref[1] != seen:
            rec.problems.append(
                f"outputs differ from {ref[0].phase} pass {ref[0].rep} "
                f"(exit {ref[1][0]} vs {seen[0]})"
            )
            rec.passed = False


def _lower_quartile(values: list) -> float:
    """Interference only adds time, so the fast end of a job's repetitions is
    its steady estimate; the lower quartile is less jumpy than the minimum."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _versions(bcvhelix) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bcvhelix": bcvhelix.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="scratch directory for configs and outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    t0 = perf_counter()  # set-up: import, input generation, config writing
    import bcvhelix
    from bcvhelix import cli

    if not os.path.abspath(bcvhelix.__file__).startswith(src + os.sep):
        print(f"bcvhelix imported from {bcvhelix.__file__}, not from {src}", file=sys.stderr)
        return 2
    jobs = inputs.make_jobs(args.workload, args.seed)
    cfg_paths = inputs.write_configs(jobs, os.path.join(args.work, "configs"))
    setup_wall_s = perf_counter() - t0
    if args.setup_only:
        time.sleep(SpeedProbe.HALO_S)  # the samples just after set-up count too
        probe.stop()
        print(json.dumps({
            "setup_wall_s": setup_wall_s,
            "setup_s": setup_wall_s * probe.scale(t0, t0 + setup_wall_s),
        }))
        return 0

    out_root = os.path.join(args.work, "out")
    if args.trace:
        # untraced and traced halves over the same job mix: their ratio is
        # the tracing overhead
        from tracing import UNITS, Tracer

        records, elapsed = run_phase(
            cli, jobs, cfg_paths, out_root, "untraced", args.seconds / 2, False
        )
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_elapsed = run_phase(
                cli, jobs, cfg_paths, out_root, "traced", args.seconds / 2, False, tracer
            )
        finally:
            tracer.uninstall()
        records += traced
    else:
        try:
            records, elapsed = run_phase(
                cli, jobs, cfg_paths, out_root, "untraced", args.seconds, True
            )
        finally:
            probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_all(records, jobs)
    untraced = [r for r in records if r.phase == "untraced"]
    result = {
        "setup_wall_s": setup_wall_s,
        "versions": _versions(bcvhelix),
        "jobs": [
            {"name": j.name, "command": j.command, "config": os.path.basename(p)}
            for j, p in zip(jobs, cfg_paths)
        ],
        "attempted": len(records),
        "failed": sum(bool(r.problems) for r in records),
        "gate_failed": sum(not r.passed for r in records),
        "correct": not any(r.problems for r in records),
        "problems": [
            {"job": jobs[r.index].name, "phase": r.phase, "pass": r.rep, "problems": r.problems}
            for r in records
            if r.problems
        ],
        "gate_failed_jobs": sorted({jobs[r.index].name for r in records if not r.passed}),
        "job_seconds": [[r.index, r.seconds] for r in untraced],
        "best_seconds": [min(r.seconds for r in untraced if r.index == k) for k in range(len(jobs))],
        "elapsed_s": elapsed,
        "passes": 1 + max(r.rep for r in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    if not args.trace:
        result["setup_s"] = setup_wall_s * probe.scale(t0, t0 + setup_wall_s)
        scaled = [[r.index, r.seconds * probe.scale(r.start, r.start + r.seconds)] for r in untraced]
        result["scaled_seconds"] = scaled
        result["q1_scaled_seconds"] = [
            _lower_quartile([t for i, t in scaled if i == k]) for k in range(len(jobs))
        ]
        result["speed_probe"] = probe.summary()
    if args.trace:
        n = len(traced)
        layers = tracer.layer_metrics(n)
        layers["trace.jobs_per_s"] = n / traced_elapsed
        # per-job mean times, so the halves compare like for like even when
        # they ran different numbers of passes
        layers["trace.overhead"] = sum(
            statistics.fmean(r.seconds for r in traced if r.index == k) for k in range(len(jobs))
        ) / sum(
            statistics.fmean(r.seconds for r in untraced if r.index == k) for k in range(len(jobs))
        )
        result["per_layer"] = {
            name: {"value": layers[name], "unit": unit} for name, unit in UNITS.items()
        }
        result["trace"] = tracer.details(n)
    shutil.rmtree(out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
