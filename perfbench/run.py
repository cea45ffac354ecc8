"""bcvhelix benchmark: the jobs users run, timed end to end through the CLI.

    python3 perfbench/run.py --workload deform|verify|construct \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in a fresh interpreter (``worker.py``) with BLAS pinned to
one thread, and sends jobs through ``bcvhelix.cli.main`` in a closed loop:
one client, one job at a time.  The seed only sets the job order.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over four
fresh interpreters of import + input generation + config writing),
``jobs_per_s``, ``job_s.p50``, ``job_s.tail``, ``pass_ratio`` and
``peak_rss_mb``.  ``pass_ratio`` is the share of the job list whose every
repetition passed the program's own gates (exit 0, report ``pass: true``) and
the benchmark's output checks; it stands in for fail_ratio (printed in the
details line), which reads 0 on most workloads and so admits no relative
bound.  A gate that fails, like the first-form gate of the kappa=-4 cosh
member of ``verify``, lowers ``pass_ratio`` but is a correct output: the
result line's ``failed`` counts only operations whose output is wrong or
missing (crash, report and exit status disagreeing, a bad profile CSV, bytes
differing across repeats), and any such operation makes ``correct`` false.
``--trace 1`` runs whole passes for half the time untraced and half with
``tracing.Tracer`` installed, and prints the per-layer metrics, including the
tracing overhead.

Every time metric is host-speed-scaled.  On a shared host the speed of
this vCPU swings by about 1.5x in spells of seconds to minutes, because of
load this process cannot see, so raw wall times of the same code spread
20-45 % between runs.  ``worker.SpeedProbe`` samples the host's speed inside
the timed process (a fixed Python kernel run by a 25 Hz timer) and each wall
time is multiplied by the probe's scale over the same interval: the result
is the time in units of the kernel, given in seconds through a fixed nominal
kernel duration.  Raw wall times stay in the details line.  Per job the
metrics use the lower quartile of its scaled repetitions in the run
(interference only adds time); after the first whole pass, later passes
skip any job that no longer fits in the time left (``worker.run_phase``), so
repetitions spread over the run.  ``jobs_per_s`` is the job count over the
sum of these per-job times, ``job_s.p50`` their median and ``job_s.tail`` the
highest whole percentile with ten or more of them beyond it -- their
maximum, as no job list has twenty jobs.  The details line also carries the
unscaled rate and the plain closed-loop rate (jobs run / elapsed).

The last stdout line is the result object; the line before it records the
environment, the tail percentile and sample count, and the jobs whose gates
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from inputs import WORKLOADS  # noqa: E402  (stdlib only; imports no bcvhelix)

SETUP_PROBES = 3  # extra fresh interpreters timed for setup_s
TIME_LIMIT_S = 170.0  # whole run, set-up probes included
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def tail(samples: list) -> tuple:
    """(percentile, value) of the highest whole percentile with at least ten
    samples beyond it; the maximum (percentile 100) below twenty samples."""
    n = len(samples)
    if n < 20:
        return 100, max(samples)
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    """sha256 over src/**/*.py, so results name the code even without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk("src")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, versions: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        **versions,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _worker(args, work: str, extra: list, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run(
            cmd, env={**os.environ, **PINNED}, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit and was killed")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _value(v: float, unit: str) -> dict:
    return {"value": v, "unit": unit}


def end_to_end(res: dict, setups: list) -> tuple:
    per_job = res["q1_scaled_seconds"]
    p, tail_value = tail(per_job)
    metrics = {
        "setup_s": _value(statistics.median(s["setup_s"] for s in setups), "s"),
        "jobs_per_s": _value(len(per_job) / sum(per_job), "1/s"),
        "job_s.p50": _value(statistics.median(per_job), "s"),
        "job_s.tail": _value(tail_value, "s"),
        "pass_ratio": _value(1 - len(res["gate_failed_jobs"]) / len(per_job), "1"),
        "peak_rss_mb": _value(res["peak_rss_mb"], "MB"),
    }
    return metrics, {
        "tail_percentile": p,
        "samples": len(per_job),
        "closed_loop_jobs_per_s": len(res["job_seconds"]) / res["elapsed_s"],
        "best_wall_seconds": res["best_seconds"],
        "unscaled_best_jobs_per_s": len(per_job) / sum(res["best_seconds"]),
        "scaled_seconds": res["scaled_seconds"],
        "speed_probe": res["speed_probe"],
    }


def _summary(metrics: dict, details: dict) -> str:
    lines = [f"{name:42s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if "tail_percentile" in details:
        lines.append(
            f"job_s.tail is p{details['tail_percentile']} of the per-job times of "
            f"{details['samples']} jobs over {details['passes']} passes"
        )
    if details.get("gate_failed_jobs"):
        lines.append(f"jobs whose gates failed: {', '.join(details['gate_failed_jobs'])}")
    if details.get("problems"):
        lines.append(f"operations with wrong output: {len(details['problems'])}")
    if "oracle.first_form.us_per_call" in metrics and metrics["oracle.first_form.calls"]["value"]:
        lines.append(
            "per call: one extrinsic H %.4g ms, one first form %.4g us, one isometry pair %.4g ms"
            % (
                metrics["oracle.mean_curvature.ms_per_call"]["value"],
                metrics["oracle.first_form.us_per_call"]["value"],
                metrics["oracle.isometry_deviation.ms_per_call"]["value"],
            )
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "bcvhelix", "__init__.py")):
        print("run from the root of a bcvhelix checkout: src/bcvhelix not found", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setups.append(
                    _worker(args, os.path.join(work, f"setup-{i}"), ["--setup-only"], deadline)
                )
        res = _worker(args, os.path.join(work, "run"), [], deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only when no other run is using it
    if not args.trace:
        setups.append(res)

    details = {
        "env": environment(args, res["versions"]),
        "jobs": res["jobs"],
        "passes": res["passes"],
        "fail_ratio": res["gate_failed"] / res["attempted"],
        "gate_failed_jobs": res["gate_failed_jobs"],
        "problems": res["problems"],
        "setup_samples_s": [p["setup_s"] for p in setups],
        "setup_wall_samples_s": [p["setup_wall_s"] for p in setups],
        "job_seconds": res["job_seconds"],
    }
    if args.trace:
        metrics = res["per_layer"]
        details["trace"] = res["trace"]
    else:
        metrics, tail_info = end_to_end(res, setups)
        details.update(tail_info)
    print(json.dumps({"details": details}))
    print(_summary(metrics, details), file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
