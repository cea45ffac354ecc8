"""Seeded sweep of the config space through every command.

    PYTHONPATH=src python tools/config_sweep.py SEED N OUT
    python tools/byte_gate.py diff OUT_A OUT_B

Draws N configs from SEED: a (kappa, tau) pair of ``SPACES``, one of the
three seed families, m, a, H, c and ``seed.u_range``, and for an explicit
seed a U of ``EXPLICIT``.  A third of the explicit seeds whose U peaks
at u = 0 take a pitch just below |m| U(0), the edge of admissibility: the
validity interval is then narrower than a stencil, so rows inside the mesh
settle to shrunk steps, not only its end rows.

Each config runs in this process through ``chart``, ``verify`` at
``grid.nu`` 17 and 41, ``export`` and ``deform``, each job laid out as
``tools/byte_gate.py run`` lays it out, in ``OUT/<k>-<job>/``, so that
``byte_gate.py diff`` compares two sweeps file by file.

It exits 1 if a job exits outside {0, 1, 2} or writes a traceback, if a
job that writes a report (on stdout) prints anything on stderr, or if one
that writes none does not print exactly one stderr line starting
``error: `` or ``config error: ``, and else 0.  It also lists, without
failing, the configs whose ``verify`` verdict or a check's ``pass``
differs between the two grids (a profile that meets the screw axis inside
the validity interval folds there, and whether ``verify`` sees it depends
on its rows), and those where ``chart`` or ``export`` exits 0 while
``verify`` fails ``first_form``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import byte_gate  # noqa: E402  (the job layout and runner)

SPACES = ((0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5), (-1.0, 0.0), (-1.0, 0.5), (2.0, 0.5), (-4.0, 0.0))
# explicit seeds (U, dU, the largest U on [-1, 1], at u = 0, or None)
EXPLICIT = (
    ("sqrt(u*u + 1)", "u / sqrt(u*u + 1)", None),
    ("2 - u*u", "-2*u", 2.0),
    ("cosh(u)", "sinh(u)", None),
    ("1 + 0.5*cos(3*u)", "-1.5*sin(3*u)", 1.5),
    ("exp(0.3*u)", "0.3*exp(0.3*u)", None),
)
WINDOWS = ([-1.0, 1.0], [-0.5, 1.0], [-2.0, 2.0], [0.0, 2.0], [-3.5, 3.5])  # seed.u_range of a family
VERIFY_GRIDS = (17, 41)


def draw(rng: random.Random) -> dict:
    """One config of the sweep.  The parameters come from short lists of
    round values, where the ends of admissible sets meet window ends."""
    kappa, tau = rng.choice(SPACES)
    family = rng.choice(("minimal-case", "cmc-case", "explicit"))
    m = rng.choice((0.5, 1.0, 2.0, -1.0))
    seed = {"family": family, "m": m, "a": rng.choice((0.0, 0.25, 0.5, 0.75, 1.0, 1.5))}
    if family == "explicit":
        U, dU, peak = rng.choice(EXPLICIT)
        seed.update(U=U, dU=dU, u_range=[-1.0, 1.0])
        if peak is not None and rng.random() < 1 / 3:
            seed["a"] = abs(m) * peak * (1.0 - 10.0 ** -rng.randint(2, 7))
    else:
        seed.update(c=rng.choice((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)), u_range=rng.choice(WINDOWS))
        if family == "cmc-case":
            seed["H"] = rng.choice((0.5, 1.0, 2.0))
    a = seed["a"]
    return {
        "space": {"kappa": kappa, "tau": tau},
        "seed": seed,
        "sweep": {"parameter": "a", "values": [a, a / 2] if a else [0.0, 0.25]},
        "grid": {"nu": 17, "nt": 9, "t_range": [-math.pi, math.pi]},
        "output": {"basename": "s", "formats": ["csv", "json"]},
    }


def _jobs(cfg: dict) -> list[tuple[str, str, dict]]:
    """(name, command, config) of each job of one config."""
    def at(nu: int) -> dict:
        return {**cfg, "grid": {**cfg["grid"], "nu": nu}}

    jobs = [("chart", "chart", cfg)]
    jobs += [(f"verify-{nu}", "verify", at(nu)) for nu in VERIFY_GRIDS]
    return jobs + [("export", "export", cfg), ("deform", "deform", at(9))]


def _verdict(job_dir: str):
    """verify's pass and each check's pass, or None without a report."""
    with open(os.path.join(job_dir, "stdout")) as fh:
        text = fh.read()
    if not text:
        return None
    report = json.loads(text)
    return report["pass"], {name: check["pass"] for name, check in report["checks"].items()}


def _stderr_problem(job_dir: str, stderr: str):
    """How the job's stderr breaks the rule for its report, or None: a job
    that writes a report prints nothing on stderr, and one that writes none
    prints exactly one line starting ``error: `` or ``config error: ``."""
    with open(os.path.join(job_dir, "stdout")) as fh:
        reported = bool(fh.read())
    lines = stderr.splitlines()
    if reported:
        return f"a report and {len(lines)} stderr lines" if stderr else None
    if len(lines) == 1 and lines[0].startswith(("error: ", "config error: ")):
        return None
    return f"no report and {len(lines)} stderr lines, not one error line"


def sweep(seed: int, n: int, out: str) -> int:
    cli = byte_gate.load_cli()
    rng = random.Random(seed)
    broken, streams, flips, wrong_charts = [], [], [], []
    codes: collections.Counter = collections.Counter()
    for k in range(n):
        cfg = draw(rng)
        rcs, dirs = {}, {}
        for name, command, job in _jobs(cfg):
            dirs[name] = os.path.join(out, f"{k:04d}-{name}")
            rc, stderr = byte_gate.run_job(cli, dirs[name], command, job)
            rcs[name] = rc
            codes[name, rc] += 1
            if rc not in (0, 1, 2) or "Traceback" in stderr:
                broken.append(f"{k:04d}-{name}: exit {rc}")
            elif problem := _stderr_problem(dirs[name], stderr):
                streams.append(f"{k:04d}-{name}: exit {rc}, {problem}")
        label = f"{k:04d}: {json.dumps(cfg['space'])} {json.dumps(cfg['seed'])}"
        verdicts = [_verdict(dirs[f"verify-{nu}"]) for nu in VERIFY_GRIDS]
        if verdicts[0] != verdicts[1]:
            flips.append(label)
        fails_first_form = any(v is not None and not v[1].get("first_form", True) for v in verdicts)
        if fails_first_form and 0 in (rcs["chart"], rcs["export"]):
            wrong_charts.append(label)
    print(f"{n} configs from seed {seed}; jobs by exit code:")
    for (name, rc), count in sorted(codes.items(), key=str):
        print(f"  {name}: exit {rc}: {count}")
    for title, lines in (
        ("verify verdict differs between grid.nu 17 and 41 (not a failure)", flips),
        ("chart or export exits 0 while verify fails first_form (not a failure)", wrong_charts),
        ("exit outside {0, 1, 2} or a traceback", broken),
        ("stderr output with a report, or not one error line without one", streams),
    ):
        print(f"{title}: {len(lines)}")
        for line in lines:
            print(f"  {line}")
    return 1 if broken or streams else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("n", type=int, help="number of configs")
    parser.add_argument("out", help="new directory for the jobs")
    args = parser.parse_args(argv)
    return sweep(args.seed, args.n, os.path.abspath(args.out))


if __name__ == "__main__":
    sys.exit(main())
