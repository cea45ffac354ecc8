"""Seeded job lists for the benchmark workloads.

Every workload is a fixed list of families; the seed only permutes the order
in which the jobs run.  Each job becomes one JSON config file, exactly what a
user hands to ``bcvhelix <command> --config``.  No family is dropped,
re-windowed or re-seeded for being slow or failing.

Workloads:

- ``deform``: the two shipped deform sweeps (copies of
  ``configs/heisenberg_minimal.json`` and ``configs/catenoid_to_helicoid.json``
  at the time the benchmark was defined, so later edits to the shipped files
  do not move the benchmark).
- ``verify``: the twelve acceptance-C3 families -- five closed-form CMC cases
  and seven minimal families, one per geometry class -- on the window
  [-3.5, 3.5].  Includes the slow oscillatory member and the kappa=-4 cosh
  member, which fails its own first-form gate.
- ``construct``: the seven minimal families and the explicit catenoid seed
  through the profile commands (``minimal`` and ``chart``), writing the
  profile CSV at ``grid.nu`` = 2000.  No oracle call is made.
"""

from __future__ import annotations

import copy
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("deform", "verify", "construct")

WINDOW = [-3.5, 3.5]
PROFILE_NU = 2000

# (label, kappa, tau, H, a, c, m) -- acceptance C3, closed-form CMC cases
C3_CMC = [
    ("euclidean-minimal", 0.0, 0.0, 0.0, 0.7, 0.8, 1.3),
    ("space-form-generic", 1.0, 0.5, 1.0, 0.5, 0.0, 1.0),
    ("critical-kappa", -1.0, 0.0, 1.0, 0.5, -2.0, 1.0),
    ("oscillatory", 1.0, 0.0, 1.0, 0.5, -1.0, 1.0),
    ("hyperbolic-cosh", -4.0, 0.0, 1.0, 0.5, 1.0, 1.0),
]

# (label, kappa, tau, a, c, m) -- acceptance C3, one minimal family per class
C3_MINIMAL = [
    ("R3", 0.0, 0.0, 0.6, 1.0, 1.0),
    ("S3", 1.0, 0.5, 0.5, 0.5, 1.0),
    ("S2xR", 1.0, 0.0, 0.3, 0.5, 1.0),
    ("H2xR", -1.0, 0.0, 0.4, 0.5, 1.0),
    ("Nil3", 0.0, 0.5, 0.5, 1.0, 1.0),
    ("SU2", 2.0, 0.5, 0.3, 0.5, 1.0),
    ("SL2R", -1.0, 0.5, 0.2, 0.4, 1.0),
]

HEISENBERG_MINIMAL = {
    "space": {"kappa": 0.0, "tau": 0.5},
    "seed": {"family": "minimal-case", "m": 1.0, "a": 0.5, "c": 1.0, "u_range": [-2.5, 2.5]},
    "sweep": {"parameter": "a", "values": [0.5, 0.25, 0.125, 0.0]},
    "grid": {"nu": 41, "nt": 41, "t_range": [-3.1416, 3.1416]},
    "output": {"basename": "nilcat", "formats": ["csv", "obj", "json"]},
}

CATENOID_TO_HELICOID = {
    "space": {"kappa": 0.0, "tau": 0.0},
    "seed": {
        "family": "explicit",
        "m": 1.0,
        "a": 0.0,
        "u_range": [-2.0, 2.0],
        "U": "sqrt(u*u + 1)",
        "dU": "u / sqrt(u*u + 1)",
    },
    "sweep": {"parameter": "a", "values": [0.0, 0.25, 0.5, 0.75, 0.9]},
    "grid": {"nu": 33, "nt": 33, "t_range": [-3.1416, 3.1416]},
    "output": {"basename": "cat2heli", "formats": ["obj", "json"]},
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``bcvhelix <command> --config <config>``."""

    name: str
    command: str
    config: dict

    @property
    def basename(self) -> str:
        return self.config["output"]["basename"]

    @property
    def report_name(self) -> str:
        return f"{self.basename}.{self.command}.json"


def _cmc_config(label, kappa, tau, H, a, c, m) -> dict:
    return {
        "space": {"kappa": kappa, "tau": tau},
        "seed": {"family": "cmc-case", "m": m, "a": a, "H": H, "c": c, "u_range": WINDOW},
        "output": {"basename": f"cmc-{label}", "formats": ["json"]},
    }


def _minimal_config(label, kappa, tau, a, c, m, formats) -> dict:
    return {
        "space": {"kappa": kappa, "tau": tau},
        "seed": {"family": "minimal-case", "m": m, "a": a, "c": c, "u_range": WINDOW},
        "output": {"basename": f"minimal-{label}", "formats": formats},
    }


def _fixed_jobs(workload: str) -> list[Job]:
    if workload == "deform":
        return [
            Job("heisenberg_minimal", "deform", copy.deepcopy(HEISENBERG_MINIMAL)),
            Job("catenoid_to_helicoid", "deform", copy.deepcopy(CATENOID_TO_HELICOID)),
        ]
    if workload == "verify":
        jobs = [Job(f"cmc-{f[0]}", "verify", _cmc_config(*f)) for f in C3_CMC]
        jobs += [
            Job(f"minimal-{f[0]}", "verify", _minimal_config(*f, formats=["json"]))
            for f in C3_MINIMAL
        ]
        return jobs
    if workload == "construct":
        jobs = []
        for f in C3_MINIMAL:
            cfg = _minimal_config(*f, formats=["csv", "json"])
            cfg["grid"] = {"nu": PROFILE_NU}
            jobs.append(Job(f"minimal-{f[0]}", "minimal", cfg))
        cfg = copy.deepcopy(CATENOID_TO_HELICOID)
        del cfg["sweep"]
        cfg["grid"] = {"nu": PROFILE_NU}
        cfg["output"]["formats"] = ["csv", "json"]
        jobs.append(Job("catenoid", "chart", cfg))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's fixed job list in the order the seed picks."""
    jobs = _fixed_jobs(workload)
    random.Random(seed).shuffle(jobs)
    return jobs


def write_configs(jobs: list[Job], cfg_dir: str) -> list[str]:
    """One config file per job; returns the paths in job order."""
    os.makedirs(cfg_dir, exist_ok=True)
    paths = []
    for k, job in enumerate(jobs):
        path = os.path.join(cfg_dir, f"{k:02d}-{job.name}.json")
        with open(path, "w") as fh:
            json.dump(job.config, fh, sort_keys=True, indent=2)
        paths.append(path)
    return paths
