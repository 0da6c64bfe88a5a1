"""Workload job lists, generated inputs and output checks.

A workload is a list of hardylab CLI jobs.  Each job is an argv for
``hardylab.cli.main`` plus the check its outputs must pass; the workload seed
becomes the ``--seed`` of every command and picks the cone-split probe.  The
checks use the tolerances of the acceptance criteria they mirror.

This module imports only the standard library at load time, so the parent
process can validate workload names without loading numpy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

KOCH_DIM = math.log(4) / math.log(3)
DIMENSION_TOL = 0.1     # criterion 3
SPLIT_TOL = 1e-9        # criterion 8
PROBE_MARGIN = 6        # cells kept clear of the boundary by a probe


def _domain(kind: str, dim: int, level: int, **extra) -> str:
    return json.dumps(dict(kind=kind, dim=dim, level=level, **extra),
                      sort_keys=True)


def _bound(name, domain, case, m, s, *extra):
    argv = ["bound", "--domain", domain, "--case", case, "--m", str(m),
            "--p", "2", "--q", "2", "--s", str(s), "--with-direct", *extra]
    return {"name": name, "kind": "bound", "argv": argv}


KOCH9 = _domain("koch-polygon", 2, 9, iterations=4)
KOCH10 = _domain("koch-polygon", 2, 10, iterations=4)
LSHAPE7 = _domain("lshape", 2, 7)

WORKLOADS = {
    # the soundness corpus at capacity grid level 4 (square case B at 3)
    "bound-2d": [
        _bound("square6-A", _domain("square", 2, 6), "A", 1, -1.0),
        _bound("lshape6-A", _domain("lshape", 2, 6), "A", 1, -1.0),
        _bound("square6-B", _domain("square", 2, 6), "B", 1, 0.3,
               "--p0", "1", "--dim-loc", "1", "--grid-level", "3"),
        _bound("square6-C", _domain("square", 2, 6), "C", 1, -1.0,
               "--A0", "0.1", "--svg"),
        _bound("halfspace6-D", _domain("halfspace", 2, 6), "D", 1, 0.3,
               "--p0", "1", "--A0", "0.1", "--dim-loc", "1"),
        _bound("interval8-D", _domain("interval", 1, 8), "D", 2, -1.0,
               "--p0", "1.5", "--A0", "0.1", "--dim-loc", "0"),
    ],
    "geometry": [
        {"name": "koch9-decompose", "kind": "decompose",
         "argv": ["decompose", "--domain", KOCH9, "--svg"]},
        {"name": "koch9-dimloc", "kind": "dimloc", "level": 9,
         "argv": ["dimloc", "--domain", KOCH9]},
        {"name": "koch10-dimloc", "kind": "dimloc", "level": 10,
         "argv": ["dimloc", "--domain", KOCH10]},
    ],
    "large-grid": [
        _bound("cube3d5-A", _domain("cube-minus-compact", 3, 5), "A", 1,
               -1.0),
        {"name": "lshape7-cone", "kind": "cone-split",
         "argv": ["cone-split", "--domain", LSHAPE7, "--m", "2", "--p", "2",
                  "--s", "0"]},
    ],
}


# -- generated inputs ------------------------------------------------------------


def _probe_values(inside, distance, h, seed: int):
    """Three signed Gaussian bumps centred at seeded inside cells at least
    four widths from the boundary, cut to zero within PROBE_MARGIN cells of
    it, so the split hypothesis holds."""
    import numpy as np

    rng = np.random.default_rng(seed)
    axes = [(np.arange(n) + 0.5) * h for n in inside.shape]
    grids = np.meshgrid(*axes, indexing="ij")
    vals = np.zeros(inside.shape)
    for _ in range(3):
        w = rng.uniform(0.03, 0.06)
        eligible = np.argwhere(inside & (distance > 4.0 * w))
        c = (eligible[rng.integers(len(eligible))] + 0.5) * h
        amp = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        r2 = sum((g - cc) ** 2 for g, cc in zip(grids, c)) / w**2
        vals += amp * np.exp(-np.minimum(r2, 60.0))
    return np.where(inside & (distance > PROBE_MARGIN * h), vals, 0.0)


def prepare(workload: str, seed: int, in_dir: Path) -> tuple[list, dict]:
    """Write the workload's generated inputs under in_dir.

    Returns the job list with complete argvs (seed and inputs filled in) and
    the context the checks need.
    """
    ctx = {}
    jobs = []
    for job in WORKLOADS[workload]:
        job = dict(job, argv=list(job["argv"]) + ["--seed", str(seed)])
        if job["kind"] == "cone-split":
            from hardylab.grids import DomainSpec, rasterize, write_ndfn

            dom = rasterize(DomainSpec.from_json(LSHAPE7))
            u = _probe_values(dom.inside, dom.distance, dom.h, seed)
            path = in_dir / f"{job['name']}-probe.fn"
            write_ndfn(path, u)
            job["argv"] += ["--u", str(path)]
            ctx[job["name"]] = (dom.inside, u)
        jobs.append(job)
    return jobs, ctx


# -- output checks ----------------------------------------------------------------


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check(job: dict, out: Path, ctx: dict) -> tuple[list, dict]:
    """Check the outputs of a job that exited 0.  Returns (problems, facts);
    an empty problem list means the job passed."""
    kind = job["kind"]
    problems = []
    facts = {}
    if kind == "bound":
        rep = json.loads((out / "bound-report.json").read_text())
        a, d = rep["constant_A"], rep["direct_estimate"]
        if rep["sound"] is not True:
            problems.append("report not sound")
        if not (_finite(a) and _finite(d)):
            problems.append(f"non-finite constant_A={a!r} direct={d!r}")
        elif d > 0:
            facts["tightness"] = a / d
    elif kind == "decompose":
        from hardylab.whitney import intersection_cutoff

        checks = json.loads((out / "decompose-report.json").read_text())["checks"]
        failed = [k for k, v in checks.items() if v is False]
        if failed:
            problems.append(f"checks false: {failed}")
        if checks["worst_neighbor_ratio"] > intersection_cutoff(2):
            problems.append("worst neighbour ratio above the cutoff")
        if not (out / "decomposition.svg").stat().st_size:
            problems.append("empty SVG")
    elif kind == "dimloc":
        rep = json.loads((out / "dimloc-report.json").read_text())
        loc, mc = rep["dim_loc"]["value"], rep["dim_mc_loc"]["value"]
        facts["loc_mc_gap"] = abs(loc - mc)
        if not abs(loc - KOCH_DIM) <= DIMENSION_TOL:
            problems.append(f"dim_loc {loc!r} off the anchor {KOCH_DIM!r}")
        # criterion 3 gates the loc/mc agreement at level 9 only
        if job["level"] == 9 and not facts["loc_mc_gap"] <= DIMENSION_TOL:
            problems.append(f"dim_loc/dim_mc_loc gap {facts['loc_mc_gap']!r}")
    elif kind == "cone-split":
        import numpy as np
        from hardylab.grids import read_ndfn

        inside, u = ctx[job["name"]]
        rep = json.loads((out / "cone-report.json").read_text())
        u1 = read_ndfn(out / "u1.fn")
        u2 = read_ndfn(out / "u2.fn")
        err = float(np.abs(u1 - u2 - u)[inside].max())
        if not err <= SPLIT_TOL:
            problems.append(f"u1 - u2 misses u by {err!r}")
        if (u1 < 0).any() or (u2 < 0).any():
            problems.append("negative split part")
        if not _finite(rep["norm_factor"]):
            problems.append(f"norm_factor {rep['norm_factor']!r}")
    return problems, facts
