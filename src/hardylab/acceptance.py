"""The acceptance suite: one runnable row per criterion.

Each criterion function returns a dict with "passed" plus its measured
details; run_suite executes all of them and emits a table.  A criterion
takes no arguments: its sizes, levels and seeds are the constants below or
literals at their one use.  The CLI `suite` command and
tests/test_acceptance.py both route through here, so the gate is
implemented exactly once.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .grids import DomainSpec, rasterize
from .whitney import decompose, check_decomposition, summation_lemma_ratio, \
    intersection_cutoff
from .dimension import DimensionError, dim_loc, dim_mc_loc
from .capacity import (ConstraintSet, gamma_capacity, dense_best_constant,
                       quadratic_form)
from .hardy import (HardyParams, constructive_bound, direct_best_constant,
                    case_e_shift, HardyError)
from .norms import DiscreteFunction, gradient_seminorm
from .cone import (cone_split, make_probe, make_cusp_probe, ConeError,
                   chain_inequality_sides, conjecture_experiment)

WHITNEY_CORPUS = [
    ("halfspace", 2, 0),
    ("interval", 1, 0),
    ("square", 2, 0),
    ("lshape", 2, 0),
    ("cantor-complement", 1, 3),
    ("koch-polygon", 2, 4),
]

DIMENSION_ANCHORS = [
    ("halfspace", 2, 8, 0, 1.0),
    ("cantor-complement", 1, 9, 4, math.log(2) / math.log(3)),
    ("koch-polygon", 2, 9, 4, math.log(4) / math.log(3)),
]

# seed of every seeded criterion but determinism (9)
SEED = 0
# raster levels of criterion 1
WHITNEY_LEVELS = (6, 7, 8, 9)
# random functions per domain in criterion 2, probes in criterion 7
SUMMATION_PROBES = 100
CASE_E_PROBES = 50
# unit-cube lattice levels of criterion 4: the oracle sets have 64-240 free
# cells at level 4 and 576-1008 at level 5, all solved by the block
# eigensolver
CAPACITY_GRID_LEVELS = (4, 5)
# raster level of criterion 5
ANCHOR_LEVEL = 12

SOUNDNESS_COMBOS = [
    # (domain kind, dim, level, params overrides)
    ("interval", 1, 8, dict(m=1, s=-1.0, case="A")),
    ("interval", 1, 8, dict(m=2, s=-1.0, case="A")),
    ("interval", 1, 8, dict(m=1, s=-0.5, case="A")),
    ("square", 2, 6, dict(m=1, s=-1.0, case="A")),
    ("lshape", 2, 6, dict(m=1, s=-1.0, case="A")),
    ("halfspace", 2, 6, dict(m=1, s=-1.0, case="A")),
    ("square", 2, 6, dict(m=1, s=0.3, case="B", p0=1.0)),
    ("lshape", 2, 6, dict(m=1, s=0.2, case="B", p0=1.0)),
    ("interval", 1, 8, dict(m=1, s=-1.0, case="C", A0=0.1)),
    ("square", 2, 6, dict(m=1, s=-1.0, case="C", A0=0.1)),
    ("interval", 1, 8, dict(m=2, s=-1.0, case="D", p0=1.5, A0=0.1)),
    ("halfspace", 2, 6, dict(m=1, s=0.3, case="D", p0=1.0, A0=0.1)),
]


def _domain(kind, dim, level, iterations=0):
    return rasterize(DomainSpec(kind=kind, dim=dim, level=level,
                                iterations=iterations))


def criterion_whitney() -> dict:
    """(6.0)-(6.2) plus the neighbor cutoff, 100% of cubes, all corpus
    domains at WHITNEY_LEVELS, under 10 s per domain and level."""
    rows = []
    passed = True
    for kind, dim, iters in WHITNEY_CORPUS:
        t0 = time.time()
        for level in WHITNEY_LEVELS:
            dom = _domain(kind, dim, level, iters)
            dec = decompose(dom)
            res = check_decomposition(dec)
            ok = (res["cover_exact"] and res["lower_bound_ok"]
                  and res["upper_bound_ok"] and res["ratio_ok"]
                  and res["neighbor_cutoff_ok"]
                  and res["worst_neighbor_ratio"] <= intersection_cutoff(dim))
            rows.append({"domain": kind, "level": level, **res, "ok": ok})
            passed &= ok
        dt = time.time() - t0
        passed &= dt < 10.0 * len(WHITNEY_LEVELS)
        rows.append({"domain": kind, "runtime_all_levels": dt})
    return {"criterion": 1, "name": "whitney-validity", "passed": passed,
            "rows": rows}


def criterion_summation() -> dict:
    """lhs <= rhs_bound over random nonnegative f, plus the small-s growth
    cap lhs(1/8)/lhs(1/4) <= 2.5, on 2-D level 6 and 1-D level 8."""
    rng = np.random.default_rng(SEED)
    passed = True
    rows = []
    for kind, dim, iters in WHITNEY_CORPUS:
        lev = 6 + (2 if dim == 1 else 0)
        dom = _domain(kind, dim, lev, iters)
        dec = decompose(dom)
        worst = 0.0
        for j in range(SUMMATION_PROBES):
            f = rng.random(dom.shape) * dom.inside
            for s in (0.25, 0.5, 1.0, 2.0):
                lhs, rhs = summation_lemma_ratio(dec, f, s)
                worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
                if lhs > rhs:
                    passed = False
        f = (rng.random(dom.shape) + 0.2) * dom.inside
        l8, _ = summation_lemma_ratio(dec, f, 0.125)
        l4, _ = summation_lemma_ratio(dec, f, 0.25)
        growth = l8 / l4
        if growth > 2.5:
            passed = False
        rows.append({"domain": kind, "worst_lhs_over_rhs": worst,
                     "growth_eighth_vs_quarter": growth})
    return {"criterion": 2, "name": "summation-lemma", "passed": passed,
            "rows": rows}


def criterion_dimension() -> dict:
    """The three dimension anchors within 0.1 and loc/mc agreement."""
    rows = []
    passed = True
    for kind, dim, level, iters, expect in DIMENSION_ANCHORS:
        t0 = time.time()
        dec = decompose(_domain(kind, dim, level, iters))
        dl = dim_loc(dec)
        dm = dim_mc_loc(dec)
        dt = time.time() - t0
        ok = (abs(dl.value - expect) <= 0.1
              and abs(dl.value - dm.value) <= 0.1 and dt < 60.0)
        rows.append({"domain": kind, "level": level, "dim_loc": dl.value,
                     "dim_mc_loc": dm.value, "expected": expect,
                     "runtime": dt, "ok": ok})
        passed &= ok
    return {"criterion": 3, "name": "dimension-anchors", "passed": passed,
            "rows": rows}


def _oracle_constraint_sets(m_cells: int):
    sets = []
    for w in (2, 4, 6):
        K = np.zeros((m_cells, m_cells), dtype=bool)
        K[:w, :] = True
        sets.append(("slab-" + str(w), ConstraintSet(K, False)))
    K = np.zeros((m_cells, m_cells), dtype=bool)
    K[:4, :4] = True
    sets.append(("corner", ConstraintSet(K, False)))
    K = np.zeros((m_cells, m_cells), dtype=bool)
    K[:2, :] = True
    K[-2:, :] = True
    sets.append(("two-sided", ConstraintSet(K, False)))
    K = np.zeros((m_cells, m_cells), dtype=bool)
    c = m_cells // 2
    K[c - 2:c + 2, c - 2:c + 2] = True
    sets.append(("center-block", ConstraintSet(K, False)))
    K = np.zeros((m_cells, m_cells), dtype=bool)
    K[:, :3] = True
    sets.append(("side-3", ConstraintSet(K, False)))
    K = np.zeros((m_cells, m_cells), dtype=bool)
    K[::4, :] = True
    sets.append(("stripes", ConstraintSet(K, False)))
    K = np.zeros((m_cells, m_cells), dtype=bool)
    K[:1, :] = True
    sets.append(("thin-slab", ConstraintSet(K, False)))
    K = np.ones((m_cells, m_cells), dtype=bool)
    K[4:-4, 4:-4] = False
    sets.append(("frame", ConstraintSet(K, False)))
    return sets


def criterion_capacity() -> dict:
    """gamma_capacity vs the dense oracle within 2% on 10 sets at each of
    CAPACITY_GRID_LEVELS; at the first, monotonicity on a nested slab
    family and full-space capacity 0."""
    rows = []
    passed = True
    for grid_level in CAPACITY_GRID_LEVELS:
        m_cells = 2**grid_level
        S = quadratic_form(m_cells, 2, 1).toarray()
        hN = (1.0 / m_cells) ** 2
        for name, cs in _oracle_constraint_sets(m_cells):
            r = gamma_capacity(cs, 1, 0, 2.0, 2.0, grid_level, 2)
            oracle = dense_best_constant(S, ~cs.K.reshape(-1), hN)
            rel = abs(r.best_constant - oracle) / oracle
            ok = rel <= 0.02
            rows.append({"set": name, "grid_level": grid_level,
                         "free_cells": int((~cs.K).sum()),
                         "iterative": r.best_constant, "dense": oracle,
                         "rel_err": rel, "ok": ok})
            passed &= ok
    grid_level = CAPACITY_GRID_LEVELS[0]
    m_cells = 2**grid_level
    caps = []
    for w in (2, 4, 6, 8, 10):
        K = np.zeros((m_cells, m_cells), dtype=bool)
        K[:w, :] = True
        caps.append(gamma_capacity(ConstraintSet(K, False),
                                   1, 0, 2.0, 2.0, grid_level, 2).capacity)
    mono = all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))
    passed &= mono
    rows.append({"nested_caps": caps, "monotone": mono})
    full = gamma_capacity(
        ConstraintSet(np.zeros((m_cells, m_cells), dtype=bool), False),
        1, 0, 2.0, 2.0, grid_level, 2)
    passed &= full.capacity == 0.0
    rows.append({"full_space_capacity": full.capacity})
    return {"criterion": 4, "name": "capacity-oracle", "passed": passed,
            "rows": rows}


def criterion_hardy_anchor() -> dict:
    """1-D best-constant anchor: estimate^p within 5% of the classical 4."""
    t0 = time.time()
    dom = _domain("interval", 1, ANCHOR_LEVEL)
    params = HardyParams(m=1, k=0, p=2.0, q=2.0, s=0.0)
    est = direct_best_constant(dom, params)
    a0 = est**2
    dt = time.time() - t0
    passed = abs(a0 - 4.0) <= 0.2 and dt < 30.0
    return {"criterion": 5, "name": "hardy-anchor", "passed": passed,
            "rows": [{"level": ANCHOR_LEVEL, "estimate_A0": a0, "target": 4.0,
                      "runtime": dt}]}


def _combo_dim_loc(kind, dim, level) -> dict:
    """Local-dimension input for the case B/D combos, measured on the same
    domain family at the combo's level, else one level finer when the
    decomposition has too few informative cube levels; with neither it
    falls back to dim - 1.  Returns the value, the level that gave it (None
    on the fallback) and whether the fallback ran."""
    for lev in (level, level + 1):
        try:
            value = dim_loc(decompose(_domain(kind, dim, lev))).value
        except DimensionError:
            continue
        return {"dim_loc": value, "dim_loc_level": lev,
                "dim_loc_fallback": False}
    return {"dim_loc": float(dim - 1), "dim_loc_level": None,
            "dim_loc_fallback": True}


def criterion_soundness() -> dict:
    """constant_A >= direct estimate on 12 combos spanning cases A-D."""
    rows = []
    passed = True
    dim_cache: dict = {}
    for kind, dim, level, overrides in SOUNDNESS_COMBOS:
        t0 = time.time()
        dom = _domain(kind, dim, level)
        dec = decompose(dom)
        kw = dict(k=None, p=2.0, q=2.0)
        kw.update(overrides)
        params = HardyParams(**kw)
        dim_info = {}
        if params.case in ("B", "D"):
            key = (kind, dim)
            if key not in dim_cache:
                dim_cache[key] = _combo_dim_loc(kind, dim, level)
            dim_info = dim_cache[key]
            params.dim_loc_value = dim_info["dim_loc"]
        try:
            rep = constructive_bound(dec, params, 4, SEED, with_direct=True)
            ok = rep.sound and math.isfinite(rep.direct_estimate)
            rows.append({
                "domain": kind, "level": level, "case": params.case,
                "m": params.m, "s": params.s,
                "constant_A": rep.constant_A,
                "direct": rep.direct_estimate, "sound": rep.sound,
                "runtime": time.time() - t0, "ok": ok, **dim_info,
            })
        except HardyError as exc:
            ok = False
            rows.append({"domain": kind, "case": overrides.get("case"),
                         "error": str(exc), "ok": False, **dim_info})
        passed &= ok
    return {"criterion": 6, "name": "soundness", "passed": passed,
            "rows": rows}


def criterion_case_e() -> dict:
    """Positive s0 on the slab-complement domain at p=2, probe verification
    at s0/2, and the p=1 decline."""
    dom = _domain("halfspace", 2, 7)
    dec = decompose(dom)
    rows = []
    params = HardyParams(m=1, k=0, p=2.0, q=2.0, s=0.0, case="E")
    rep = case_e_shift(dec, params, 4, SEED)
    s0 = rep.s0
    passed = bool(s0 and s0 > 0)
    rows.append({"s0": s0, "constant": rep.constant_A,
                 "capacity_floor": rep.capacity_floor})
    if passed:
        s_half = s0 / 2.0
        rep2 = case_e_shift(dec, HardyParams(m=1, k=0, p=2.0, q=2.0,
                                             s=s_half, case="E"), 4, SEED)
        a_e = rep2.constant_A
        t_exp = 2.0 - s_half
        rng = np.random.default_rng(SEED)
        grids = dom.center_grid()
        worst = 0.0
        for _ in range(CASE_E_PROBES):
            c = rng.uniform(0.1, 0.9, size=2)
            w = rng.uniform(0.05, 0.4)
            r2 = sum((g - cc) ** 2 for g, cc in zip(grids, c)) / w**2
            u = DiscreteFunction(dom, np.exp(-np.minimum(r2, 60.0)))
            lhs = gradient_seminorm(u, 0, 2.0, -t_exp)
            rhs = gradient_seminorm(u, 1, 2.0, s_half)
            worst = max(worst, lhs / (a_e * rhs))
        rows.append({"s_half": s_half, "constant_at_s_half": a_e,
                     "worst_probe_ratio": worst, "probes": CASE_E_PROBES})
        passed &= worst <= 1.0
    rep1 = case_e_shift(dec, HardyParams(m=1, k=0, p=1.0, q=1.0, s=0.0,
                                         case="E"), 4, SEED)
    declined = (not rep1.s0) or rep1.s0 == 0.0
    rows.append({"p1_s0": rep1.s0, "p1_flags": rep1.flags,
                 "declined": declined})
    passed &= declined
    return {"criterion": 7, "name": "case-e", "passed": passed, "rows": rows}


def criterion_cone() -> dict:
    """Exact nonnegative splits on finite-mass probes, cusp rejection, and
    the odd/even-order experiment table."""
    rows = []
    passed = True
    for kind in ("square", "lshape"):
        dom = _domain(kind, 2, 6)
        dec = decompose(dom)
        for j in range(20):
            u = make_probe(dom, SEED * 997 + j)
            try:
                split = cone_split(u, dec, m=2, p=2.0, s=0.0)
            except ConeError as exc:
                rows.append({"domain": kind, "probe": j, "error": str(exc)})
                passed = False
                continue
            ins = dom.inside
            exact = float(np.abs((split.u1.values - split.u2.values)
                                 - u.values)[ins].max())
            nonneg = bool((split.u1.values >= 0).all()
                          and (split.u2.values >= 0).all())
            lhs, rhs = chain_inequality_sides(u, split, 2, 2.0, 0.0)
            ok = (exact <= 1e-9 and nonneg
                  and math.isfinite(split.norm_factor) and lhs <= rhs)
            passed &= ok
            if j == 0 or not ok:
                rows.append({"domain": kind, "probe": j, "exactness": exact,
                             "nonneg": nonneg, "norm_factor": split.norm_factor,
                             "chain_lhs": lhs, "chain_bound": rhs, "ok": ok})
        cusp = make_cusp_probe(dom)
        try:
            cone_split(cusp, dec, m=2, p=2.0, s=0.0)
            rejected = False
        except ConeError:
            rejected = True
        rows.append({"domain": kind, "cusp_rejected": rejected})
        passed &= rejected
    table = conjecture_experiment(_domain("square", 2, 5),
                                  decompose(_domain("square", 2, 5)),
                                  3, SEED)
    rows.append({"conjecture_table": table["rows"]})
    return {"criterion": 8, "name": "cone-split", "passed": passed,
            "rows": rows}


def criterion_determinism() -> dict:
    """Byte-identical reports when representative commands rerun with the
    same seed."""
    import tempfile
    from pathlib import Path
    from . import cli
    from ._util import sha256_of_file

    digests = []
    for run in range(2):
        with tempfile.TemporaryDirectory() as td:
            out = Path(td)
            spec_path = out / "dom.json"
            spec_path.write_text(
                '{"kind": "lshape", "dim": 2, "level": 6}')
            spec7_path = out / "dom7.json"
            spec7_path.write_text(
                '{"kind": "lshape", "dim": 2, "level": 7}')
            cmds = [
                ["decompose", "--domain", str(spec_path), "--svg"],
                ["dimloc", "--domain", str(spec7_path)],
                ["capacity", "--m", "1", "--k", "0", "--p", "2",
                 "--grid-level", "3", "--slab", "2"],
                ["bound", "--domain", str(spec_path), "--case", "A",
                 "--m", "1", "--p", "2", "--q", "2", "--s", "-1"],
                ["bound", "--domain", str(spec_path), "--case", "C",
                 "--m", "1", "--p", "2", "--q", "2", "--s", "-1",
                 "--A0", "0.1", "--grid-level", "3", "--svg"],
                ["direct", "--domain", str(spec_path), "--m", "1",
                 "--p", "2", "--s", "-1"],
            ]
            run_digests = {}
            for i, cmd in enumerate(cmds):
                code = cli.main(cmd + ["--out", str(out / f"cmd{i}"),
                                       "--seed", "1234"])
                if code != 0:
                    return {"criterion": 9, "name": "determinism",
                            "passed": False,
                            "rows": [{"failed_command": cmd}]}
            for path in sorted(out.glob("cmd*/*")):
                run_digests[str(path.relative_to(out))] = sha256_of_file(path)
            digests.append(run_digests)
    same = digests[0] == digests[1]
    return {"criterion": 9, "name": "determinism", "passed": same,
            "rows": [{"files": sorted(digests[0]), "identical": same}]}


ALL_CRITERIA = [
    criterion_whitney,
    criterion_summation,
    criterion_dimension,
    criterion_capacity,
    criterion_hardy_anchor,
    criterion_soundness,
    criterion_case_e,
    criterion_cone,
    criterion_determinism,
]


def run_suite(selected) -> list[dict]:
    results = []
    for fn in ALL_CRITERIA:
        name = fn.__name__.replace("criterion_", "")
        if selected and name not in selected:
            continue
        t0 = time.time()
        res = fn()
        res["runtime"] = time.time() - t0
        results.append(res)
        state = "PASS" if res["passed"] else "FAIL"
        print(f"[{state}] criterion {res['criterion']}: {res['name']} "
              f"({res['runtime']:.1f}s)")
    return results
