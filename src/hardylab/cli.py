"""Command-line front end: domain ingestion, report emission, reproducibility.

Every command writes its outputs into --out, then a manifest listing each
emitted file with a content digest.  Reports are JSON with sorted keys and
repr-exact floats, so identical configs and seeds reproduce byte-identical
files.  Failures exit nonzero after printing a machine-readable error
record naming the violated precondition, with no partial outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .grids import DomainSpec, DomainError, rasterize, read_ndfn, ndfn_text
from .whitney import decompose, check_decomposition, to_svg, WhitneyError
from .dimension import dim_loc, dim_mc_loc, DimensionError, \
    selfsimilarity_signature, export_gs_table, export_boxcount_table
from .capacity import (CapacityError, ConstraintSet, check_grid_level,
                       gamma_capacity, theta_capacity, default_theta_a0)
from .hardy import (HardyError, HardyParams, LsWeightFunction,
                    constructive_bound, case_e_shift, corollary_619_check,
                    direct_best_constant)
from .cone import ConeError, cone_split
from .norms import DiscreteFunction
from ._util import stable_json, sha256_of_file


class _Emitter:
    """Collects outputs in memory and writes them (plus a manifest) only
    when the command has fully succeeded."""

    def __init__(self, out_dir: str, tag: str):
        self.dir = Path(out_dir)
        self.tag = tag
        self.pending: list[tuple[str, str]] = []

    def add_json(self, name: str, payload) -> None:
        self.pending.append((name, stable_json(payload) + "\n"))

    def add_text(self, name: str, text: str) -> None:
        self.pending.append((name, text))

    def flush(self) -> list[str]:
        self.dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, text in self.pending:
            path = self.dir / name
            path.write_text(text)
            written.append(str(path))
        manifest = {
            "tool": f"hardylab {__version__}",
            "command": self.tag,
            "files": {Path(p).name: sha256_of_file(p) for p in written},
        }
        mpath = self.dir / f"{self.tag}-manifest.json"
        mpath.write_text(stable_json(manifest) + "\n")
        written.append(str(mpath))
        return written


def _fail(record: dict) -> int:
    print(stable_json(record))
    return 2


def _load_domain(args):
    spec = DomainSpec.from_json(args.domain)
    return rasterize(spec)


def _spec_record(dom) -> dict:
    s = dom.spec
    return {"kind": s.kind, "dim": s.dim, "level": s.level,
            "iterations": s.iterations, "ratio": s.ratio,
            "radius": s.radius}


def _params_from_args(args) -> HardyParams:
    kw = dict(m=args.m, k=args.k, p=args.p, p1=args.p1, q=args.q, s=args.s,
              case=args.case, p0=args.p0, cone=args.cone,
              A0=getattr(args, "A0", None),
              form=args.form, h_order=args.h_order, lam=args.lam,
              dim_loc_value=args.dim_loc)
    return HardyParams(**{k: v for k, v in kw.items() if v is not None})


def _per_cube_csv(report) -> str:
    cols = ["cube", "level", "lambda", "lambda1", "chain_constant",
            "alpha", "beta", "holder_defect", "f", "skipped"]
    lines = [",".join(cols)]
    for row in report.per_cube:
        lines.append(",".join(repr(row[c]) if c in row else "" for c in cols))
    return "\n".join(lines) + "\n"


def cmd_decompose(args) -> int:
    dom = _load_domain(args)
    dec = decompose(dom)
    res = check_decomposition(dec)
    emitter = _Emitter(args.out, "decompose")
    payload = {
        "seed": args.seed, "spec": _spec_record(dom), "n_cubes": dec.n_cubes,
        "levels": {str(k): int(len(dec.cubes_at_level(k)))
                   for k in dec.populated_levels()},
        "checks": res,
    }
    emitter.add_json("decompose-report.json", payload)
    if args.svg and dom.dim == 2:
        emitter.add_text("decomposition.svg",
                         to_svg(dec, show_enlarged=args.svg_enlarged))
    emitter.flush()
    return 0


def cmd_dimloc(args) -> int:
    dom = _load_domain(args)
    dec = decompose(dom)
    dl = dim_loc(dec)
    dm = dim_mc_loc(dec)
    disc, flagged = selfsimilarity_signature(dec)
    emitter = _Emitter(args.out, "dimloc")
    emitter.add_json("dimloc-report.json", {
        "seed": args.seed, "spec": _spec_record(dom),
        "dim_loc": dl.to_record(), "dim_mc_loc": dm.to_record(),
        "selfsimilarity_max_discrepancy": disc,
        "selfsimilarity_flagged_pairs": len(flagged),
    })
    emitter.add_text("gs-table.csv", export_gs_table(
        dec, [0.25 * j for j in range(1, 2 * dom.dim + 1)]))
    emitter.add_text("boxcount-table.csv", export_boxcount_table(dm))
    emitter.flush()
    return 0


def cmd_capacity(args) -> int:
    check_grid_level(args.grid_level, args.m)
    m_cells = 2**args.grid_level
    if args.mask:
        rows = args.mask.split("/")
        if set("".join(rows)) - {"0", "1"} or len(set(map(len, rows))) != 1:
            raise CapacityError("--mask must be equal-length rows of only "
                                "'0'/'1' separated by '/'")
        K = np.array([[ch == "1" for ch in row] for row in rows], dtype=bool)
    else:
        K = np.zeros((m_cells,) * args.dim, dtype=bool)
        K[tuple(slice(0, args.slab) if a == 0 else slice(None)
                for a in range(args.dim))] = True
    cs = ConstraintSet(K, args.cone)
    p1 = args.p if args.p1 is None else args.p1
    if args.flavor == "gamma":
        if args.A0 is not None:
            raise CapacityError("A0 is read by the theta flavor only")
        res = gamma_capacity(cs, args.m, args.k, args.p, p1,
                             args.grid_level, args.dim, args.seed)
    else:
        a0 = args.A0
        if a0 is None:
            a0 = default_theta_a0(args.dim, args.k, p1, args.grid_level)
        res = theta_capacity(cs, args.m, args.k, args.p, p1,
                             a0, args.grid_level, args.dim, args.seed)
    emitter = _Emitter(args.out, "capacity")
    emitter.add_json("capacity-report.json",
                     {"seed": args.seed, **res.to_record()})
    emitter.flush()
    return 0


def cmd_bound(args) -> int:
    dom = _load_domain(args)
    dec = decompose(dom)
    params = _params_from_args(args)
    f = None
    if args.f_weights:
        vals = np.array([float(tok) for tok
                         in Path(args.f_weights).read_text().split()])
        f = LsWeightFunction(vals, LsWeightFunction.sequence_exponent(params))
    if params.case == "E":
        report = case_e_shift(dec, params, args.grid_level, args.seed)
    else:
        report = constructive_bound(dec, params, args.grid_level, args.seed,
                                    f=f, with_direct=args.with_direct)
    emitter = _Emitter(args.out, "bound")
    emitter.add_json("bound-report.json",
                     {"seed": args.seed, "spec": _spec_record(dom),
                      **report.to_record()})
    emitter.add_text("bound-percube.csv", _per_cube_csv(report))
    if args.svg and dom.dim == 2 and params.case != "E":
        # the Lambda column of the per-cube rows is the assembled field
        lam = np.array([row["lambda"] for row in report.per_cube])
        emitter.add_text("lambda-field.svg", _lambda_svg(dec, lam))
    emitter.flush()
    return 0


def _lambda_svg(dec, lam: np.ndarray) -> str:
    """Cubes shaded by their Lambda value (non-finite values unshaded)."""
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" '
             'height="640" viewBox="0 0 1 1">']
    lam = np.where(np.isfinite(lam), lam, 0.0)
    positive = lam[lam > 0]
    top = positive.max() if len(positive) else 1.0
    sides = dec.sides()
    for side, (x, y), value in zip(sides.tolist(),
                                   (dec.coords * sides[:, None]).tolist(),
                                   lam.tolist()):
        frac = min(value / top, 1.0)
        shade = int(255 - 205 * frac)
        lines.append(
            f'<rect x="{x:.6f}" y="{1 - y - side:.6f}" width="{side:.6f}" '
            f'height="{side:.6f}" fill="rgb(255,{shade},{shade})" '
            f'stroke="#444" stroke-width="0.0008"/>')
    lines.append("</svg>")
    return "\n".join(lines)


def cmd_direct(args) -> int:
    dom = _load_domain(args)
    params = _params_from_args(args)
    est = direct_best_constant(dom, params, seed=args.seed)
    emitter = _Emitter(args.out, "direct")
    emitter.add_json("direct-report.json", {
        "seed": args.seed, "spec": _spec_record(dom), "params": params.to_record(),
        "norm_ratio_estimate": est, "integral_ratio_estimate": est**params.p,
        "note": "lower bound on the best constant",
    })
    emitter.flush()
    return 0


def cmd_corollary(args) -> int:
    dom = _load_domain(args)
    dec = decompose(dom)
    params = _params_from_args(args)
    ok, report, details = corollary_619_check(
        dom, dec, args.corollary_case, params, grid_level=args.grid_level,
        seed=args.seed, r_dim=args.r_dim,
        asserted_selfsimilar=args.selfsimilar)
    emitter = _Emitter(args.out, "corollary")
    emitter.add_json("corollary-report.json", {
        "seed": args.seed, "spec": _spec_record(dom),
        "hypotheses_ok": ok, "details": details,
        "bound": report.to_record() if report else None,
    })
    emitter.flush()
    return 0 if ok else 1


def cmd_cone_split(args) -> int:
    dom = _load_domain(args)
    dec = decompose(dom)
    u = DiscreteFunction(dom, read_ndfn(args.u))
    split = cone_split(u, dec, args.m, args.p, args.s)
    emitter = _Emitter(args.out, "cone-split")
    emitter.add_json("cone-report.json", {
        "seed": args.seed, "spec": _spec_record(dom), **split.to_record()})
    emitter.add_text("u1.fn", ndfn_text(split.u1.values))
    emitter.add_text("u2.fn", ndfn_text(split.u2.values))
    emitter.flush()
    return 0


def cmd_suite(args) -> int:
    from .acceptance import run_suite
    selected = args.only.split(",") if args.only else None
    results = run_suite(selected=selected)
    emitter = _Emitter(args.out, "suite")
    emitter.add_json("suite-report.json",
                     {"seed": args.seed, "results": results})
    emitter.flush()
    return 0 if all(r["passed"] for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardylab",
        description="Whitney decompositions, boundary dimensions, capacities,"
                    " and constructive Hardy-inequality constants on rasters")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, domain=True):
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        if domain:
            sp.add_argument("--domain", required=True,
                            help="domain spec JSON (path or literal)")

    sp = sub.add_parser("decompose", help="Whitney decomposition + checks")
    common(sp)
    sp.add_argument("--svg", action="store_true")
    sp.add_argument("--svg-enlarged", action="store_true")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("dimloc", help="local dimension estimates")
    common(sp)
    sp.set_defaults(fn=cmd_dimloc)

    sp = sub.add_parser("capacity", help="unit-cube capacity solve")
    common(sp, domain=False)
    sp.add_argument("--flavor", choices=("gamma", "theta"), default="gamma")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--p1", type=float)
    sp.add_argument("--A0", type=float)
    sp.add_argument("--grid-level", type=int, default=4)
    sp.add_argument("--slab", type=int, default=2,
                    help="zero set = slab of this many cells")
    sp.add_argument("--mask", help="explicit 0/1 rows separated by '/'")
    sp.add_argument("--cone", action="store_true")
    sp.set_defaults(fn=cmd_capacity)

    def hardy_args(sp):
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--k", type=int)
        sp.add_argument("--p", type=float, default=2.0)
        sp.add_argument("--p1", type=float)
        sp.add_argument("--q", type=float)
        sp.add_argument("--s", type=float, default=0.0)
        sp.add_argument("--p0", type=float)
        sp.add_argument("--case", default="A", choices=list("ABCDE"))
        sp.add_argument("--form", default="integral-6.24",
                        choices=("integral-6.24", "holder-6.23"))
        sp.add_argument("--h-order", type=int)
        sp.add_argument("--lam", type=float)
        sp.add_argument("--cone", action="store_true")
        sp.add_argument("--dim-loc", type=float,
                        help="local dimension input for cases B/D")
        sp.add_argument("--grid-level", type=int, default=4)

    sp = sub.add_parser("bound", help="constructive Hardy constant")
    common(sp)
    hardy_args(sp)
    sp.add_argument("--A0", type=float, help="theta cases C and D only")
    sp.add_argument("--f-weights", help="cube weight file for q < [p,p1]")
    sp.add_argument("--with-direct", action="store_true")
    sp.add_argument("--svg", action="store_true")
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("direct", help="direct best-constant estimate")
    common(sp)
    hardy_args(sp)
    sp.set_defaults(fn=cmd_direct)

    sp = sub.add_parser("corollary", help="hypothesis gate + bound")
    common(sp)
    hardy_args(sp)
    sp.add_argument("--corollary-case", "--case-id", dest="corollary_case",
                    required=True, choices=list("i ii iii iv v vi vii viii ix x".split()))
    sp.add_argument("--r-dim", type=int)
    sp.add_argument("--selfsimilar", action="store_true",
                    help="assert complement self-similarity (cases ix/x)")
    sp.set_defaults(fn=cmd_corollary)

    sp = sub.add_parser("cone-split", help="nonnegative-cone decomposition")
    common(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--s", type=float, default=0.0)
    sp.add_argument("--u", required=True, help="NDFN v1 probe function")
    sp.set_defaults(fn=cmd_cone_split)

    sp = sub.add_parser("suite", help="run the acceptance criteria")
    common(sp, domain=False)
    sp.add_argument("--only", help="comma-separated criterion names")
    sp.set_defaults(fn=cmd_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, WhitneyError, DimensionError, CapacityError,
            HardyError, ConeError) as exc:
        return _fail({"error": str(exc), "kind": type(exc).__name__,
                      "command": args.command})
    except FileNotFoundError as exc:
        return _fail({"error": str(exc), "kind": "FileNotFoundError",
                      "command": args.command})


if __name__ == "__main__":
    sys.exit(main())
