import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hardylab import cli
from hardylab.grids import DomainSpec, rasterize, write_ndfn, read_ndfn
from hardylab._util import sha256_of_file


LSHAPE = '{"kind": "lshape", "dim": 2, "level": 5}'
INTERVAL = '{"kind": "interval", "dim": 1, "level": 7}'


def run(args):
    return cli.main([str(a) for a in args])


def test_decompose_and_manifest(tmp_path):
    code = run(["decompose", "--domain", LSHAPE, "--out", tmp_path, "--svg"])
    assert code == 0
    report = json.loads((tmp_path / "decompose-report.json").read_text())
    assert report["checks"]["cover_exact"]
    manifest = json.loads((tmp_path / "decompose-manifest.json").read_text())
    assert "decompose-report.json" in manifest["files"]
    assert (tmp_path / "decomposition.svg").exists()


def test_dimloc_outputs(tmp_path):
    code = run(["dimloc", "--domain",
                '{"kind": "halfspace", "dim": 2, "level": 7}',
                "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "dimloc-report.json").read_text())
    assert 0.0 <= report["dim_loc"]["value"] <= 2.0
    assert (tmp_path / "gs-table.csv").read_text().startswith("s,level,sup")


def test_dimloc_counts_boxes_once(tmp_path, monkeypatch):
    # the box-count table reuses the counts of the dim_mc_loc estimate
    from hardylab import dimension

    calls = []
    box_counts = dimension._box_counts

    def counted(*args, **kwargs):
        calls.append(args)
        return box_counts(*args, **kwargs)

    monkeypatch.setattr(dimension, "_box_counts", counted)
    code = run(["dimloc", "--domain",
                '{"kind": "halfspace", "dim": 2, "level": 7}',
                "--out", tmp_path])
    assert code == 0 and len(calls) == 1
    # the table lists every counted scale, the estimate's fit all but the
    # finest
    report = json.loads((tmp_path / "dimloc-report.json").read_text())
    rows = (tmp_path / "boxcount-table.csv").read_text().splitlines()[1:]
    fitted = report["dim_mc_loc"]["per_level_sups"]
    assert len(rows) == len(fitted) + 1
    assert [row.split(",")[1] for row in rows[:-1]] == [
        repr(count) for _, count in fitted]


def test_dimloc_builds_each_gs_table_once(tmp_path, monkeypatch):
    # the gs-table rows at s = 0.5, 0.75 and 1.0 are bisection points of
    # dim_loc, so only s = 0.25 adds a summed-area table: 13 + 1, not 13 + 4
    from hardylab.whitney import WhitneyDecomposition

    calls = []
    integrals = WhitneyDecomposition.rq_distance_integrals

    def counted(self, s):
        calls.append(s)
        return integrals(self, s)

    monkeypatch.setattr(WhitneyDecomposition, "rq_distance_integrals",
                        counted)
    code = run(["dimloc", "--domain",
                '{"kind": "koch-polygon", "dim": 2, "level": 9, '
                '"iterations": 4}', "--out", tmp_path])
    assert code == 0
    assert len(calls) == 14 and len(set(calls)) == 14


def test_capacity_command(tmp_path):
    code = run(["capacity", "--m", 1, "--k", 0, "--p", 2, "--grid-level", 3,
                "--slab", 2, "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "capacity-report.json").read_text())
    assert rep["capacity"] > 0


@pytest.mark.parametrize("extra,message", [
    (["--flavor", "theta", "--k", 0, "--A0", 0], "A0 must be positive"),
    (["--m", 2, "--k", 0, "--p1", 0], "p1 must be positive"),
    (["--k", 0, "--p1", 0], "p1 must be positive"),
    (["--k", 0, "--mask", "11x1/0000/0000/0000"], "only '0'/'1'"),
    (["--k", 0, "--mask", "1111/000/0000/0000"], "equal-length rows"),
], ids=["A0-zero", "p1-zero", "p1-zero-top-order", "mask-char",
        "mask-ragged"])
def test_capacity_explicit_inputs_are_not_replaced(tmp_path, capsys, extra,
                                                   message):
    # an explicit 0 is an input, not a missing option
    args = ["capacity", "--m", 1, "--p", 2, "--grid-level", 2,
            "--out", tmp_path / "sub"] + extra
    assert run(args) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == "CapacityError"
    assert message in record["error"]
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize("extra,message", [
    (["--m", 2, "--k", 1, "--p1", 0], "p1 must be positive"),
    (["--m", 1, "--q", -1, "--form", "holder-6.23", "--h-order", 0,
      "--lam", 0.25, "--grid-level", 3], "q must be positive"),
], ids=["p1-zero", "q-negative"])
def test_bound_rejects_nonpositive_exponents(tmp_path, capsys, extra,
                                             message):
    args = ["bound", "--domain", '{"kind":"interval","dim":1,"level":6}',
            "--p", 2, "--s", -1, "--out", tmp_path / "sub"] + extra
    assert run(args) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == "HardyError"
    assert message in record["error"]
    assert not (tmp_path / "sub").exists()


INTERVAL6 = '{"kind": "interval", "dim": 1, "level": 6}'


@pytest.mark.parametrize("args,kind", [
    (["capacity", "--flavor", "gamma", "--k", 0], "CapacityError"),
    (["bound", "--domain", INTERVAL6, "--case", "A", "--s", -1],
     "HardyError"),
    (["bound", "--domain", INTERVAL6, "--case", "B", "--s", -1, "--p0", 1.5,
      "--dim-loc", 0.5], "HardyError"),
    (["bound", "--domain", INTERVAL6, "--case", "E", "--s", 0.5],
     "HardyError"),
], ids=["capacity-gamma", "bound-A", "bound-B", "bound-E"])
def test_unread_A0_is_rejected(tmp_path, capsys, args, kind):
    # an explicit --A0 that no solve reads is an error, not an echoed
    # input beside a report computed without it
    argv = args + ["--m", 1, "--p", 2, "--grid-level", 2, "--A0", 0.1,
                   "--out", tmp_path / "sub"]
    assert run(argv) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == kind
    assert "A0 is read by" in record["error"]
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize("args", [
    ["direct", "--domain", INTERVAL6, "--case", "C", "--s", -1],
    ["corollary", "--domain", INTERVAL6, "--corollary-case", "i", "--s", -1],
], ids=["direct", "corollary"])
def test_A0_is_not_an_option_without_theta_solve(tmp_path, args):
    # direct and corollary solve no theta capacity, so they take no --A0
    argv = args + ["--m", 1, "--p", 2, "--A0", 0.1, "--out", tmp_path / "sub"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "sub").exists()


SQUARE4 = '{"kind": "square", "dim": 2, "level": 4}'


@pytest.mark.parametrize("args", [
    ["capacity", "--m", 1, "--k", 0, "--p", 2, "--grid-level", 0,
     "--slab", 1],
    ["capacity", "--m", 1, "--k", 0, "--p", 2, "--grid-level", -1],
    ["capacity", "--m", 2, "--k", 0, "--p", 2, "--grid-level", 1],
    ["capacity", "--flavor", "theta", "--m", 1, "--k", 0, "--p", 2,
     "--grid-level", 0],
    ["bound", "--domain", SQUARE4, "--m", 1, "--p", 2, "--s", -1,
     "--grid-level", 0],
    ["bound", "--domain", SQUARE4, "--m", 1, "--p", 2, "--s", -1,
     "--grid-level", 0, "--with-direct"],
    ["bound", "--domain", SQUARE4, "--m", 1, "--p", 2, "--s", -1,
     "--grid-level", -1],
], ids=["capacity-level0-slab", "capacity-negative", "capacity-m2-level1",
        "theta-level0", "bound-level0", "bound-level0-direct",
        "bound-negative"])
def test_grid_too_coarse_for_order(tmp_path, capsys, args):
    # a lattice of at most m cells per axis has no order-m difference
    assert run(args + ["--out", tmp_path / "sub"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == "CapacityError"
    assert "grid too coarse" in record["error"]
    assert not (tmp_path / "sub").exists()


def test_bound_and_percube_csv(tmp_path):
    code = run(["bound", "--domain", INTERVAL, "--case", "A", "--m", 1,
                "--p", 2, "--q", 2, "--s", -1, "--out", tmp_path,
                "--with-direct"])
    assert code == 0
    rep = json.loads((tmp_path / "bound-report.json").read_text())
    assert rep["sound"] is True
    csv = (tmp_path / "bound-percube.csv").read_text()
    assert csv.splitlines()[0].startswith("cube,level,lambda")


@pytest.mark.parametrize("case,extra", [("A", []), ("C", ["--A0", 0.1])])
def test_bound_svg_shades_the_assembled_field(tmp_path, case, extra):
    # lambda-field.svg draws the Lambda field of the bound's own solve
    from hardylab.hardy import HardyParams, per_cube_capacity_field
    from hardylab.whitney import decompose

    code = run(["bound", "--domain", LSHAPE, "--case", case, "--m", 1,
                "--p", 2, "--q", 2, "--s", -1, "--grid-level", 3,
                "--seed", 5, "--svg", "--out", tmp_path] + extra)
    assert code == 0
    dec = decompose(rasterize(DomainSpec.from_json(LSHAPE)))
    params = HardyParams(m=1, p=2.0, q=2.0, s=-1.0, case=case,
                         A0=0.1 if extra else None)
    want = cli._lambda_svg(dec, per_cube_capacity_field(dec, params, 3, 5).lam)
    assert (tmp_path / "lambda-field.svg").read_text() == want
    manifest = json.loads((tmp_path / "bound-manifest.json").read_text())
    assert "lambda-field.svg" in manifest["files"]


def test_direct_command(tmp_path):
    code = run(["direct", "--domain", INTERVAL, "--m", 1, "--p", 2, "--s", 0,
                "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "direct-report.json").read_text())
    assert rep["integral_ratio_estimate"] > 1.0


def test_corollary_command(tmp_path):
    code = run(["corollary", "--domain",
                '{"kind": "halfspace", "dim": 2, "level": 5}',
                "--corollary-case", "i", "--m", 1, "--p", 2, "--s", -1,
                "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "corollary-report.json").read_text())
    assert rep["hypotheses_ok"] is True


def test_corollary_x_without_p0_reports_the_failure(tmp_path):
    # the capacity floor of cases ix/x needs p0; with it missing the
    # report carries the failure instead of solving at no exponent
    code = run(["corollary", "--domain", INTERVAL, "--corollary-case", "x",
                "--m", 1, "--p", 2, "--s", -1, "--selfsimilar",
                "--grid-level", 2, "--out", tmp_path])
    assert code == 1
    rep = json.loads((tmp_path / "corollary-report.json").read_text())
    assert rep["hypotheses_ok"] is False
    assert "p0 missing or outside [1, p)" in rep["details"]["failures"]
    assert "capacity_floor" not in rep["details"]


def test_cone_split_roundtrip(tmp_path):
    dom = rasterize(DomainSpec.from_json(LSHAPE))
    xs, ys = dom.center_grid()
    vals = np.where(dom.distance > 6 * dom.h,
                    np.exp(-((xs - 0.3) ** 2 + (ys - 0.7) ** 2) / 0.01), 0.0)
    probe = tmp_path / "probe.fn"
    write_ndfn(probe, vals)
    code = run(["cone-split", "--domain", LSHAPE, "--m", 1, "--p", 2,
                "--u", probe, "--out", tmp_path])
    assert code == 0
    u1 = read_ndfn(tmp_path / "u1.fn")
    u2 = read_ndfn(tmp_path / "u2.fn")
    assert (u1 >= 0).all() and (u2 >= 0).all()
    inside = dom.inside
    assert np.allclose((u1 - u2)[inside], vals[inside], atol=1e-9)


def test_malformed_spec_fails_cleanly(tmp_path, capsys):
    code = run(["decompose", "--domain", '{"kind": "nope", "dim": 2, "level": 5}',
                "--out", tmp_path / "sub"])
    assert code == 2
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == "DomainError"
    assert not (tmp_path / "sub").exists()  # no partial outputs


def test_hypothesis_violation_exit_code(tmp_path, capsys):
    code = run(["bound", "--domain", INTERVAL, "--case", "A", "--m", 1,
                "--p", 2, "--s", 1, "--out", tmp_path])
    assert code == 2
    record = json.loads(capsys.readouterr().out)
    assert "s < 0" in record["error"]


def test_repeat_run_byte_identical(tmp_path):
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = run(["bound", "--domain", LSHAPE, "--case", "A", "--m", 1,
                    "--p", 2, "--q", 2, "--s", -1, "--seed", 7, "--out", out])
        assert code == 0
        digests.append({p.name: sha256_of_file(p) for p in sorted(out.iterdir())})
    assert digests[0] == digests[1]


# -- argument sweep: every combination ends in a report or an error record ----

SWEEP_DOMAINS = {
    "interval6": '{"kind": "interval", "dim": 1, "level": 6}',
    "square6": '{"kind": "square", "dim": 2, "level": 6}',
}
REPORTS = {"bound": "bound-report.json", "direct": "direct-report.json",
           "corollary": "corollary-report.json",
           "capacity": "capacity-report.json"}


def _sweep_bound():
    for dom, case, m in product(SWEEP_DOMAINS, "ABCD", (1, 2)):
        p0s = (None, 1.5) if case in "BD" else (None,)
        a0s = (None, 0.1) if case in "CD" else (None,)
        for p0, a0 in product(p0s, a0s):
            argv = ["bound", "--domain", SWEEP_DOMAINS[dom], "--case", case,
                    "--m", m, "--p", 2, "--s", -1, "--grid-level", 2]
            argv += ["--p0", p0, "--dim-loc", 0.5] if p0 is not None else []
            argv += ["--A0", a0] if a0 is not None else []
            yield argv


def _sweep_corollary():
    for case, m, s, p0 in product("i ii iii iv v vi vii viii ix x".split(),
                                  (1, 2), (-1, 0.5), (None, 1.5)):
        argv = ["corollary", "--domain", SWEEP_DOMAINS["interval6"],
                "--corollary-case", case, "--m", m, "--p", 2, "--s", s,
                "--grid-level", 2, "--r-dim", 1, "--selfsimilar"]
        yield argv + (["--p0", p0] if p0 is not None else [])


def _sweep_capacity():
    for flavor, dim, m, a0 in product(("gamma", "theta"), (1, 2), (1, 2),
                                      (None, 0.1)):
        argv = ["capacity", "--flavor", flavor, "--dim", dim, "--m", m,
                "--k", m - 1, "--p", 2, "--grid-level", 2]
        yield argv + (["--A0", a0] if a0 is not None else [])


def _sweep_direct():
    for dom, m, s in product(SWEEP_DOMAINS, (1, 2), (-1, 0.5)):
        yield ["direct", "--domain", SWEEP_DOMAINS[dom], "--m", m, "--p", 2,
               "--s", s]


@pytest.mark.parametrize("sweep", [_sweep_bound, _sweep_corollary,
                                   _sweep_capacity, _sweep_direct],
                         ids=["bound", "corollary", "capacity", "direct"])
def test_argument_sweep_ends_in_report_or_error_record(tmp_path, capsys,
                                                       sweep):
    # exit 0 (1: failed corollary hypotheses) with a report, or exit 2
    # with an error record and no outputs; never another exception
    bad = []
    for i, argv in enumerate(sweep()):
        out = tmp_path / str(i)
        capsys.readouterr()
        try:
            code = run(argv + ["--out", out])
        except Exception as exc:  # noqa: BLE001 - the sweep's finding
            bad.append((argv, repr(exc)))
            continue
        printed = capsys.readouterr().out
        report = out / REPORTS[argv[0]]
        if code == 0 or (code == 1 and argv[0] == "corollary"):
            ok = report.exists() and (code == 0 or not json.loads(
                report.read_text())["hypotheses_ok"])
        else:
            record = json.loads(printed) if code == 2 else {}
            ok = {"error", "kind"} <= set(record) and not out.exists()
        if not ok:
            bad.append((argv, code, printed))
    assert bad == []


def _same_bytes_at_blas_threads(tmp_path, argv):
    """Runs the CLI once per OpenBLAS thread count, 1 and 2 (two at most:
    the test machine may have no more cores), each in a fresh process, and
    asserts that the runs write the same files, byte for byte.  Returns
    the first run's output directory."""
    import hardylab

    src = str(Path(hardylab.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from hardylab.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             *map(str, argv), "--out", str(out)],
            env=env, check=True, capture_output=True)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    return outs[0]


def test_bound_3d_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the 3-D direct estimate and every capacity solve read the same bytes
    # at one and two BLAS threads
    out = _same_bytes_at_blas_threads(tmp_path, [
        "bound", "--domain",
        '{"kind": "cube-minus-compact", "dim": 3, "level": 5}',
        "--case", "A", "--m", "1", "--p", "2", "--s", "-1",
        "--with-direct", "--seed", "1"])
    assert (out / "bound-report.json").exists()


def test_bound_2d_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the lshape L6 capacity classes (block eigensolver) and the 2-D direct
    # estimate (shift-invert) read the same bytes at one and two BLAS
    # threads
    out = _same_bytes_at_blas_threads(tmp_path, [
        "bound", "--domain", '{"kind": "lshape", "dim": 2, "level": 6}',
        "--case", "A", "--m", "1", "--p", "2", "--s", "-1",
        "--with-direct", "--seed", "1"])
    assert (out / "bound-percube.csv").exists()


def test_cone_split_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the split's FFTs, windowed convolutions and seminorms read the same
    # bytes at one and two BLAS threads
    from hardylab.cone import make_probe

    spec = '{"kind": "lshape", "dim": 2, "level": 6}'
    probe = tmp_path / "probe.fn"
    write_ndfn(probe, make_probe(rasterize(DomainSpec.from_json(spec)),
                                 1).values)
    out = _same_bytes_at_blas_threads(tmp_path, [
        "cone-split", "--domain", spec, "--m", "2", "--p", "2", "--s", "0",
        "--u", probe, "--seed", "1"])
    assert (out / "u1.fn").exists() and (out / "u2.fn").exists()
    assert json.loads((out / "cone-report.json").read_text())["per_cube_log"]
