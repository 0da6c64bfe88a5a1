import json
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


def test_capacity_command(tmp_path):
    code = run(["capacity", "--m", 1, "--k", 0, "--p", 2, "--grid-level", 3,
                "--slab", 2, "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "capacity-report.json").read_text())
    assert rep["capacity"] > 0


def test_bound_and_percube_csv(tmp_path):
    code = run(["bound", "--domain", INTERVAL, "--case", "A", "--m", 1,
                "--p", 2, "--q", 2, "--s", -1, "--out", tmp_path,
                "--with-direct"])
    assert code == 0
    rep = json.loads((tmp_path / "bound-report.json").read_text())
    assert rep["sound"] is True
    csv = (tmp_path / "bound-percube.csv").read_text()
    assert csv.splitlines()[0].startswith("cube,level,lambda")


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
