"""The benchmark's tracer (perfbench/tracing.py) wraps hardylab functions by
name and reads what they return.  These checks run small real commands under
its recorder, so a renamed function or a changed return shape fails here
rather than in a benchmark run."""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hardylab import cli
from hardylab.grids import DomainSpec, rasterize, write_ndfn

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist(tracing):
    for mod, fn, *_ in tracing.SPANNED + tracing.COUNTED:
        assert callable(getattr(importlib.import_module(f"hardylab.{mod}"), fn))


def _commands(tmp_path):
    interval = '{"kind": "interval", "dim": 1, "level": 5}'
    square = '{"kind": "square", "dim": 2, "level": 4}'
    lshape = '{"kind": "lshape", "dim": 2, "level": 5}'
    dom = rasterize(DomainSpec.from_json(lshape))
    xs, ys = dom.center_grid()
    probe = tmp_path / "probe.fn"
    write_ndfn(probe, np.where(dom.distance > 6 * dom.h, np.exp(
        -((xs - 0.3) ** 2 + (ys - 0.7) ** 2) / 0.01), 0.0))
    bound = ["bound", "--m", "1", "--p", "2", "--grid-level", "2"]
    return [
        ["decompose", "--domain", lshape, "--svg"],
        ["dimloc", "--domain", '{"kind": "halfspace", "dim": 2, "level": 7}'],
        bound + ["--domain", square, "--s", "-1", "--with-direct", "--svg"],
        bound + ["--domain", square, "--s", "-1", "--case", "C",
                 "--A0", "0.1"],
        bound + ["--domain", square, "--s", "0.3", "--case", "B", "--p0", "1",
                 "--dim-loc", "1", "--q", "2"],
        bound + ["--domain", interval, "--s", "-1", "--form", "holder-6.23",
                 "--h-order", "0", "--lam", "0.25"],
        ["bound", "--domain", interval, "--m", "2", "--k", "0", "--p", "2",
         "--s", "-1", "--grid-level", "3"],
        # a field's eigen classes are solved inside gamma_capacities, which
        # the tracer does not wrap: one eigen solve through gamma_capacity
        ["capacity", "--m", "1", "--k", "0", "--p", "2", "--grid-level", "3"],
        ["cone-split", "--domain", lshape, "--m", "1", "--p", "2",
         "--u", str(probe)],
    ]


def test_traced_calls_and_return_shapes(tracing, tmp_path):
    rec = tracing.Recorder()
    rec.install()
    commands = _commands(tmp_path)
    try:
        for i, argv in enumerate(commands):
            assert cli.main(argv + ["--out", str(tmp_path / str(i))]) == 0
    finally:
        rec.uninstall()

    spanned = {f"{mod}.{fn}" for mod, fn, _ in tracing.SPANNED}
    assert {s[0] for s in rec.spans} == spanned
    solvers = tracing.REPORTED_SOLVES + tracing.CHAIN_SOLVES
    for name, _, _, parent, _, facts in rec.spans:
        if name in solvers:
            assert isinstance(facts["solver"], str)
            assert isinstance(facts["residual"], float)
            # a solve never runs another traced solve, so counts are exact
            assert parent < 0 or rec.spans[parent][0] not in solvers
        if name == "hardy.per_cube_capacity_field":
            assert facts["cubes"] > 0 and facts["clamped"] >= 0
    assert rec.counts["capacity.gradient_norm_grad"] > 0
    # one local_majorant span per logged cube, each inside the split
    assert commands[-1][0] == "cone-split"
    report = json.loads(
        (tmp_path / str(len(commands) - 1) / "cone-report.json").read_text())
    splits = [i for i, s in enumerate(rec.spans) if s[0] == "cone.cone_split"]
    majorants = [s for s in rec.spans if s[0] == "cone.local_majorant"]
    assert len(splits) == 1
    assert len(majorants) == len(report["per_cube_log"]) > 0
    assert all(s[3] == splits[0] for s in majorants)

    metrics = tracing.layer_metrics(rec)
    assert metrics["hardy.capacity_field_calls"] == 5
    assert metrics["capacity.solves.descent"] > 0
    assert metrics["capacity.solves.eigen-exact"] > 0
    assert all(math.isfinite(v) for v in metrics.values())
