import math

import numpy as np
import pytest

from hardylab.grids import (DomainSpec, DomainError, GridDomain, MAX_CELLS,
                            rasterize, read_ndgrid,
                            read_ndfn, write_ndfn, _cantor_intervals)
from hardylab.whitney import _pool
from oracles import brute_force_distance


def test_halfspace_half_inside():
    dom = rasterize(DomainSpec(kind="halfspace", dim=2, level=4))
    assert dom.inside.sum() == dom.inside.size // 2


def test_interval_all_inside_complement_nonempty():
    dom = rasterize(DomainSpec(kind="interval", dim=1, level=6))
    assert dom.inside.all()
    # the collar supplies the complement
    assert (~dom.padded_inside()).any()


def test_cantor_complement_count_oracle():
    # brute-force interval arithmetic: count centers covered by the 8
    # retained intervals of length 1/27 at iteration 3
    level, iters, ratio = 9, 3, 1.0 / 3.0
    dom = rasterize(DomainSpec(kind="cantor-complement", dim=1, level=level,
                               iterations=iters, ratio=ratio))
    intervals = _cantor_intervals(iters, ratio)
    assert len(intervals) == 8
    assert all(abs((b - a) - 1.0 / 27.0) < 1e-12 for a, b in intervals)
    centers = (np.arange(2**level) + 0.5) / 2**level
    covered = np.zeros_like(centers, dtype=bool)
    for a, b in intervals:
        covered |= (centers >= a) & (centers <= b)
    assert dom.inside.sum() == 2**level - covered.sum()


def test_halfspace_distance_is_height():
    dom = rasterize(DomainSpec(kind="halfspace", dim=2, level=6))
    h = dom.h
    xs, ys = dom.center_grid()
    heights = ys - 0.5
    inside = dom.inside
    # interface convention: distance equals height above the plane exactly
    assert np.allclose(dom.distance[inside], heights[inside], atol=h / 2)


@pytest.mark.parametrize("kind,dim,level,iters", [
    ("halfspace", 2, 5, 0),
    ("lshape", 2, 5, 0),
    ("cantor-complement", 1, 7, 2),
    ("cube-minus-compact", 2, 5, 0),
])
def test_distance_matches_brute_force(kind, dim, level, iters):
    dom = rasterize(DomainSpec(kind=kind, dim=dim, level=level,
                               iterations=iters, radius=0.0))
    oracle = brute_force_distance(dom)
    assert np.allclose(dom.distance, oracle, atol=1e-12)


def test_single_outside_cell_corner_distance():
    dom = rasterize(DomainSpec(kind="cube-minus-compact", dim=2, level=5,
                               radius=0.0))
    h = dom.h
    # corner cell center to the single removed center cell
    corner = (0, 0)
    removed = np.argwhere(~dom.inside)
    assert len(removed) == 1
    c2c = math.sqrt(((removed[0] - np.array(corner)) ** 2).sum()) * h
    diag = math.sqrt(2) * h
    assert abs(dom.distance[corner] - c2c) <= diag


def test_distance_idempotent_and_positive_exactly_inside():
    dom = rasterize(DomainSpec(kind="lshape", dim=2, level=5))
    again = GridDomain(dim=2, level=5, inside=dom.inside.copy())
    assert np.array_equal(again.distance, dom.distance)
    assert np.array_equal(again.nearest, dom.nearest)
    assert ((dom.distance > 0) == dom.inside).all()


def test_distance_lipschitz_with_diagonal_slack():
    dom = rasterize(DomainSpec(kind="koch-polygon", dim=2, level=6,
                               iterations=3))
    d = dom.distance
    h = dom.h
    slack = math.sqrt(2) * h
    for ax in range(2):
        diff = np.abs(np.diff(d, axis=ax))
        assert (diff <= h + slack + 1e-12).all()


@pytest.mark.parametrize("kind,dim,iters", [
    ("halfspace", 2, 0), ("lshape", 2, 0), ("koch-polygon", 2, 3),
    ("cantor-complement", 1, 2),
])
def test_refinement_consistency(kind, dim, iters):
    coarse = rasterize(DomainSpec(kind=kind, dim=dim, level=5, iterations=iters))
    fine = rasterize(DomainSpec(kind=kind, dim=dim, level=6, iterations=iters))
    # a coarse cell is decided where its 2^N children agree
    value = _pool(fine.inside, np.logical_and)
    agree = value | ~_pool(fine.inside, np.logical_or)
    assert (value[agree] == coarse.inside[agree]).all()


def test_raw_mask_roundtrip(tmp_path):
    dom = rasterize(DomainSpec(kind="lshape", dim=2, level=4))
    path = tmp_path / "mask.grid"
    bits = "".join("1" if b else "0" for b in dom.inside.reshape(-1))
    path.write_text("NDGRID v1 2 4\n"
                    + "\n".join(bits[i:i + 64] for i in range(0, 256, 64)))
    spec = DomainSpec(kind="raw-mask", dim=2, level=4, path=str(path))
    dom2 = rasterize(spec)
    assert np.array_equal(dom.inside, dom2.inside)


def test_ndfn_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((8, 8))
    path = tmp_path / "probe.fn"
    write_ndfn(path, vals)
    assert np.array_equal(read_ndfn(path), vals)


def test_bad_ndgrid_rejected(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("NDGRID v1 2 2\n0101\n")
    with pytest.raises(DomainError):
        read_ndgrid(path, 2, 2)
    path.write_text("NOPE v1 2 2\n" + "0" * 16)
    with pytest.raises(DomainError):
        read_ndgrid(path, 2, 2)


@pytest.mark.parametrize("kwargs", [
    dict(kind="nonsense", dim=2, level=6),
    dict(kind="square", dim=1, level=6),
    dict(kind="cantor-complement", dim=1, level=6, ratio=0.7),
    dict(kind="interval", dim=1, level=3),
    dict(kind="interval", dim=1, level=15),
    dict(kind="koch-polygon", dim=2, level=6, iterations=-1),
    dict(kind="raw-mask", dim=2, level=6),
])
def test_spec_validation(kwargs):
    with pytest.raises(DomainError):
        DomainSpec(**kwargs)


def test_spec_from_json_rejects_unknown_fields():
    with pytest.raises(DomainError):
        DomainSpec.from_json('{"kind": "square", "dim": 2, "level": 5, "x": 1}')


def test_mask_shape_must_match_level():
    with pytest.raises(DomainError):
        GridDomain(dim=2, level=4, inside=np.ones((8, 8), dtype=bool))


def test_cell_budget_rejects_before_allocating():
    # only specs are built here: no raster of any of these sizes is made
    with pytest.raises(DomainError, match="budget"):
        DomainSpec(kind="cube-minus-compact", dim=3, level=14)
    with pytest.raises(DomainError, match="budget"):
        DomainSpec(kind="lshape", dim=2, level=13)
    assert (2**12) ** 2 == MAX_CELLS
    DomainSpec(kind="lshape", dim=2, level=12)
    DomainSpec(kind="cube-minus-compact", dim=3, level=8)
    DomainSpec(kind="interval", dim=1, level=14)
    with pytest.raises(DomainError, match="budget"):
        DomainSpec.from_json('{"kind": "halfspace", "dim": 3, "level": 9}')
