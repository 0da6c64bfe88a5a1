import math

import numpy as np
import pytest

from hardylab.grids import DomainSpec, rasterize
from hardylab.whitney import (decompose, check_decomposition,
                              intersection_cutoff, packing_constant,
                              summation_lemma_ratio, WhitneyError, to_svg)


@pytest.fixture(scope="module")
def halfspace7():
    return decompose(rasterize(DomainSpec(kind="halfspace", dim=2, level=7)))


@pytest.fixture(scope="module")
def frame7():
    # unit square minus its boundary frame: inside = all but the outer ring
    n = 2**7
    inside = np.zeros((n, n), dtype=bool)
    inside[1:-1, 1:-1] = True
    from hardylab.grids import GridDomain
    dom = GridDomain(dim=2, level=7, inside=inside)
    return decompose(dom)


def test_frame_domain_conditions(frame7):
    res = check_decomposition(frame7)
    assert res["cover_exact"]
    assert res["lower_bound_ok"] and res["upper_bound_ok"]
    assert res["ratio_ok"]


def test_halfspace_banded_levels(halfspace7):
    dec = halfspace7
    # central strip, away from the left/right; cubes at a fixed height share
    # a level, and the level drops by one when the height doubles
    lo = (dec.coords * dec.sides()[:, None]).tolist()
    by_height = {}
    for (x0, y0), k in zip(lo, dec.levels.tolist()):
        y0 -= 0.5
        if not (0.25 <= x0 <= 0.7):
            continue
        by_height.setdefault(round(y0, 6), set()).add(k)
    for height, levels in by_height.items():
        assert len(levels) == 1, (height, levels)
    # each level occupies one height band, and band starts double as the
    # level coarsens by one
    band_start = {}
    for (x0, y0), k in zip(lo, dec.levels.tolist()):
        y0 -= 0.5
        if not (0.25 <= x0 <= 0.7):
            continue
        band_start[k] = min(band_start.get(k, 10.0), y0)
    ks = sorted(band_start, reverse=True)
    ratios = []
    for fine, coarse in zip(ks, ks[1:]):
        assert coarse == fine - 1
        if band_start[fine] == 0.0:
            continue  # the boundary-skin band
        ratios.append(band_start[coarse] / band_start[fine])
    # dyadic band starts: doubling per level, with at most one merged
    # transition from the acceptance slack
    assert all(1.9 <= r <= 4.1 for r in ratios), ratios
    assert sum(1 for r in ratios if r <= 2.1) >= len(ratios) - 1


def test_lshape_cover_is_exact_cellwise():
    dom = rasterize(DomainSpec(kind="lshape", dim=2, level=8))
    dec = decompose(dom)
    covered = dec.owner >= 0
    assert np.array_equal(covered, dom.inside)


def test_intersection_cutoff_values():
    assert intersection_cutoff(1) == 5.0
    assert intersection_cutoff(4) == 10.0
    with pytest.raises(ValueError):
        intersection_cutoff(0)


def test_neighbor_pairs_respect_cutoff(halfspace7):
    assert check_decomposition(halfspace7)["neighbor_cutoff_ok"]


def test_packing_constant_enumeration():
    # one dimension by hand: unit cells meeting [-12.5, 12.5]
    assert packing_constant(1) == 26
    assert packing_constant(2) > packing_constant(1)
    assert packing_constant(3) > packing_constant(2)


def test_summation_zero_function(halfspace7):
    dom = halfspace7.domain
    lhs, rhs = summation_lemma_ratio(halfspace7, np.zeros(dom.shape), 1.0)
    assert lhs == 0.0 and rhs == 0.0


def test_summation_band_oracle(halfspace7):
    # f = 1 on a band: recompute the lhs by a direct per-cube double sum
    dec = halfspace7
    dom = dec.domain
    _, ys = dom.center_grid()
    f = ((ys > 0.6) & (ys < 0.8)).astype(float) * dom.inside
    s = 1.0
    lhs, rhs = summation_lemma_ratio(dec, f, s)
    hN = dom.h**2
    oracle = 0.0
    g = f * np.where(dom.inside, dom.distance, 0.0) ** s
    for i in range(dec.n_cubes):
        block = g[tuple(map(slice, dec.rq_start[i], dec.rq_stop[i]))]
        oracle += dec.diams()[i] ** (-s) * float(block.sum()) * hN
    assert lhs == pytest.approx(oracle, rel=1e-12)
    assert lhs <= rhs


def test_summation_random_nonnegative(halfspace7):
    rng = np.random.default_rng(7)
    dom = halfspace7.domain
    for _ in range(5):
        f = rng.random(dom.shape) * dom.inside
        for s in (0.25, 0.5, 1.0, 2.0):
            lhs, rhs = summation_lemma_ratio(halfspace7, f, s)
            assert lhs <= rhs


def test_summation_small_s_growth(halfspace7):
    dom = halfspace7.domain
    rng = np.random.default_rng(3)
    f = (rng.random(dom.shape) + 0.5) * dom.inside
    l8, _ = summation_lemma_ratio(halfspace7, f, 0.125)
    l4, _ = summation_lemma_ratio(halfspace7, f, 0.25)
    assert l8 / l4 <= 2.5


def test_summation_rejections(halfspace7):
    dom = halfspace7.domain
    f = np.ones(dom.shape) * dom.inside
    with pytest.raises(ValueError):
        summation_lemma_ratio(halfspace7, f, 0.0)
    with pytest.raises(ValueError):
        summation_lemma_ratio(halfspace7, -f, 1.0)
    with pytest.raises(ValueError):
        summation_lemma_ratio(halfspace7, np.ones(dom.shape), 1.0)


def test_enlarged_cube_geometry(halfspace7):
    dec = halfspace7
    dom = dec.domain
    h = dom.h
    side_q = dec.sides()[:, None]
    lo_q = dec.coords * side_q
    hi_q = lo_q + side_q
    c = dec.rq_center
    s = dec.rq_side[:, None]
    assert (c - s / 2 <= lo_q + 1e-12).all()
    assert (hi_q <= c + s / 2 + 1e-12).all()
    assert (dec.rq_side <= 10 * dec.diams() + 2 * math.sqrt(2) * h + 1e-12).all()
    # center is an outside cell center (possibly in the boundary ring)
    rel = c / h - 0.5
    assert np.allclose(rel, np.round(rel), atol=1e-9)
    # the origin is R_Q's lower corner: (x - origin) / side maps it to [0,1]^N
    assert np.array_equal(dec.rq_origin, c - s / 2)
    unit_c = (c - dec.rq_origin) / s
    assert np.allclose(unit_c, 0.5, rtol=0.0, atol=1e-12)


def test_gs_percube_stable_under_refinement():
    # one extra dyadic level changes per-cube values only within the
    # rasterization tolerance, and the argmax family stays at the same level
    from hardylab.dimension import g_s
    dec7 = decompose(rasterize(DomainSpec(kind="halfspace", dim=2, level=7)))
    dec8 = decompose(rasterize(DomainSpec(kind="halfspace", dim=2, level=8)))
    _, t7 = g_s(dec7, 0.5)
    _, t8 = g_s(dec8, 0.5)
    t7d, t8d = dict(t7), dict(t8)
    # compare weight-resolved levels only (cubes of at least 4 cells on the
    # coarser raster); finer levels are boundary skin with clamped weights
    shared = [k for k in sorted(set(t7d) & set(t8d)) if k <= 7 - 2]
    assert len(shared) >= 3
    for k in shared:
        assert t8d[k] == pytest.approx(t7d[k], rel=0.15)
    arg7 = max(t7d, key=lambda k: t7d[k])
    arg8 = max(t8d, key=lambda k: t8d[k])
    assert abs(arg7 - arg8) <= 1


def test_degenerate_raster_fails():
    from hardylab.grids import GridDomain
    inside = np.zeros((16, 16), dtype=bool)
    dom = GridDomain(dim=2, level=4, inside=inside)
    with pytest.raises(WhitneyError):
        decompose(dom)


def test_svg_export(halfspace7):
    text = to_svg(halfspace7, show_enlarged=True)
    assert text.startswith("<svg") and "rect" in text


def _random_mask_domain(dim, level, seed):
    from hardylab.grids import GridDomain
    rng = np.random.default_rng(seed)
    inside = rng.random((2**level,) * dim) < 0.7
    return GridDomain(dim=dim, level=level, inside=inside)


@pytest.mark.parametrize("make", [
    lambda: rasterize(DomainSpec(kind="interval", dim=1, level=8)),
    lambda: rasterize(DomainSpec(kind="cantor-complement", dim=1, level=12,
                                 iterations=6)),
    lambda: rasterize(DomainSpec(kind="square", dim=2, level=6)),
    lambda: rasterize(DomainSpec(kind="lshape", dim=2, level=7)),
    lambda: rasterize(DomainSpec(kind="halfspace", dim=2, level=6)),
    lambda: rasterize(DomainSpec(kind="koch-polygon", dim=2, level=9,
                                 iterations=4)),
    lambda: rasterize(DomainSpec(kind="cube-minus-compact", dim=2, level=6)),
    lambda: rasterize(DomainSpec(kind="cube-minus-compact", dim=3, level=5)),
    lambda: _random_mask_domain(1, 8, 0),
    lambda: _random_mask_domain(2, 6, 1),
    lambda: _random_mask_domain(3, 4, 2),
], ids=["interval8", "cantor12", "square6", "lshape7", "halfspace6", "koch9",
        "cube2d6", "cube3d5", "random1d", "random2d", "random3d"])
def test_inside_distances_at_least_half_a_cell(make):
    # the norms, the bound and g_s read delta on inside cells and on cubes
    # with no floor of their own: it is 0 outside and at least h/2 inside
    dom = make()
    dec = decompose(dom)
    half = 0.5 * dom.h
    assert dom.distance[dom.inside].min() == half
    assert (dom.distance[~dom.inside] == 0.0).all()
    assert dec.dist_min.min() >= half
    assert (dec.dist_max >= dec.dist_min).all()
