import math

import numpy as np
import pytest

from hardylab.grids import DomainSpec, GridDomain, distance_transform, rasterize
from hardylab.whitney import decompose
from hardylab.dimension import (DimensionError, g_s, dim_loc, dim_mc_loc,
                                selfsimilarity_signature, _divergence_slope,
                                _fit_window_levels, export_gs_table,
                                export_boxcount_table)


@pytest.fixture(scope="module")
def halfspace8():
    return decompose(rasterize(DomainSpec(kind="halfspace", dim=2, level=8)))


def test_gs_halfspace_scale_invariant_below_threshold(halfspace8):
    _, table = g_s(halfspace8, 0.5)
    vals = dict(table)
    informative = [k for k in vals if k <= 8 - 2]
    ref = vals[informative[0]]
    for k in informative:
        assert vals[k] == pytest.approx(ref, rel=0.1)


def test_gs_halfspace_divergent_growth(halfspace8):
    # above the threshold the per-level sups grow by ~2^(s-1) per level
    # toward the coarse end
    _, table = g_s(halfspace8, 1.5)
    vals = dict(table)
    ks = sorted(k for k in vals if k <= 8 - 2)
    for fine, coarse in zip(ks[1:], ks[:-1]):
        ratio = vals[coarse] / vals[fine]
        assert ratio == pytest.approx(math.sqrt(2), rel=0.25)


def test_gs_at_zero_bounded_by_enlargement(halfspace8):
    # s=0 integrates 1 over R_Q ∩ Ω, a volume at most (side R_Q)^N, so the
    # value is at most (side R_Q / diam Q)^N <= 10^N N^(-N/2)
    sup, table = g_s(halfspace8, 0.0)
    bound = 10.0**2 * 2.0 ** (-1.0)  # N=2
    assert sup <= bound + 1e-9
    for _, v in table:
        assert v <= bound + 1e-9


@pytest.mark.parametrize("kind,dim,level,iters", [
    ("halfspace", 2, 7, 0),
    ("koch-polygon", 2, 7, 3),
    ("cantor-complement", 1, 8, 3),
    ("cube-minus-compact", 3, 4, 0),
])
def test_gs_at_zero_is_volume_of_rq_in_domain(kind, dim, level, iters):
    # the complement cells of R_Q count at no s, so s = 0 is the limit of
    # small s and gives (diam Q)^-N |R_Q ∩ Ω|
    dec = decompose(rasterize(DomainSpec(kind=kind, dim=dim, level=level,
                                         iterations=iters)))
    dom = dec.domain
    vols = np.array([dom.inside[dec.rq_slice(i)].sum() * dom.h**dim
                     for i in range(dec.n_cubes)])
    vals = vols * dec.diams() ** (-dim)
    oracle = [(k, float(vals[dec.levels == k].max()))
              for k in dec.populated_levels()]
    sup, table = g_s(dec, 0.0)
    assert [k for k, _ in table] == [k for k, _ in oracle]
    for (_, v), (_, w) in zip(table, oracle):
        assert v == pytest.approx(w, rel=1e-12)
    assert sup == max(v for _, v in table)
    _, near = g_s(dec, 1e-12)
    for (_, v), (_, w) in zip(table, near):
        assert v == pytest.approx(w, rel=1e-9)


def test_dim_loc_halfspace(halfspace8):
    est = dim_loc(halfspace8)
    assert est.value == pytest.approx(1.0, abs=0.1)
    assert est.confidence_band[0] <= est.value <= est.confidence_band[1]
    assert est.s0_or_d == pytest.approx(2.0 - est.value, abs=1e-9)


def test_dim_loc_cantor_anchor():
    dec = decompose(rasterize(DomainSpec(kind="cantor-complement", dim=1,
                                         level=9, iterations=4)))
    est = dim_loc(dec)
    assert est.value == pytest.approx(math.log(2) / math.log(3), abs=0.1)
    mc = dim_mc_loc(dec)
    assert abs(est.value - mc.value) <= 0.1


def test_dim_loc_point_complement():
    dec = decompose(rasterize(DomainSpec(kind="cube-minus-compact", dim=2,
                                         level=8, radius=0.0)))
    est = dim_loc(dec)
    assert est.value == pytest.approx(0.0, abs=0.15)


def test_dim_mc_halfspace(halfspace8):
    est = dim_mc_loc(halfspace8)
    assert est.value == pytest.approx(1.0, abs=0.1)
    assert all(v >= 0 for _, v in est.per_level_sups)


def test_insufficient_levels_raises():
    dec = decompose(rasterize(DomainSpec(kind="square", dim=2, level=4)))
    with pytest.raises(DimensionError):
        dim_loc(dec)


def test_thickened_boundary_does_not_lower_slope():
    # slab family: adding outside rows along the boundary cannot decrease
    # the measured divergence slope at fixed s
    n = 2**7
    slopes = []
    for rows_out in (1, 3):
        inside = np.zeros((n, n), dtype=bool)
        inside[:, rows_out:] = True
        dom = distance_transform(GridDomain(dim=2, level=7, inside=inside))
        dec = decompose(dom)
        _, table = g_s(dec, 1.5)
        window = _fit_window_levels(dec, table)
        slopes.append(_divergence_slope(table, window))
    assert slopes[1] >= slopes[0] - 0.05


def test_selfsimilarity_halfspace_and_lshape():
    half = decompose(rasterize(DomainSpec(kind="halfspace", dim=2, level=8)))
    d, flagged = selfsimilarity_signature(half)
    assert d <= 0.15 and not flagged
    lsh = decompose(rasterize(DomainSpec(kind="lshape", dim=2, level=8)))
    d2, flagged2 = selfsimilarity_signature(lsh)
    assert d2 > 0.7 and flagged2


def test_selfsimilarity_koch_below_threshold():
    koch = decompose(rasterize(DomainSpec(kind="koch-polygon", dim=2, level=8,
                                          iterations=4)))
    d, flagged = selfsimilarity_signature(koch)
    assert d <= 0.7 and not flagged


def test_selfsimilarity_rejects_bad_fraction(halfspace8):
    with pytest.raises(ValueError):
        selfsimilarity_signature(halfspace8, ball_fraction=0.8)


def test_csv_exports(halfspace8):
    assert export_gs_table(halfspace8, [0.5, 1.0]).startswith("s,level,sup")
    table = export_boxcount_table(dim_mc_loc(halfspace8))
    assert table.startswith("eps,sup_count")
