import math

import numpy as np
import pytest

from hardylab.grids import DomainSpec, rasterize
from hardylab.norms import (DiscreteFunction, _differences, _magnitude,
                            block_seminorms, distance_weight,
                            gradient_seminorm, multi_indices, multinomial)
from oracles import holder_quotient, interior_fields


@pytest.fixture(scope="module")
def square6():
    return rasterize(DomainSpec(kind="square", dim=2, level=6))


def sampled(dom, fn):
    return DiscreteFunction(dom, fn(*dom.center_grid()))


def interior_seminorm(u, order, p):
    """gradient_seminorm (unit weight) over the anchors whose stencil stays
    inside the box, where the zero extension adds no boundary jump."""
    fields, _ = interior_fields(u, order)
    hN = u.domain.h**u.domain.dim
    return float((_magnitude(fields) ** p).sum() * hN) ** (1.0 / p)


def test_constant_gradient_vanishes(square6):
    u = sampled(square6, lambda x, y: 0 * x + 3.0)
    assert interior_seminorm(u, 1, 2.0) == 0.0


def test_linear_gradient(square6):
    u = sampled(square6, lambda x, y: x)
    val = interior_seminorm(u, 1, 2.0)
    assert abs(val - 1.0) <= 2 * square6.h


def test_xy_hessian_matches_analytic(square6):
    u = sampled(square6, lambda x, y: x * y)
    val = interior_seminorm(u, 2, 2.0)
    assert abs(val - math.sqrt(2)) <= 4 * square6.h


def test_sobolev_zero_and_constant(square6):
    # the W^{1,2} norm, the sum of the gradient seminorms of orders 0 and 1
    z = sampled(square6, lambda x, y: 0 * x)
    assert sum(gradient_seminorm(z, k, 2.0, 0.0) for k in (0, 1)) == 0.0
    one = sampled(square6, lambda x, y: 0 * x + 1.0)
    assert sum(interior_seminorm(one, k, 2.0) for k in (0, 1)) \
        == pytest.approx(1.0, abs=1e-12)


def test_holder_linear_is_gradient(square6):
    u = sampled(square6, lambda x, y: x)
    assert holder_quotient(u, 0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_holder_constant_zero(square6):
    u = sampled(square6, lambda x, y: 0 * x + 2.0)
    assert holder_quotient(u, 0, 0.5) == 0.0


@pytest.mark.parametrize("level", [5, 6])
def test_holder_sqrt_profile(level):
    dom = rasterize(DomainSpec(kind="square", dim=2, level=level))
    x0 = 0.5 + dom.h / 2
    u = sampled(dom, lambda x, y: np.sqrt(np.hypot(x - x0, y - x0)))
    val = holder_quotient(u, 0, 0.5)
    assert val == pytest.approx(1.0, abs=0.1)


def test_holder_monotone_in_lambda(square6):
    # every pair distance is at most 2h < 1, so |x-y|^-lam grows with lam
    rng = np.random.default_rng(1)
    u = DiscreteFunction(square6, rng.standard_normal(square6.shape))
    vals = [holder_quotient(u, 0, lam) for lam in (0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))


def test_holder_rejects_bad_lambda(square6):
    u = sampled(square6, lambda x, y: x)
    for lam in (0.0, 1.5):
        with pytest.raises(ValueError):
            holder_quotient(u, 0, lam)


def test_dilation_table_scaling():
    # compactly supported bump composed with the doubling map: grad^k picks
    # up gamma^k and dx picks up gamma^-N, with gamma = 2
    coarse = rasterize(DomainSpec(kind="halfspace", dim=2, level=6))
    fine = rasterize(DomainSpec(kind="halfspace", dim=2, level=7))

    def bump(t):
        return np.exp(-1.0 / np.maximum(1e-9, 1 - t**2)) * (np.abs(t) < 1)

    def profile(x, y):
        return bump((x - 0.5) / 0.2) * bump((y - 0.6) / 0.08)

    u = sampled(coarse, profile)
    v = sampled(fine, lambda x, y: profile(2 * x, 2 * (y - 0.5) + 0.5))
    for k in (0, 1, 2):
        a = interior_seminorm(u, k, 2.0)
        b = interior_seminorm(v, k, 2.0)
        expected = a * 2.0 ** (k - 1.0)
        assert b == pytest.approx(expected, rel=0.1)


def test_weight_spec_clamp_default(square6):
    # the distance is clamped below at half a cell, so a singular weight
    # stays finite on the complement
    field = distance_weight(square6, -1.0, None)
    assert np.isfinite(field).all()
    assert np.array_equal(
        field, 1.0 / np.maximum(square6.distance, 0.5 * square6.h))
    assert (distance_weight(square6, 0.0, None) == 1.0).all()
    # read at anchors, it is the cell field taken at their weight index
    widx = [np.clip(np.arange(66) - 1, 0, 63)] * 2
    assert np.array_equal(distance_weight(square6, -1.0, widx),
                          field[np.ix_(*widx)])


def test_zero_extension_enforced(square6):
    vals = np.ones(square6.shape)
    u = DiscreteFunction(square6, vals)  # square: all inside, nothing zeroed
    assert u.values.sum() == vals.size
    dom = rasterize(DomainSpec(kind="lshape", dim=2, level=5))
    u2 = DiscreteFunction(dom, np.ones(dom.shape))
    assert (u2.values[~dom.inside] == 0).all()


def test_gradient_rejects_bad_p(square6):
    u = sampled(square6, lambda x, y: x)
    with pytest.raises(ValueError):
        gradient_seminorm(u, 1, 0.5, 0.0)


@pytest.mark.parametrize("kind,dim,level", [("interval", 1, 5), ("lshape", 2, 4),
                                            ("cube-minus-compact", 3, 4)])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_difference_fields_match_sparse_operators(kind, dim, level, order):
    # the zero-padded lattice operators, and the direct estimate's operators
    # on the inside cells, both reproduce the zero-extension fields
    from hardylab.capacity import difference_operator
    from hardylab.hardy import _inside_ops
    dom = rasterize(DomainSpec(kind=kind, dim=dim, level=level))
    rng = np.random.default_rng(order)
    u = DiscreteFunction(dom, rng.standard_normal(dom.shape))
    fields, _ = _differences(u.values, order, dom.h, (0,) * dim, dom.shape[0])
    n, np_ = dom.shape[0], dom.shape[0] + 2 * order
    padded = np.pad(u.values, order).reshape(-1)
    ops = [(multinomial(alpha),
            difference_operator(np_, alpha, dom.h, slice(None)))
           for alpha in multi_indices(dim, order)]
    inside_ops = _inside_ops(dom, order)
    assert len(ops) == len(fields) == len(inside_ops)
    window = (slice(0, n + order),) * dim
    for (alpha, f), (mult, op), (mult_in, op_in) in zip(fields.items(), ops,
                                                        inside_ops):
        assert mult == mult_in == multinomial(alpha)
        for g in (op @ padded, op_in @ u.values[dom.inside]):
            g = g.reshape((np_,) * dim)[window]
            np.testing.assert_allclose(g, f, rtol=0,
                                       atol=1e-12 * np.abs(f).max())


@pytest.mark.parametrize("kind,dim,level", [("lshape", 2, 5),
                                            ("cube-minus-compact", 3, 4)])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_block_seminorms_weights_share_one_pass(kind, dim, level, p):
    # the unit and a distance weight from one difference pass per order
    # are, bit for bit, the seminorms of one call per weight, for a block
    # inside the box and one touching its edges; both are gradient_seminorm
    # of the zero extension up to summation order
    dom = rasterize(DomainSpec(kind=kind, dim=dim, level=level))
    n = dom.shape[0]
    rng = np.random.default_rng(10 * dim + int(2 * p))
    exponent = -0.5
    weight = distance_weight(dom, exponent, None)
    for sl in ((slice(3, n - 5),) * dim,
               (slice(0, 6),) + (slice(n - 7, n),) * (dim - 1)):
        block = rng.standard_normal(tuple(s.stop - s.start for s in sl))
        vals = np.zeros(dom.shape)
        vals[sl] = block
        u = DiscreteFunction(dom, vals)
        for m in (0, 1, 2):
            both = block_seminorms(dom, block, sl, m, p, [None, weight])
            assert both == [block_seminorms(dom, block, sl, m, p, [w])[0]
                            for w in (None, weight)]
            for got, e in zip(both, (0.0, exponent)):
                want = [gradient_seminorm(u, k, p, e) for k in range(m + 1)]
                assert got == pytest.approx(want, rel=1e-13)
