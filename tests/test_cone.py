import json
import math

import numpy as np
import pytest

from hardylab.grids import DomainSpec, rasterize
from hardylab.whitney import decompose
from hardylab.norms import DiscreteFunction
from hardylab.cone import (ConeError, cutoff, local_majorant, cone_split,
                           chain_inequality_sides, make_probe, make_cusp_probe,
                           finiteness_slope, weighted_low_order_mass,
                           conjecture_experiment, overlap_count,
                           _enlarged_boxes, ALPHA_ENLARGE, BETA_ENLARGE)


@pytest.fixture(scope="module")
def square6():
    dom = rasterize(DomainSpec(kind="square", dim=2, level=6))
    return dom, decompose(dom)


def test_enlargement_factors_fixed():
    assert ALPHA_ENLARGE == pytest.approx(4.0 / 3.0)
    assert BETA_ENLARGE == pytest.approx(16.0 / 9.0)


def test_cutoff_profile_properties(square6):
    dom, dec = square6
    center = np.array([0.5, 0.5])
    eta = cutoff(dom, center, 0.25, (slice(None),) * 2)
    assert (eta >= 0).all() and (eta <= 1).all()
    xs, ys = dom.center_grid()
    inner = (np.abs(xs - 0.5) <= 0.125) & (np.abs(ys - 0.5) <= 0.125)
    outer = (np.abs(xs - 0.5) > 0.125 * 4 / 3) | (np.abs(ys - 0.5) > 0.125 * 4 / 3)
    assert np.allclose(eta[inner], 1.0)
    assert np.allclose(eta[outer], 0.0)


def _majorant(dom, vals, side, p=2.0):
    """local_majorant of vals, a piece supported inside the 16/9 window of
    the cube of the given side centred at (0.5, 0.5): (piece, result)."""
    center = np.array([0.5, 0.5])
    half = side * BETA_ENLARGE / 2.0
    window = tuple(slice(int(np.floor((c - half) / dom.h)),
                         int(np.ceil((c + half) / dom.h))) for c in center)
    outside = np.ones(dom.shape, dtype=bool)
    outside[window] = False
    assert not vals[outside].any()
    block = vals[window]
    return block, local_majorant(dom, block, window, center, side, 1, p,
                                 None, {})


def test_local_majorant_nonnegative_input(square6):
    dom, _ = square6
    xs, ys = dom.center_grid()
    vals = np.maximum(0.2 - np.hypot(xs - 0.5, ys - 0.5), 0.0)
    block, res = _majorant(dom, vals, 0.3)
    assert res.values.shape == block.shape
    assert (res.values >= block - 1e-12).all()
    assert (res.values >= 0).all()


def test_local_majorant_nonpositive_input(square6):
    dom, _ = square6
    xs, ys = dom.center_grid()
    vals = -np.maximum(0.2 - np.hypot(xs - 0.5, ys - 0.5), 0.0)
    block, res = _majorant(dom, vals, 0.3)
    assert (res.values >= block - 1e-12).all()
    assert (res.values >= 0).all()


def test_local_majorant_oscillating_norm_bound(square6):
    dom, _ = square6
    xs, ys = dom.center_grid()
    env = np.maximum(0.15 - np.hypot(xs - 0.5, ys - 0.5), 0.0)
    vals = env * np.sin(14 * np.pi * xs)
    block, res = _majorant(dom, vals, 0.25)
    assert (res.values >= block - 1e-10).all()
    # measured corpus bound on the norm growth (not a claim beyond the grid)
    assert res.norm_factor <= 10.0
    assert res.condition >= 1.0


def test_local_majorant_rejects_p1(square6):
    dom, _ = square6
    xs, ys = dom.center_grid()
    vals = np.maximum(0.2 - np.hypot(xs - 0.5, ys - 0.5), 0.0)
    with pytest.raises(ConeError):
        _majorant(dom, vals, 0.3, p=1.0)


def test_cone_split_exact_and_nonnegative(square6):
    dom, dec = square6
    for seed in (0, 1, 2):
        u = make_probe(dom, seed)
        split = cone_split(u, dec, m=2, p=2.0, s=0.0)
        assert (split.u1.values >= 0).all()
        assert (split.u2.values >= 0).all()
        diff = (split.u1.values - split.u2.values - u.values)[dom.inside]
        assert np.abs(diff).max() <= 1e-9
        assert math.isfinite(split.norm_factor)


def test_cone_split_nonnegative_input_gives_nonnegative_u2(square6):
    dom, dec = square6
    u = make_probe(dom, 5)
    u.values = np.abs(u.values)
    split = cone_split(u, dec, m=1, p=2.0, s=0.0)
    assert (split.u2.values >= -1e-12).all()


def test_cone_split_norm_chain(square6):
    dom, dec = square6
    u = make_probe(dom, 9)
    split = cone_split(u, dec, m=1, p=2.0, s=0.0)
    lhs, rhs = chain_inequality_sides(u, split, 1, 2.0, 0.0)
    assert lhs <= rhs


def test_bounded_overlap_constant(square6):
    dom, dec = square6
    m_beta = overlap_count(dom, dec, BETA_ENLARGE)
    lsh = rasterize(DomainSpec(kind="lshape", dim=2, level=6))
    m_beta2 = overlap_count(lsh, decompose(lsh), BETA_ENLARGE)
    assert 1 <= m_beta <= 40 and 1 <= m_beta2 <= 40
    assert abs(m_beta - m_beta2) <= 10  # same-dimension constant scale


def test_locality_of_majorants(square6):
    dom, dec = square6
    u = make_probe(dom, 11)
    split_a = cone_split(u, dec, m=1, p=2.0, s=0.0)
    # modify u inside one cube far from the support margin
    mod = u.values.copy()
    cells = 2 ** (dom.level - dec.levels)
    cube_sl = [tuple(slice(c * m, (c + 1) * m) for c in coords)
               for coords, m in zip(dec.coords.tolist(), cells.tolist())]
    sl = next(sl for sl, side in zip(cube_sl, dec.sides())
              if side >= 0.05 and np.abs(mod[sl]).max() > 0.2)
    mod[sl] *= 1.5
    split_b = cone_split(DiscreteFunction(dom, mod), dec, m=1, p=2.0, s=0.0)
    changed = np.abs(split_b.u1.values - split_a.u1.values) > 1e-12
    # the change can only reach the beta-supports of cubes whose alpha-support
    # meets the modified cube
    modified = np.zeros(dom.shape, dtype=bool)
    modified[sl] = True
    reach = np.zeros(dom.shape, dtype=bool)
    lo43, hi43 = _enlarged_boxes(dom, dec, ALPHA_ENLARGE)
    lo169, hi169 = _enlarged_boxes(dom, dec, BETA_ENLARGE)
    for a0, a1, b0, b1 in zip(lo43, hi43, lo169, hi169):
        if modified[tuple(map(slice, a0, a1))].any():
            reach[tuple(map(slice, b0, b1))] = True
    assert not (changed & ~reach).any()


def test_cusp_probe_rejected(square6):
    dom, dec = square6
    cusp = make_cusp_probe(dom)
    slope = finiteness_slope(cusp, 2, 2.0, 0.0)
    assert slope is not None and slope > 0.25
    with pytest.raises(ConeError, match="hypothesis-divergent"):
        cone_split(cusp, dec, m=2, p=2.0, s=0.0)


def test_interior_probe_mass_stable(square6):
    dom, dec = square6
    u = make_probe(dom, 13)
    slope = finiteness_slope(u, 2, 2.0, 0.0)
    assert slope is not None and abs(slope) <= 0.25
    assert weighted_low_order_mass(u, 2, 2.0, 0.0) < math.inf


def test_cone_split_rejects_p1(square6):
    dom, dec = square6
    u = make_probe(dom, 1)
    with pytest.raises(ConeError):
        cone_split(u, dec, m=1, p=1.0, s=0.0)


def test_conjecture_experiment_table(square6):
    dom5 = rasterize(DomainSpec(kind="square", dim=2, level=5))
    table = conjecture_experiment(dom5, decompose(dom5), n_probes=2, seed=0)
    assert [row["m"] for row in table["rows"]] == [1, 2, 3]
    assert all(row["parity"] in ("odd", "even") for row in table["rows"])
    assert "no assertion" in table["note"]


def test_cone_split_independent_of_call_order(monkeypatch):
    """Splits on two domains give the same bytes whichever runs first (the
    kernel-spectrum cache lives and dies with one call)."""
    from hardylab import cone
    monkeypatch.setattr(cone, "PROBE_MARGIN_CELLS", 3)
    cases = {}
    for kind, dim, level in (("square", 2, 5), ("lshape", 2, 6)):
        dom = rasterize(DomainSpec(kind=kind, dim=dim, level=level))
        cases[kind] = (make_probe(dom, 4), decompose(dom))

    def run(order):
        out = {}
        for name in order:
            u, dec = cases[name]
            split = cone_split(u, dec, m=1, p=2.0, s=0.0)
            out[name] = (split.u1.values.tobytes(), split.u2.values.tobytes(),
                         json.dumps(split.to_record(), sort_keys=True))
        return out

    assert run(["square", "lshape"]) == run(["lshape", "square"])


def test_split_transforms_whole_grid_once_per_spectrum(square6, monkeypatch):
    """np.fft.rfftn runs once per kernel spectrum during a split, never once
    per cube, and np.fft.irfftn never: each cube's deconvolution transforms
    only the lines through its window and its reach."""
    from hardylab import cone
    calls = {"rfftn": 0, "irfftn": 0, "spectra": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "rfftn", counted("rfftn", np.fft.rfftn))
    monkeypatch.setattr(np.fft, "irfftn", counted("irfftn", np.fft.irfftn))
    monkeypatch.setattr(cone, "_kernel_spectrum",
                        counted("spectra", cone._kernel_spectrum))
    dom, dec = square6
    split = cone_split(make_probe(dom, 0), dec, m=2, p=2.0, s=0.0)
    assert 0 < calls["spectra"] < len(split.per_cube_log)
    assert calls["rfftn"] == calls["spectra"]
    assert calls["irfftn"] == 0
