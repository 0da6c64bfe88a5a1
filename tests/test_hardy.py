import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hardylab.capacity import CapacityError
from hardylab.grids import DomainSpec, GridDomain, distance_transform, rasterize
from hardylab.whitney import decompose
from hardylab.norms import DiscreteFunction, WeightSpec, gradient_seminorm
from hardylab.hardy import (HardyError, HardyParams, LsWeightFunction,
                            weight_exponents, per_cube_capacity_field,
                            constructive_bound, direct_best_constant,
                            case_e_shift, corollary_619_check)


@pytest.fixture(scope="module")
def interval8():
    dom = rasterize(DomainSpec(kind="interval", dim=1, level=8))
    return dom, decompose(dom)


@pytest.fixture(scope="module")
def halfspace6():
    dom = rasterize(DomainSpec(kind="halfspace", dim=2, level=6))
    return dom, decompose(dom)


# -- weight exponents -----------------------------------------------------------


def test_weight_exponent_values():
    t, _ = weight_exponents(HardyParams(m=1, k=0, p=2, q=2, s=0), 2)
    assert t == 2.0
    _, s1 = weight_exponents(HardyParams(m=2, k=0, p=2, p1=2, s=0), 2)
    assert s1 == -2.0
    t, _ = weight_exponents(HardyParams(m=1, k=0, p=2, q=2, s=-1), 2)
    assert t == 3.0


def test_weight_exponent_precondition_names():
    with pytest.raises(HardyError, match=r"precondition \(i\)"):
        # N > mp: q capped at pN/(N-mp) = 4 for m=1, p=1, N... use N=3, p=1
        weight_exponents(HardyParams(m=1, k=0, p=1.0, q=100.0, s=0.0), 3)
    with pytest.raises(HardyError, match="holder precondition"):
        weight_exponents(HardyParams(m=1, k=0, p=2.0, s=0.0, lam=0.9,
                                     form="holder-6.23"), 2)
    # valid holder configuration: N=1, m=1, h=0, p=2: (m-h)p=2 > 1 > 0
    t, s1 = weight_exponents(HardyParams(m=1, k=0, p=2.0, s=0.0, lam=0.4,
                                         form="holder-6.23"), 1)
    assert t == pytest.approx(1 - 0.4 - 0.5)


def test_case_gate_validation(halfspace6):
    dom, dec = halfspace6
    with pytest.raises(HardyError, match="s < 0"):
        constructive_bound(dec, HardyParams(m=1, s=0.5, case="A"))
    with pytest.raises(HardyError, match="p0"):
        constructive_bound(dec, HardyParams(m=1, s=0.5, case="B"))
    with pytest.raises(HardyError, match="dim_loc"):
        constructive_bound(dec, HardyParams(m=1, s=0.5, case="B", p0=1.0))
    with pytest.raises(HardyError, match="q < \\[p,p1\\]"):
        constructive_bound(dec, HardyParams(m=1, s=-1.0, q=1.5, case="A"))


# -- per-cube capacities ----------------------------------------------------------


def test_halfspace_levelwise_constant_lambda(halfspace6):
    dom, dec = halfspace6
    params = HardyParams(m=1, k=0, p=2.0, q=2.0, s=-1.0, case="A")
    field = per_cube_capacity_field(dec, params, grid_level=4)
    for k in dec.populated_levels():
        idx = dec.cubes_at_level(k)
        # interior cubes at one level see congruent pictures
        vals = sorted(set(round(float(field.lam[i]), 6) for i in idx))
        assert len(vals) <= 3  # translates modulo raster shift classes


def test_capacity_field_never_empty_complement(halfspace6):
    dom, dec = halfspace6
    params = HardyParams(m=1, k=0, p=2.0, q=2.0, s=-1.0, case="A")
    field = per_cube_capacity_field(dec, params, grid_level=4)
    assert not field.saturated.any()
    assert (field.lam[~field.degenerate] > 0).all()


# -- constructive bounds -----------------------------------------------------------


def test_case_a_summation_factor_form(interval8):
    dom, dec = interval8
    from hardylab.whitney import packing_constant
    for s in (-0.25, -0.125):
        rep = constructive_bound(dec, HardyParams(m=1, s=s, case="A"),
                                 grid_level=4)
        expected = packing_constant(1) / (1.0 - 2.0 ** s)
        assert rep.summation_constant == pytest.approx(expected, rel=1e-12)
    r1 = constructive_bound(dec, HardyParams(m=1, s=-0.25, case="A"), grid_level=4)
    r2 = constructive_bound(dec, HardyParams(m=1, s=-0.125, case="A"), grid_level=4)
    growth = r2.summation_constant / r1.summation_constant
    assert 1.5 <= growth <= 2.5  # ~1/s doubling for small s


def test_q_independent_capacity_fields(halfspace6):
    dom, dec = halfspace6
    base = HardyParams(m=1, k=0, p=2.0, q=2.0, s=-1.0, case="A")
    other = HardyParams(m=1, k=0, p=2.0, q=2.5, s=-1.0, case="A")
    f1 = per_cube_capacity_field(dec, base, grid_level=3)
    f2 = per_cube_capacity_field(dec, other, grid_level=3)
    assert np.allclose(f1.lam, f2.lam)


def test_soundness_case_a_and_c(interval8):
    dom, dec = interval8
    repA = constructive_bound(dec, HardyParams(m=1, s=-1.0, case="A"),
                              grid_level=4, with_direct=True)
    assert repA.sound and repA.constant_A >= repA.direct_estimate
    repC = constructive_bound(dec, HardyParams(m=1, s=-1.0, case="C", A0=0.1),
                              grid_level=4, with_direct=True)
    assert repC.sound


def test_case_b_holder_defect(halfspace6):
    dom, dec = halfspace6
    params = HardyParams(m=1, s=0.3, case="B", p0=1.0, dim_loc_value=1.0)
    rep = constructive_bound(dec, params, grid_level=4, with_direct=True)
    assert rep.sound
    assert rep.factors["case_offset_a"] == pytest.approx(0.5 * (1.0 - 0.3))
    defects = [row["holder_defect"] for row in rep.per_cube if "beta" in row]
    assert all(d > 0 for d in defects)


def test_two_term_case_a(interval8):
    # k < m-1 routes through the norm-equivalence bridge
    dom, dec = interval8
    params = HardyParams(m=3, k=0, p=2.0, p1=2.0, q=2.0, s=-1.0, case="A")
    rep = constructive_bound(dec, params, grid_level=4)
    assert rep.factors["alpha_sup"] > 0
    # two-term split carries the (a+b)^r <= 2^(r-1)(a^r+b^r) factor
    assert rep.factors["quasinorm_factor"] == pytest.approx(2 ** 0.5)


def test_f_branch_continuity(interval8):
    dom, dec = interval8
    # q slightly below p needs f; the constant approaches the q = p value
    params_lo = HardyParams(m=1, k=0, p=2.0, p1=2.0, q=1.9, s=-1.0, case="A")
    f = LsWeightFunction.equidistributed(dec.n_cubes, params_lo)
    rep_lo = constructive_bound(dec, params_lo, f=f, grid_level=4)
    rep_eq = constructive_bound(dec, HardyParams(m=1, k=0, p=2.0, q=2.0,
                                                 s=-1.0, case="A"),
                                grid_level=4)
    assert rep_lo.constant_A == pytest.approx(rep_eq.constant_A, rel=0.25)
    with pytest.raises(HardyError):
        LsWeightFunction.equidistributed(dec.n_cubes,
                                         HardyParams(m=1, q=2.0, s=-1.0))


def test_capacity_degenerate_flagged(interval8):
    # a degenerate cube (unbounded per-cube constant) is excluded from the
    # assembly and flagged, and the report falls back to the weighted form
    dom, dec = interval8
    params = HardyParams(m=1, k=0, p=2.0, q=2.0, s=-1.0, case="A")
    field = per_cube_capacity_field(dec, params, grid_level=4)
    field.lam[0] = 0.0
    field.degenerate[0] = True
    rep = constructive_bound(dec, params, field=field, grid_level=4)
    assert "capacity-degenerate" in rep.flags
    assert math.isfinite(rep.factors["constant_weighted_form"])
    assert any(row.get("skipped") == "degenerate" for row in rep.per_cube)


def test_theta_floor_flagged():
    # case D at p0 = 1 leaves every theta best constant on the floor
    # THETA_C2_FLOOR_FRACTION * A0; case C on the same domain does not
    dom = rasterize(DomainSpec(kind="interval", dim=1, level=6))
    dec = decompose(dom)
    params = HardyParams(m=1, s=0.3, case="D", p0=1.0, A0=0.1,
                         dim_loc_value=0.0)
    field = per_cube_capacity_field(dec, params, grid_level=4)
    rep = constructive_bound(dec, params, field=field, grid_level=4)
    on_floor = int((field.rep_best <= field.c2_floor).sum())
    assert field.c2_floor == pytest.approx(1e-6 * 0.1)
    assert on_floor > 0
    assert f"theta-floor:{on_floor}" in rep.flags
    repC = constructive_bound(dec, HardyParams(m=1, s=-1.0, case="C", A0=0.1),
                              grid_level=4)
    assert not any(flag.startswith("theta-floor") for flag in repC.flags)


# -- direct estimates ----------------------------------------------------------------


def test_direct_interval_anchor_l10():
    dom = rasterize(DomainSpec(kind="interval", dim=1, level=10))
    est = direct_best_constant(dom, HardyParams(m=1, k=0, p=2.0, q=2.0, s=0.0))
    assert est**2 == pytest.approx(4.0, abs=0.45)


def test_direct_maximizer_concentrates_at_boundary(interval8):
    dom, _ = interval8
    est = direct_best_constant(dom, HardyParams(m=1, k=0, p=2.0, q=2.0, s=0.0))
    xs = dom.center_grid()[0]
    bump = DiscreteFunction(dom, np.exp(-((xs - 0.5) / 0.1) ** 2))
    num = gradient_seminorm(bump, 0, 2.0, WeightSpec(exponent=-2.0))
    den = gradient_seminorm(bump, 1, 2.0)
    assert num / den < est  # interior bumps are far from optimal


def test_direct_requires_integral_form_and_qp():
    dom = rasterize(DomainSpec(kind="interval", dim=1, level=6))
    with pytest.raises(HardyError):
        direct_best_constant(dom, HardyParams(m=1, p=2.0, q=3.0, s=0.0))
    with pytest.raises(HardyError):
        direct_best_constant(dom, HardyParams(m=1, p=2.0, s=0.0,
                                              lam=0.4, form="holder-6.23"))


def test_direct_eigensolve_failure_is_narrow(monkeypatch, tmp_path, capsys):
    # a Lanczos solve that does not converge is redone densely up to
    # DENSE_EIGH_LIMIT DOFs; above it the direct estimate raises
    # CapacityError, which the CLI prints as an error record
    from hardylab import capacity, cli

    params = HardyParams(m=1, k=0, p=2.0, q=2.0, s=-1.0)
    small = rasterize(DomainSpec(kind="lshape", dim=2, level=5))  # 768 DOFs
    expected = direct_best_constant(small, params)

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("forced", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(capacity.spla, "eigsh", no_convergence)
    assert direct_best_constant(small, params) == pytest.approx(expected,
                                                                rel=1e-9)
    square = '{"kind": "square", "dim": 2, "level": 6}'  # 4096 DOFs
    with pytest.raises(CapacityError, match="eigensolve failed"):
        direct_best_constant(rasterize(DomainSpec.from_json(square)), params)
    code = cli.main(["direct", "--domain", square, "--m", "1", "--p", "2",
                     "--s", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["kind"] == "CapacityError"
    assert not list(tmp_path.iterdir())


def test_dilation_identity_scale_matched_weights():
    # with t from the scale-matched exponent identity the two sides of the
    # inequality transform identically under dyadic dilation
    coarse = rasterize(DomainSpec(kind="halfspace", dim=2, level=6))
    fine = rasterize(DomainSpec(kind="halfspace", dim=2, level=7))
    m, p, s = 1, 2.0, -1.0
    t = m * p - s

    def bump(x, y):
        return np.exp(-((x - 0.5) ** 2 + (y - 0.62) ** 2) / 0.004)

    u = DiscreteFunction(coarse, bump(*coarse.center_grid()))
    xs, ys = fine.center_grid()
    v = DiscreteFunction(fine, bump(2 * xs, 2 * (ys - 0.5) + 0.5))

    def ratio(w, dom):
        lhs = gradient_seminorm(w, 0, p, WeightSpec(exponent=-t))
        rhs = gradient_seminorm(w, m, p, WeightSpec(exponent=s))
        return lhs / rhs

    assert ratio(v, fine) == pytest.approx(ratio(u, coarse), rel=0.1)


# -- case E ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def halfspace7_casee():
    dom = rasterize(DomainSpec(kind="halfspace", dim=2, level=7))
    dec = decompose(dom)
    rep = case_e_shift(dec, HardyParams(m=1, k=0, p=2.0, q=2.0, s=0.0,
                                        case="E"), grid_level=4)
    return dom, dec, rep


def test_case_e_positive_shift(halfspace7_casee):
    dom, dec, rep = halfspace7_casee
    assert rep.s0 > dom.h  # above grid resolution
    assert math.isfinite(rep.constant_A)
    assert rep.capacity_floor > 0


def test_case_e_declines_at_p1(halfspace7_casee):
    dom, dec, _ = halfspace7_casee
    rep = case_e_shift(dec, HardyParams(m=1, k=0, p=1.0, q=1.0, s=0.0,
                                        case="E"), grid_level=4)
    assert rep.s0 == 0.0
    assert "no-positive-s0" in rep.flags


def test_case_e_requires_q_at_least_p(halfspace7_casee):
    dom, dec, _ = halfspace7_casee
    with pytest.raises(HardyError):
        case_e_shift(dec, HardyParams(m=1, k=0, p=2.0, q=1.5, s=0.0,
                                      case="E"), grid_level=4)


def test_case_e_monotone_in_complement():
    # nested complements: a fatter complement cannot lower s0
    n = 2**6
    s0 = {}
    for rows in (8, 24):
        inside = np.zeros((n, n), dtype=bool)
        inside[:, rows:] = True
        dom = distance_transform(GridDomain(dim=2, level=6, inside=inside))
        dec = decompose(dom)
        rep = case_e_shift(dec, HardyParams(m=1, k=0, p=2.0, q=2.0, s=0.0,
                                            case="E"), grid_level=4)
        s0[rows] = rep.s0
    assert s0[24] >= 0.98 * s0[8]  # equal local pictures up to jitter


# -- corollary gates ---------------------------------------------------------------------


def test_corollary_case_i(halfspace6):
    dom, dec = halfspace6
    ok, rep, det = corollary_619_check(dom, dec, "i",
                                       HardyParams(m=1, p=2.0, s=-1.0))
    assert ok and rep is not None and rep.constant_A > 0
    ok2, _, det2 = corollary_619_check(dom, dec, "i",
                                       HardyParams(m=1, p=2.0, s=-1.0),
                                       b_threshold=1e9)
    assert not ok2 and "capacity lower bound fails" in det2["failures"][0]


def test_corollary_case_v_full_dimension_projection(halfspace6):
    dom, dec = halfspace6
    ok, rep, det = corollary_619_check(dom, dec, "v",
                                       HardyParams(m=1, p=2.0, s=-1.0),
                                       r_dim=2)
    assert ok and det["projection_b"] >= 0.3


def test_corollary_case_ix_lshape_fails_signature():
    dom = rasterize(DomainSpec(kind="lshape", dim=2, level=7))
    dec = decompose(dom)
    ok, rep, det = corollary_619_check(dom, dec, "ix",
                                       HardyParams(m=1, p=2.0, s=-1.0),
                                       asserted_selfsimilar=True)
    assert not ok
    assert any("signature" in f for f in det["failures"])


def test_corollary_unknown_case(halfspace6):
    dom, dec = halfspace6
    with pytest.raises(HardyError):
        corollary_619_check(dom, dec, "xi", HardyParams(m=1, p=2.0, s=-1.0))


def test_constant_monotone_under_complement_growth():
    # removing more of the box (a fatter complement) cannot worsen the bound
    reps = {}
    for iters in (2, 3):
        dom = rasterize(DomainSpec(kind="cantor-complement", dim=1, level=8,
                                   iterations=iters))
        dec = decompose(dom)
        reps[iters] = constructive_bound(
            dec, HardyParams(m=1, s=-1.0, case="A"), grid_level=4)
    # iteration 3 keeps a smaller complement, so its constant is no smaller
    assert reps[2].constant_A <= reps[3].constant_A * 1.05


def test_holder_form_bound_sound_on_probes(interval8):
    from hardylab.norms import holder_quotient
    dom, dec = interval8
    params = HardyParams(m=1, k=0, p=2.0, s=-1.0, lam=0.4,
                         form="holder-6.23", case="A")
    t, _ = weight_exponents(params, 1)
    rep = constructive_bound(dec, params, grid_level=4)
    assert math.isfinite(rep.constant_A) and rep.constant_A > 0
    rng = np.random.default_rng(0)
    xs = dom.center_grid()[0]
    for _ in range(10):
        c, w = rng.uniform(0.15, 0.85), rng.uniform(0.05, 0.3)
        u = DiscreteFunction(dom, np.exp(-((xs - c) / w) ** 2))
        lhs = holder_quotient(u, 0, 0.4, WeightSpec(exponent=-t))
        rhs = gradient_seminorm(u, 1, 2.0, WeightSpec(exponent=-1.0))
        assert lhs <= rep.constant_A * rhs
    with pytest.raises(HardyError):
        constructive_bound(dec, HardyParams(m=1, s=-1.0, case="C", A0=0.1,
                                            lam=0.4, form="holder-6.23"),
                           grid_level=4)
