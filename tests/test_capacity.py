import math
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hardylab.capacity import (CapacityError, ConstraintSet, gamma_capacity,
                               theta_capacity, dense_best_constant,
                               quadratic_form, default_theta_a0,
                               poincare_constant, norm_equivalence_constant,
                               ratio_best_constant, gradient_form_ops, _ratio,
                               holder_ratio_best_constant, _holder_operator,
                               _unbounded_witness, _unit_term,
                               _with_transposes)
from hardylab.grids import DomainSpec, rasterize
from hardylab.norms import DiscreteFunction
from oracles import holder_quotient


def slab_set(m_cells, width, dim=2, cone=False):
    K = np.zeros((m_cells,) * dim, dtype=bool)
    K[tuple(slice(0, width) if a == 0 else slice(None) for a in range(dim))] = True
    return ConstraintSet(K, cone)


def test_quadratic_form_built_once_and_left_unchanged():
    S = quadratic_form(16, 2, 1)
    fresh = quadratic_form.__wrapped__(16, 2, 1)
    kept = [a.copy() for a in (S.data, S.indices, S.indptr)]
    r = gamma_capacity(slab_set(16, 3), 1, 0, 2.0, 2.0, 4, 2)
    assert r.solver == "eigen-exact"
    assert quadratic_form(16, 2, 1) is S
    for got, want, built in zip((S.data, S.indices, S.indptr), kept,
                                (fresh.data, fresh.indices, fresh.indptr)):
        assert np.array_equal(got, want) and np.array_equal(got, built)


def test_full_space_capacity_zero():
    r = gamma_capacity(ConstraintSet(np.zeros((8, 8), dtype=bool), False),
                       2, 0, 2.0, 2.0, 3, 2)
    assert r.capacity == 0.0
    assert not math.isfinite(r.best_constant)


def test_saturated_sentinel():
    K = np.ones((8, 8), dtype=bool)
    r = gamma_capacity(ConstraintSet(K, False), 1, 0, 2.0, 2.0, 3, 2)
    assert r.capacity == math.inf
    assert r.note == "saturated"
    assert r.best_constant == 0.0


def test_slab_matches_dense_oracle_level6():
    # left-face slab of width 1/8 at level 6, cross-checked densely at 4
    for lev in (4, 6):
        m_cells = 2**lev
        cs = slab_set(m_cells, m_cells // 8)
        r = gamma_capacity(cs, 1, 0, 2.0, 2.0, lev, 2)
        if lev == 4:
            S = quadratic_form(m_cells, 2, 1).toarray()
            oracle = dense_best_constant(S, ~cs.K.reshape(-1), (1 / m_cells) ** 2)
            assert r.best_constant == pytest.approx(oracle, rel=1e-8)
        assert r.capacity == pytest.approx(r.best_constant ** -2.0, rel=1e-12)


def test_eigen_descent_agreement():
    cs = slab_set(16, 2)
    eig = gamma_capacity(cs, 1, 0, 2.0, 2.0, 4, 2)
    desc = gamma_capacity(cs, 1, 0, 2.0 + 1e-9, 2.0 + 1e-9, 4, 2, seed=1)
    assert eig.solver == "eigen-exact" and desc.solver == "descent"
    assert desc.best_constant == pytest.approx(eig.best_constant, rel=0.02)


def test_monotone_under_nested_zero_sets():
    caps = []
    for w in (2, 4, 6, 8, 10):
        caps.append(gamma_capacity(slab_set(16, w), 1, 0, 2.0, 2.0, 4, 2).capacity)
    assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))


def test_symmetry_invariance():
    m_cells = 8
    K = np.zeros((m_cells, m_cells), dtype=bool)
    K[:2, :] = True
    base = gamma_capacity(ConstraintSet(K, False), 1, 0, 2.0, 2.0, 3, 2)
    for img in (K[::-1, :].copy(), K[:, ::-1].copy(), K.T.copy()):
        r = gamma_capacity(ConstraintSet(img, False), 1, 0, 2.0,
                           2.0, 3, 2)
        assert r.best_constant == pytest.approx(base.best_constant, rel=1e-10)


def test_kernel_detection_linear_poly():
    # K on a coordinate hyperplane slab: x_1 vanishes there, so k=1 admits a
    # nonzero kernel polynomial and the capacity is exactly 0
    m_cells = 8
    K = np.zeros((m_cells, m_cells), dtype=bool)
    K[0, :] = True
    r = gamma_capacity(ConstraintSet(K, False), 2, 1, 2.0, 2.0, 3, 2)
    assert r.capacity == 0.0 and r.note == "kernel-element"


@pytest.mark.parametrize("zero_cells", [[(3, 4)], [(0, 0), (7, 7)],
                                        [(0, 0), (7, 7), (0, 7)]])
def test_kernel_detection_with_few_zero_cells(zero_cells):
    # fewer zero cells than linear coefficients leave a kernel polynomial;
    # three cells in general position pin a linear polynomial to zero
    K = np.zeros((8, 8), dtype=bool)
    for cell in zero_cells:
        K[cell] = True
    cs = ConstraintSet(K, False)
    kern = _unbounded_witness(cs, 8, 2, [1], _unit_term(8, 2, 0, 2.0), None,
                              0.0)
    r = gamma_capacity(cs, 2, 1, 2.0, 2.0, 3, 2)
    if len(zero_cells) < 3:
        assert np.abs(kern).max() > 1e-6
        assert np.abs(kern.reshape(8, 8)[K]).max() < 1e-12
        assert r.best_constant == math.inf and r.note == "kernel-element"
    else:
        assert kern is None
        assert 0 < r.best_constant < math.inf and r.note == ""


def test_cone_kernel_detection():
    r = gamma_capacity(ConstraintSet(np.zeros((8, 8), dtype=bool), True),
                       1, 0, 2.0, 2.0, 3, 2)
    assert r.capacity == 0.0  # constants are admissible in the cone


def test_theta_against_gamma_slab():
    cs = slab_set(16, 2)
    g = gamma_capacity(cs, 1, 0, 2.0, 2.0, 4, 2)
    A0 = default_theta_a0(2, 0, 2.0, 4)
    t = theta_capacity(cs, 1, 0, 2.0, 2.0, A0, 4, 2, 0)
    assert t.capacity >= g.capacity / 2.0**2 - 1e-9
    # with a small A0 the theta constant is finite and positive
    t2 = theta_capacity(cs, 1, 0, 2.0, 2.0, 0.1, 4, 2, seed=2)
    assert 0 < t2.best_constant < math.inf
    assert t2.capacity == pytest.approx(t2.best_constant ** -2.0, rel=1e-12)


@pytest.mark.parametrize("m,k,p", [(1, 0, 2.0), (2, 1, 1.5), (3, 1, 1.5)],
                         ids=["eigen", "descent-single", "descent-two-term"])
def test_gamma_is_the_ratio_solve(m, k, p):
    # gamma and the general ratio run the one solve: with k + 1 = 2 both
    # start from the polynomials to degree 2, so the values agree bit for bit
    cs = slab_set(16, 3, dim=1)
    g = gamma_capacity(cs, m, k, p, p, 4, 1, seed=1)
    den = [(m, p)] if k + 1 == m else [(k + 1, p), (m, p)]
    best, res, solver = ratio_best_constant(cs, 4, 1, (0, p), den, seed=1)
    assert (g.best_constant, g.residual, g.solver) == (best, res, solver)
    assert solver == ("eigen-exact" if p == 2.0 else "descent")


@pytest.mark.parametrize("dim,width", [(1, 3), (2, 2), (2, 5)])
def test_merged_theta_is_gamma_minus_a0(dim, width):
    # with k = m-1 and p1 = p = 2 the theta ratio is (||u|| - A0 ||grad u||)
    # / ||grad u||, so its best constant is max(C_gamma - A0, 0)
    cs = slab_set(16, width, dim)
    gamma = gamma_capacity(cs, 1, 0, 2.0, 2.0, 4, dim).best_constant
    for A0 in (0.1, 0.25):
        theta = theta_capacity(cs, 1, 0, 2.0, 2.0, A0, 4, dim, seed=1)
        assert theta.best_constant == pytest.approx(max(gamma - A0, 0.0),
                                                    rel=1e-9, abs=1e-12)


def test_theta_cone_constrains_sup():
    cs_plain = slab_set(16, 2)
    cs_cone = slab_set(16, 2, cone=True)
    A0 = 0.1
    plain = theta_capacity(cs_plain, 2, 0, 2.0, 2.0, A0, 4, 2, seed=3)
    cone = theta_capacity(cs_cone, 2, 0, 2.0, 2.0, A0, 4, 2, seed=3)
    assert cone.capacity >= plain.capacity * (1 - 0.05)


def test_theta_a0_too_small_flag():
    # K empty except nothing -> full-space-like with degree-1 polynomials in
    # the admissible set once k+1 = 2; a tiny A0 lets a polynomial with
    # grad^m = 0 keep a positive numerator
    m_cells = 8
    K = np.zeros((m_cells, m_cells), dtype=bool)
    K[0, 0] = True
    r = theta_capacity(ConstraintSet(K, False), 2, 0, 2.0, 2.0,
                       1e-4, 3, 2, 0)
    assert r.capacity == 0.0
    assert r.note in ("A0-too-small", "kernel-element")


def test_a0_large_limit_clamps_numerator():
    cs = slab_set(8, 2)
    r = theta_capacity(cs, 1, 0, 2.0, 2.0, 1e6, 3, 2, 0)
    assert r.best_constant == 0.0 and r.capacity == math.inf


def test_validate_exponent_ranges():
    with pytest.raises(CapacityError):
        gamma_capacity(slab_set(8, 2), 1, 1, 2.0, 2.0, 3, 2)  # k > m-1
    with pytest.raises(CapacityError):
        gamma_capacity(slab_set(8, 2), 1, 0, 0.5, 2.0, 3, 2)  # p < 1
    # N=2, m=3, k=0: (m-k-1)p = 4 > N=2: p1 unbounded above is fine
    gamma_capacity(slab_set(8, 2), 3, 0, 2.0, 50.0, 3, 2, seed=0)
    # N=2, m=2, k=0, p=1: N > (m-k-1)p=1: p1 <= Np/(N-p) = 2
    with pytest.raises(CapacityError):
        gamma_capacity(slab_set(8, 2), 2, 0, 1.0, 3.0, 3, 2)


def test_norm_equivalence_positions_agree():
    a1 = norm_equivalence_constant((0.0, 0.0), 0.25, 2, 0, 2.0, 2.0, 4, 2,
                                   seed=0)
    a2 = norm_equivalence_constant((0.5, 0.5), 0.25, 2, 0, 2.0, 2.0, 4, 2,
                                   seed=0)
    assert a1 > 0 and a2 > 0
    assert abs(a1 - a2) / max(a1, a2) <= 0.10


def test_norm_equivalence_stability_across_levels():
    vals = [norm_equivalence_constant((0.25, 0.25), 0.25, 2, 0, 2.0, 2.0,
                                      lev, 2, seed=0) for lev in (5, 6)]
    assert abs(vals[0] - vals[1]) / max(vals) <= 0.15


def test_norm_equivalence_rejects():
    with pytest.raises(CapacityError):
        norm_equivalence_constant((0.0, 0.0), 0.25, 1, 0, 2.0, 2.0, 4, 2, 0)
    with pytest.raises(CapacityError):
        norm_equivalence_constant((0.0, 0.0), 0.01, 2, 0, 2.0, 2.0, 4, 2, 0)


def test_poincare_constant_reasonable():
    # mean-free Poincaré constant of the unit square is 1/(pi*sqrt(2))~0.225
    c = poincare_constant(2, 1, 2.0, 2.0, 4)
    assert 0.15 < c < 0.4


@pytest.mark.parametrize("dim,order,grid_level", [
    (1, 1, 4), (1, 2, 4), (2, 1, 3), (2, 2, 3), (3, 2, 2), (3, 1, 3),
    (3, 2, 3)])
def test_poincare_constant_matches_complement_pencil(dim, order, grid_level):
    # the p = 2 constant is the pencil (S, hN I) restricted to the
    # orthogonal complement of the polynomials below the order, where S is
    # definite; order 2 used to fail to factor S + 1e-14 I.  The 3-D grid-3
    # pencils (512 cells) take the sparse shift-invert route
    from hardylab.capacity import _poly_basis
    m_cells = 2**grid_level
    hN = (1.0 / m_cells) ** dim
    B = _poly_basis(m_cells, dim, order - 1)
    Q, _ = np.linalg.qr(B, mode="complete")
    Z = Q[:, B.shape[1]:]
    S = quadratic_form(m_cells, dim, order).toarray()
    lam = np.linalg.eigvalsh(Z.T @ S @ Z)[0] / hN
    want = math.sqrt(1.0 / lam)
    got = poincare_constant(dim, order, 2.0, 2.0, grid_level)
    assert abs(got - want) <= 1e-10 * want, (got, want)


def test_poincare_constant_rejects_a_missed_null_eigenvalue(monkeypatch):
    # a Lanczos run that misses one of the d null copies would put a
    # larger eigenvalue at index d and so too small a default A0
    from hardylab import capacity
    real = spla.eigsh

    def missed(*args, **kw):
        lams = np.sort(real(*args, **kw))
        return np.append(lams[1:], 2 * lams[-1])

    monkeypatch.setattr(capacity.spla, "eigsh", missed)
    with pytest.raises(CapacityError, match="missed a null eigenvalue"):
        poincare_constant(3, 2, 2.0, 2.0, 3)


def test_ratio_best_constant_kernel_and_saturated():
    m_cells = 8
    best, _, solver = ratio_best_constant(
        ConstraintSet(np.ones((m_cells,) * 2, dtype=bool), False),
        3, 2, (0, 2.0), [(1, 2.0)], 0)
    assert best == 0.0 and solver == "saturated"
    best, _, solver = ratio_best_constant(
        ConstraintSet(np.zeros((m_cells,) * 2, dtype=bool), False), 3, 2,
        (0, 2.0), [(1, 2.0)], 0)
    assert best == math.inf and solver == "kernel-element"


@pytest.mark.parametrize("grid_level", [-1, 0])
def test_entry_points_reject_grid_too_coarse(grid_level):
    # a 2^level lattice of at most m cells per axis has no order-m
    # difference; each entry point says so before it builds a term
    cs = ConstraintSet(np.zeros((1, 1), dtype=bool), False)
    solves = [
        lambda: gamma_capacity(cs, 1, 0, 2.0, 2.0, grid_level, 2),
        lambda: theta_capacity(cs, 1, 0, 2.0, 2.0, 0.1, grid_level, 2, 0),
        lambda: ratio_best_constant(cs, grid_level, 2, (0, 2.0), [(1, 2.0)],
                                    0),
        lambda: holder_ratio_best_constant(cs, grid_level, 2, 0, 0.5,
                                           [(1, 2.0)], 0),
    ]
    for solve in solves:
        with pytest.raises(CapacityError, match="grid too coarse"):
            solve()


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("weighted", [False, True])
def test_ratio_core_value_and_gradient(q, weighted):
    # (||u||_q - a0 ||grad u||_q) / (||grad^2 u||_q + ||grad u||_2) on a
    # 4x4 lattice, against dense evaluation and central differences; at
    # q = inf the plain norm is the l-infinity term of the identity
    m_cells, dim = 4, 2
    rng = np.random.default_rng(int(10 * min(q, 9.0)))
    n = m_cells**dim
    w = rng.uniform(0.5, 2.0, n) if weighted else (1.0 / m_cells) ** dim
    ops1 = gradient_form_ops(m_cells, dim, 1)
    ops2 = gradient_form_ops(m_cells, dim, 2)
    num = ((None, q, w) if q < math.inf
           else (_with_transposes([(1, sp.identity(n))]), q, 1.0))
    low = (_with_transposes(ops1), q, w)
    den = [(_with_transposes(ops2), q, w), (_with_transposes(ops1), 2.0, w)]
    a0 = 0.01

    def dense_agg(u, ops):
        return sum(mult * (op.toarray() @ u) ** 2 for mult, op in ops)

    def dense_norm(u, ops, r):
        agg = dense_agg(u, ops)
        if r == math.inf:
            return math.sqrt(agg.max())
        return float((agg ** (r / 2) * w).sum()) ** (1 / r)

    def dense_ratio(u):
        if q == math.inf:
            top = float(np.abs(u).max())
        else:
            top = float((np.abs(u) ** q * w).sum()) ** (1 / q)
        top -= a0 * dense_norm(u, ops1, q)
        return top / (dense_norm(u, ops2, q) + dense_norm(u, ops1, 2.0))

    u = rng.standard_normal(n)
    if q == math.inf:
        # central differences need each maximum well clear of a tie
        for vals in (np.abs(u), dense_agg(u, ops1), dense_agg(u, ops2)):
            top2 = np.sort(vals)[-2:]
            assert top2[1] - top2[0] > 1e-3 * top2[1]
    val, grad = _ratio(u, num, den, low, a0, math.inf)
    assert val > 0
    assert val == pytest.approx(dense_ratio(u), rel=1e-12)
    step = 1e-6
    fd = np.array([(dense_ratio(u + step * e) - dense_ratio(u - step * e))
                   / (2 * step) for e in np.eye(n)])
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6 * np.abs(fd).max())


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lam", [0.25, 0.5])
def test_holder_operator_pairs_defined_anchors_only(dim, lam):
    # u = x has a constant first difference wherever it is defined, so no
    # pair may reach the zero rows the lattice operators carry at the edge
    x = ((np.indices((8,) * dim)[0] + 0.5) / 8).reshape(-1)
    assert np.abs(_holder_operator(8, dim, 1, lam) @ x).max() <= 1e-12
    # the same pair rule as the grid quotient on a fully inside raster
    dom = rasterize(DomainSpec(kind="square" if dim == 2 else "interval",
                               dim=dim, level=4))
    assert dom.inside.all()
    u = np.random.default_rng(dim).standard_normal(dom.shape)
    want = holder_quotient(DiscreteFunction(dom, u), 1, lam, interior=True)
    got = np.abs(_holder_operator(16, dim, 1, lam) @ u.reshape(-1)).max()
    assert got == pytest.approx(want, rel=1e-12)


def test_every_ascent_runs_on_the_ratio_core(monkeypatch):
    from hardylab import capacity
    from hardylab.grids import DomainSpec, rasterize
    from hardylab.hardy import HardyParams, direct_best_constant
    assert not hasattr(capacity, "_descent_best_constant")
    calls = []
    ratio = capacity._ratio

    def counted(*args, **kwargs):
        calls.append(1)
        return ratio(*args, **kwargs)

    monkeypatch.setattr(capacity, "_ratio", counted)
    cs = slab_set(8, 2, dim=1)
    dom = rasterize(DomainSpec(kind="interval", dim=1, level=5))
    solves = {
        "gamma": lambda: gamma_capacity(cs, 1, 0, 1.5, 1.5, 3, 1),
        "theta": lambda: theta_capacity(cs, 1, 0, 2.0, 2.0, 0.1, 3, 1, 0),
        "ratio": lambda: ratio_best_constant(cs, 3, 1, (0, 1.5), [(1, 2.0)],
                                             0),
        "holder": lambda: holder_ratio_best_constant(cs, 3, 1, 0, 0.5,
                                                     [(1, 2.0)], 0),
        "poincare": lambda: poincare_constant(1, 1, 1.5, 1.5, 3),
        "direct": lambda: direct_best_constant(
            dom, HardyParams(m=1, p=1.5, q=1.5, s=-1.0)),
    }
    for name, solve in solves.items():
        calls.clear()
        solve()
        assert calls, name


class _CountedTranspose(sp.csr_matrix):
    """A CSR operator that counts how often its transpose is taken."""

    transposes = 0

    def transpose(self, *args, **kwargs):
        self.transposes += 1
        return super().transpose(*args, **kwargs)


def test_ascent_takes_each_transpose_once_per_solve(monkeypatch):
    # the gradient evaluations of a p = 1.5 gamma ascent read the
    # transposes its terms carry and take none of their own
    from hardylab import capacity
    form_ops, grad = capacity.gradient_form_ops, capacity.gradient_norm_grad
    wrapped, evals = [], []

    def counted_ops(*args):
        ops = [(mult, _CountedTranspose(op)) for mult, op in form_ops(*args)]
        wrapped.extend(op for _, op in ops)
        return ops

    def counted_grad(*args):
        evals.append(1)
        return grad(*args)

    monkeypatch.setattr(capacity, "gradient_form_ops", counted_ops)
    monkeypatch.setattr(capacity, "gradient_norm_grad", counted_grad)
    res = gamma_capacity(slab_set(8, 2), 1, 0, 1.5, 1.5, 3, 2)
    assert res.solver == "descent"
    assert len(evals) > 100
    assert wrapped and all(op.transposes <= 1 for op in wrapped)


@pytest.mark.parametrize("dim,level,width", [(2, 3, 2), (1, 9, 40)])
def test_theta_start_independent_of_arpack_state(dim, level, width):
    cs = slab_set(2**level, width, dim)
    first = theta_capacity(cs, 1, 0, 2.0, 2.0, 0.1, level, dim, seed=2)
    A = sp.diags(np.arange(1.0, 301.0)).tocsc()
    for _ in range(3):
        spla.eigsh(A, k=1, sigma=0.0, which="LM")
    again = theta_capacity(cs, 1, 0, 2.0, 2.0, 0.1, level, dim, seed=2)
    assert again.to_record() == first.to_record()
    assert 0 < first.best_constant < math.inf


def test_eigensolve_fallback_is_narrow(monkeypatch):
    # a forced ARPACK failure above the dense limit is a CapacityError, and
    # an unrelated error is not swallowed; nothing large is allocated
    from hardylab import capacity

    n = capacity.DENSE_EIGH_LIMIT + 1
    S = sp.identity(n, format="csr")
    free = np.ones(n, dtype=bool)

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("forced", np.zeros(0), np.zeros((n, 0)))

    monkeypatch.setattr(capacity.spla, "eigsh", no_convergence)
    with pytest.raises(CapacityError, match="eigensolve failed"):
        capacity._eigen_best_constant(S, free, 1.0)

    def broken(*args, **kwargs):
        raise ValueError("not an eigensolver failure")

    monkeypatch.setattr(capacity.spla, "eigsh", broken)
    with pytest.raises(ValueError):
        capacity._eigen_best_constant(S, free, 1.0)


def test_eigensolve_singular_factor_falls_back_to_dense(monkeypatch):
    from hardylab import capacity

    n = 500  # below the fallback limit
    S = sp.identity(n, format="csr") * 4.0

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(capacity.spla, "eigsh", singular)
    best, res, vec = capacity._eigen_best_constant(
        S, np.ones(n, dtype=bool), 1.0)
    assert best == pytest.approx(0.5) and res == 0.0 and vec.shape == (n,)


def test_dense_fallback_reports_its_residual(monkeypatch):
    # the dense re-solve of a failed Lanczos run reports its vector's
    # residual |S v - lam W v| / |W v|, not a flat 0: on the interval L8,
    # m = 2, s = -1 direct pencil dense eigh leaves one near 4e-8
    from hardylab import capacity, hardy
    from hardylab.hardy import HardyParams, direct_best_constant

    pencils = []

    def spy(A, free, w):
        pencils.append((A, free, w))
        return capacity._eigen_best_constant(A, free, w)

    monkeypatch.setattr(hardy, "_eigen_best_constant", spy)
    direct_best_constant(rasterize(DomainSpec(kind="interval", dim=1,
                                              level=8)),
                         HardyParams(m=2, k=1, p=2.0, q=2.0, s=-1.0))
    (S, free, w), = pencils

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("forced", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(capacity.spla, "eigsh", no_convergence)
    best, res, v = capacity._eigen_best_constant(S, free, w)
    lam = best ** -2
    assert res == pytest.approx(np.linalg.norm(S @ v - lam * (w * v))
                                / np.linalg.norm(w * v), rel=1e-6)
    assert res > 1e-10


def test_singular_factor_raises_before_eigsh_and_falls_back(monkeypatch):
    # SuperLU itself finds the symmetric-mode factor singular; the dense
    # fallback still answers and ARPACK never runs
    from hardylab import capacity

    n = 500
    S = sp.diags(np.r_[0.0, np.full(n - 1, 4.0)]).tocsr()

    def unreachable(*args, **kwargs):
        raise AssertionError("eigsh ran on a singular factor")

    monkeypatch.setattr(capacity.spla, "eigsh", unreachable)
    best, res, vec = capacity._eigen_best_constant(
        S, np.ones(n, dtype=bool), 1.0)
    assert best > 1e100 and res == 0.0
    assert abs(vec[0]) == pytest.approx(1.0)


def test_symmetric_mode_shift_invert_matches_dense_3d(monkeypatch):
    # a 3-D grid-level-4 mask with at most DENSE_EIGH_LIMIT free cells (so
    # the dense oracle stays small) takes the symmetric-mode shift-invert
    # path and agrees with dense eigh
    from hardylab import capacity

    calls = []
    splu = spla.splu

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(capacity.spla, "splu", spy)
    free = np.zeros((16,) * 3, dtype=bool)
    free[2:13, 3:14, 1:12] = True
    free[6:9, 6:9, 6:9] = False
    free = free.reshape(-1)
    n = int(free.sum())
    assert n <= capacity.DENSE_EIGH_LIMIT
    hN = 16.0 ** -3
    S = quadratic_form(16, 3, 1)
    best, res, vec = capacity._eigen_best_constant(S, free, hN)
    idx = np.nonzero(free)[0]
    dense = dense_best_constant(S[idx][:, idx].toarray(),
                                np.ones(n, dtype=bool), hN)
    assert best == pytest.approx(dense, rel=1e-10)
    assert res < 1e-8 and vec.shape == (n,)
    assert calls == [dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options=dict(SymmetricMode=True))]


A0_MASKS = {
    "wide": [(3, 4)],                         # 1 zero cell, 3 coefficients
    "tall": [(0, j) for j in range(8)],       # one column: x - 1/16 survives
    "tall-pinned": [(i, j) for i in (0, 1) for j in range(8)],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(A0_MASKS))
def test_a0_violation_verdict_with_reduced_svd(monkeypatch, name):
    # full matrices only for a wide zero-cell block; the theta verdict
    # matches an always-full SVD on wide, tall and empty masks
    from hardylab import capacity

    K = np.zeros((8, 8), dtype=bool)
    for cell in A0_MASKS[name]:
        K[cell] = True
    cs = ConstraintSet(K, False)
    svd = np.linalg.svd

    def verdicts():
        # the note of an unbounded ratio, None for a bounded one
        return [r.note if r.best_constant == math.inf else None
                for r in (capacity.theta_capacity(cs, 2, 0, 2.0, 2.0, A0, 3, 2, 0)
                          for A0 in (1e-3, 1e3))]

    flags = []

    def spy(a, full_matrices=True, **kwargs):
        flags.append((full_matrices, a.shape[0] < a.shape[1]))
        return svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    reduced = verdicts()
    # one block per degree searched (0, then 1), the degree-1 block is wide
    # below three zero cells
    wide = len(A0_MASKS[name]) < 3
    assert flags == ([(False, False), (wide, wide)] * 2 if K.any() else [])
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, full_matrices=True, **kw:
                        svd(a, full_matrices=True, **kw))
    assert reduced == verdicts()
    # constants are admissible only on the empty mask; otherwise a small A0
    # is violated by any admissible non-constant linear function
    assert reduced == {"tall-pinned": [None, None],
                       "empty": ["kernel-element"] * 2}.get(
                           name, ["A0-too-small", None])


# -- the block eigensolver --------------------------------------------------------


@pytest.fixture(scope="module")
def cube4_classes():
    """The constraint classes of the 3-D cube-minus-compact L4 field at
    capacity grid level 4."""
    from hardylab.hardy import _constraint_classes
    from hardylab.whitney import decompose

    dom = rasterize(DomainSpec(kind="cube-minus-compact", dim=3, level=4))
    reps, _ = _constraint_classes(decompose(dom), 4, False)
    return reps


def _block_solves(sets, grid_level, dim):
    """(form, weight, free masks, solutions) of one block solve of the
    m = 1, p = 2 gamma pencils of the sets."""
    from hardylab import capacity

    m_cells = 2**grid_level
    S = quadratic_form(m_cells, dim, 1)
    hN = (1.0 / m_cells) ** dim
    free = np.array([~cs.K.reshape(-1) for cs in sets])
    return S, hN, free, capacity._pencil_best_constants(
        S, hN, free, capacity._lattice_coords(m_cells, dim), 1)


def test_block_classes_are_batch_independent(cube4_classes):
    # every class solved in the field's one block has the bits of its own
    # one-column gamma_capacity
    from hardylab.capacity import gamma_capacities

    batched = gamma_capacities(cube4_classes, 1, 0, 2.0, 2.0, 4, 3, 1)
    for cs, rep in zip(cube4_classes, batched):
        one = gamma_capacity(cs, 1, 0, 2.0, 2.0, 4, 3, 1)
        assert rep.to_record() == one.to_record()
        assert rep.solver == "eigen-exact" and rep.residual < 1e-6


@pytest.mark.parametrize("dim, grid_level", [(1, 1), (1, 2), (2, 2)])
def test_block_eigen_on_the_smallest_lattices(dim, grid_level, monkeypatch):
    # a lattice of at most AGG_COARSEST_SIDE cells per axis still gets one
    # coarse level in the V-cycle, and every first-order class solved by
    # the block matches the dense oracle
    from hardylab import capacity

    m_cells = 2**grid_level
    assert m_cells <= capacity.AGG_COARSEST_SIDE
    n = m_cells**dim
    S = quadratic_form(m_cells, dim, 1).toarray()
    hN = (1.0 / m_cells) ** dim
    runs = []
    block = capacity._block_eigen

    def spy(A, w, free, coords):
        runs.append(len(free))
        return block(A, w, free, coords)

    monkeypatch.setattr(capacity, "_block_eigen", spy)
    # every mask of a 1-D lattice, eight seeded ones of the 2-D one
    masks = (np.array(list(product((False, True), repeat=n))) if n <= 4
             else np.random.default_rng(0).random((8, n)) < 0.4)
    masks = [K.reshape((m_cells,) * dim) for K in masks
             if K.any() and not K.all()]
    assert len(masks) == (2**n - 2 if n <= 4 else 8)
    for K in masks:
        r = gamma_capacity(ConstraintSet(K, False), 1, 0, 2.0, 2.0,
                           grid_level, dim)
        assert r.solver == "eigen-exact"
        assert r.best_constant == pytest.approx(
            dense_best_constant(S, ~K.reshape(-1), hN), rel=1e-12)
    assert runs == [1] * len(masks)


def test_block_eigen_matches_shift_invert(cube4_classes):
    from hardylab import capacity

    S, hN, free, solved = _block_solves(cube4_classes, 4, 3)
    for row, (best, res, vec) in zip(free, solved):
        ref, _, _ = capacity._eigen_best_constant(S, row, hN)
        assert best == pytest.approx(ref, rel=1e-12)
        assert best <= ref * (1 + 1e-13) and vec.shape == (row.sum(),)


def _brackets(S, w, free, solved):
    """Collatz-Wielandt brackets of the solved pencils, None for the
    classes whose free set is disconnected."""
    from oracles import collatz_wielandt_bracket

    out = []
    for row, (best, _, vec) in zip(free, solved):
        idx = np.nonzero(row)[0]
        out.append((best, collatz_wielandt_bracket(S[idx][:, idx], w,
                                                   np.abs(vec))))
    return out


def test_block_eigen_values_lie_in_collatz_wielandt_brackets(cube4_classes,
                                                              monkeypatch):
    # m = 1, p = 2: v = |solver vector| brackets the best constant within
    # 1e-9 relative, for the 3-D L4 classes, the 3-D L4 direct estimate,
    # criterion 4's 2-D level-5 sets and the grid-4 classes of the lshape
    # and square L6 fields
    from hardylab import capacity, hardy
    from hardylab.acceptance import _oracle_constraint_sets
    from hardylab.hardy import (HardyParams, _constraint_classes,
                                direct_best_constant)
    from hardylab.whitney import decompose

    cases = _brackets(*_block_solves(cube4_classes, 4, 3))
    sets = [cs for _, cs in _oracle_constraint_sets(32)]
    cases += _brackets(*_block_solves(sets, 5, 2))
    fields = []
    for kind in ("lshape", "square"):
        dom = rasterize(DomainSpec(kind=kind, dim=2, level=6))
        fields += _constraint_classes(decompose(dom), 4, False)[0]
    cases += _brackets(*_block_solves(fields, 4, 2))

    captured = []

    def spy(A, w, free, coords, order):
        solved = capacity._pencil_best_constants(A, w, free, coords, order)
        captured.append((A, w, free, solved))
        return solved

    monkeypatch.setattr(hardy, "_pencil_best_constants", spy)
    dom = rasterize(DomainSpec(kind="cube-minus-compact", dim=3, level=4))
    direct = direct_best_constant(dom, HardyParams(m=1, k=0, p=2.0, q=2.0,
                                                   s=-1.0))
    assert len(captured) == 1 and captured[0][3][0][0] == direct
    cases += _brackets(*captured[0])

    # one positive vector certifies a connected free set only: criterion
    # 4's "stripes" set falls into 8 strips and is skipped, the only one
    skipped = [best for best, bracket in cases if bracket is None]
    assert len(fields) == 26 + 12
    assert len(cases) == len(cube4_classes) + 10 + len(fields) + 1
    assert len(skipped) == 1
    for best, (lo, hi) in (case for case in cases if case[1] is not None):
        assert lo * (1 - 1e-14) <= best <= hi * (1 + 1e-14)
        assert (hi - lo) / best <= 1e-9


def test_block_eigen_falls_back_to_shift_invert(monkeypatch):
    # a problem the block leaves open is redone by shift-invert (dense up
    # to DENSE_EIGH_LIMIT when that fails too), and raises CapacityError
    # above the limit
    from hardylab import capacity

    K = np.zeros((16,) * 3, dtype=bool)
    K[:5] = True                    # 2816 free cells, above the limit
    small = np.zeros((16,) * 3, dtype=bool)
    small[:9] = True                # 1792 free cells, below it
    expected = [capacity._eigen_best_constant(
        quadratic_form(16, 3, 1), ~k.reshape(-1), 16.0 ** -3)[0]
        for k in (K, small)]
    monkeypatch.setattr(capacity, "EIG_MAX_ITERS", 0)
    runs = []
    eigsh = spla.eigsh

    def spy(*args, **kwargs):
        runs.append(kwargs["sigma"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(capacity.spla, "eigsh", spy)
    got = [gamma_capacity(ConstraintSet(k, False), 1, 0, 2.0, 2.0, 4, 3,
                          0).best_constant for k in (K, small)]
    assert got == expected and runs == [0.0, 0.0]

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("forced", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(capacity.spla, "eigsh", no_convergence)
    dense = gamma_capacity(ConstraintSet(small, False), 1, 0, 2.0, 2.0, 4, 3,
                           0)
    assert dense.best_constant == pytest.approx(expected[1], rel=1e-10)
    with pytest.raises(CapacityError, match="eigensolve failed"):
        gamma_capacity(ConstraintSet(K, False), 1, 0, 2.0, 2.0, 4, 3, 0)


def test_order_two_forms_skip_the_block(monkeypatch):
    # the V-cycle does not precondition an order-2 form: a 3-D m = 2 class
    # goes straight to shift-invert, alone or in a field's batch, with the
    # value the block's fallback gave
    from hardylab import capacity
    from hardylab.capacity import gamma_capacities

    def no_block(*args):
        raise AssertionError("order-2 form sent to the block")

    monkeypatch.setattr(capacity, "_block_eigen", no_block)
    slab = slab_set(16, 4, dim=3)
    one = gamma_capacity(slab, 2, 1, 2.0, 2.0, 4, 3, 0)
    assert one.best_constant == 0.18716875786053788
    assert one.solver == "eigen-exact"
    batch = gamma_capacities([slab, slab], 2, 1, 2.0, 2.0, 4, 3, 0)
    assert [r.to_record() for r in batch] == [one.to_record()] * 2


def test_block_solve_memory_below_class_map():
    # the field's one block solve of the cube-minus-compact L4 classes
    # allocates less at its peak than the class map it starts from
    import tracemalloc

    from hardylab.capacity import gamma_capacities
    from hardylab.hardy import _constraint_classes
    from hardylab.whitney import decompose

    dom = rasterize(DomainSpec(kind="cube-minus-compact", dim=3, level=4))
    dec = decompose(dom)
    quadratic_form(16, 3, 1)
    tracemalloc.start()
    try:
        reps, _ = _constraint_classes(dec, 4, False)
        class_map = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        gamma_capacities(reps, 1, 0, 2.0, 2.0, 4, 3, 1)
        solve = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert solve < class_map, (solve, class_map)
