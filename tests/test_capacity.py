import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hardylab.capacity import (CapacityError, ConstraintSet, gamma_capacity,
                               admissible_kernel_element,
                               theta_capacity, dense_best_constant,
                               quadratic_form, default_theta_a0,
                               poincare_constant, norm_equivalence_constant,
                               open_question_21_experiment,
                               ratio_best_constant, gradient_form_ops, _ratio)


def slab_set(m_cells, width, dim=2, cone=False):
    K = np.zeros((m_cells,) * dim, dtype=bool)
    K[tuple(slice(0, width) if a == 0 else slice(None) for a in range(dim))] = True
    kind = "zero-on-compact-and-nonnegative" if cone else "zero-on-compact"
    return ConstraintSet(kind, K)


def test_full_space_capacity_zero():
    r = gamma_capacity(ConstraintSet("full-space"), 2, 0, 2.0, 2.0, 3, 2)
    assert r.capacity == 0.0
    assert not math.isfinite(r.best_constant)


def test_saturated_sentinel():
    K = np.ones((8, 8), dtype=bool)
    r = gamma_capacity(ConstraintSet("zero-on-compact", K), 1, 0, 2.0, 2.0, 3, 2)
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
    base = gamma_capacity(ConstraintSet("zero-on-compact", K), 1, 0, 2.0, 2.0, 3, 2)
    for img in (K[::-1, :].copy(), K[:, ::-1].copy(), K.T.copy()):
        r = gamma_capacity(ConstraintSet("zero-on-compact", img), 1, 0, 2.0,
                           2.0, 3, 2)
        assert r.best_constant == pytest.approx(base.best_constant, rel=1e-10)


def test_kernel_detection_linear_poly():
    # K on a coordinate hyperplane slab: x_1 vanishes there, so k=1 admits a
    # nonzero kernel polynomial and the capacity is exactly 0
    m_cells = 8
    K = np.zeros((m_cells, m_cells), dtype=bool)
    K[0, :] = True
    r = gamma_capacity(ConstraintSet("zero-on-compact", K), 2, 1, 2.0, 2.0, 3, 2)
    assert r.capacity == 0.0 and r.note == "kernel-element"


@pytest.mark.parametrize("zero_cells", [[(3, 4)], [(0, 0), (7, 7)],
                                        [(0, 0), (7, 7), (0, 7)]])
def test_kernel_detection_with_few_zero_cells(zero_cells):
    # fewer zero cells than linear coefficients leave a kernel polynomial;
    # three cells in general position pin a linear polynomial to zero
    K = np.zeros((8, 8), dtype=bool)
    for cell in zero_cells:
        K[cell] = True
    kern = admissible_kernel_element(ConstraintSet("zero-on-compact", K),
                                     8, 2, 1)
    if len(zero_cells) < 3:
        assert np.abs(kern).max() > 1e-6
        assert np.abs(kern.reshape(8, 8)[K]).max() < 1e-12
    else:
        assert kern is None


def test_cone_kernel_detection():
    r = gamma_capacity(ConstraintSet("nonnegative-cone"), 1, 0, 2.0, 2.0, 3, 2)
    assert r.capacity == 0.0  # constants are admissible in the cone


def test_theta_against_gamma_slab():
    cs = slab_set(16, 2)
    g = gamma_capacity(cs, 1, 0, 2.0, 2.0, 4, 2)
    A0 = default_theta_a0(2, 0, 2.0, 4)
    t = theta_capacity(cs, 1, 0, 2.0, 2.0, A0, 4, 2)
    assert t.capacity >= g.capacity / 2.0**2 - 1e-9
    # with a small A0 the theta constant is finite and positive
    t2 = theta_capacity(cs, 1, 0, 2.0, 2.0, 0.1, 4, 2, seed=2)
    assert 0 < t2.best_constant < math.inf
    assert t2.capacity == pytest.approx(t2.best_constant ** -2.0, rel=1e-12)


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
    r = theta_capacity(ConstraintSet("zero-on-compact", K), 2, 0, 2.0, 2.0,
                       1e-4, 3, 2)
    assert r.capacity == 0.0
    assert r.note in ("A0-too-small", "kernel-element")


def test_a0_large_limit_clamps_numerator():
    cs = slab_set(8, 2)
    r = theta_capacity(cs, 1, 0, 2.0, 2.0, 1e6, 3, 2)
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
        norm_equivalence_constant((0.0, 0.0), 0.25, 1, 0, 2.0, 2.0, 4, 2)
    with pytest.raises(CapacityError):
        norm_equivalence_constant((0.0, 0.0), 0.01, 2, 0, 2.0, 2.0, 4, 2)


def test_open_question_experiment():
    empty = open_question_21_experiment([], 1, 0, 2.0, 2.0, 3, 2)
    assert empty["rows"] == []
    corpus = [slab_set(8, w) for w in (1, 2, 4)] + [ConstraintSet("full-space")]
    rep = open_question_21_experiment(corpus, 1, 0, 2.0, 2.0, 3, 2, A0=0.1)
    assert len(rep["rows"]) == 4
    for row in rep["rows"][:3]:
        assert row["gamma"] > 0
    assert rep["rows"][3]["ratio"] is None


def test_poincare_constant_reasonable():
    # mean-free Poincaré constant of the unit square is 1/(pi*sqrt(2))~0.225
    c = poincare_constant(2, 1, 2.0, 2.0, 4)
    assert 0.15 < c < 0.4


def test_ratio_best_constant_kernel_and_saturated():
    m_cells = 8
    best, _, solver = ratio_best_constant(
        ConstraintSet("zero-on-compact", np.ones((m_cells,) * 2, dtype=bool)),
        3, 2, (0, 2.0), [(1, 2.0)])
    assert best == 0.0 and solver == "saturated"
    best, _, solver = ratio_best_constant(
        ConstraintSet("full-space"), 3, 2, (0, 2.0), [(1, 2.0)])
    assert best == math.inf and solver == "kernel-element"


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("weighted", [False, True])
def test_ratio_core_value_and_gradient(q, weighted):
    # (||u||_q - a0 ||grad u||_q) / (||grad^2 u||_q + ||grad u||_2) on a
    # 4x4 lattice, against dense evaluation and central differences
    m_cells, dim = 4, 2
    rng = np.random.default_rng(int(10 * q))
    n = m_cells**dim
    w = rng.uniform(0.5, 2.0, n) if weighted else (1.0 / m_cells) ** dim
    ops1 = gradient_form_ops(m_cells, dim, 1)
    ops2 = gradient_form_ops(m_cells, dim, 2)
    num, low = (None, q, w), (ops1, q, w)
    den = [(ops2, q, w), (ops1, 2.0, w)]
    a0 = 0.01

    def dense_norm(u, ops, r):
        agg = sum(mult * (op.toarray() @ u) ** 2 for mult, op in ops)
        return float((agg ** (r / 2) * w).sum()) ** (1 / r)

    def dense_ratio(u):
        top = float((np.abs(u) ** q * w).sum()) ** (1 / q) \
            - a0 * dense_norm(u, ops1, q)
        return top / (dense_norm(u, ops2, q) + dense_norm(u, ops1, 2.0))

    u = rng.standard_normal(n)
    val, grad = _ratio(u, num, den, low=low, a0=a0)
    assert val > 0
    assert val == pytest.approx(dense_ratio(u), rel=1e-12)
    step = 1e-6
    fd = np.array([(dense_ratio(u + step * e) - dense_ratio(u - step * e))
                   / (2 * step) for e in np.eye(n)])
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6 * np.abs(fd).max())


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

    n = 500  # above the direct dense size, below the fallback limit
    S = sp.identity(n, format="csr") * 4.0

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(capacity.spla, "eigsh", singular)
    best, res, vec = capacity._eigen_best_constant(
        S, np.ones(n, dtype=bool), 1.0)
    assert best == pytest.approx(0.5) and res == 0.0 and vec.shape == (n,)
