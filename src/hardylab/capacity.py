"""Polynomial capacities as best constants of constrained Poincaré
inequalities on the unit cube.

The capacities are defined operationally: the gamma flavor is the best
constant C in  ||u||_Lp(Q) <= C (||grad^(k+1) u||_Lp1 + ||grad^m u||_Lp)
over an admissible class (zero on a compact cell set, the nonnegative cone,
their intersection, or everything), and the theta flavor is the best C in
||u||_Lp <= A0 ||grad^(k+1) u||_Lp1 + C ||grad^m u||_Lp with A0 fixed.
Capacity = best_constant^-p, with capacity 0 when the constant is unbounded
(a nonzero polynomial of degree <= k is admissible) and +inf when the
admissible set is trivial ("saturated").

For p = p1 = 2 without cone constraints the best constant is computed by an
inverse-power (shift-invert Lanczos) generalized eigensolve on the
constrained quadratic forms; every other case uses projected normalized
ascent with Armijo steps and multiple deterministic starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .norms import multi_indices, multinomial

CONSTRAINT_KINDS = (
    "zero-on-compact",
    "nonnegative-cone",
    "zero-on-compact-and-nonnegative",
    "full-space",
)


class CapacityError(RuntimeError):
    """Solver failure or invalid capacity parameters."""


@dataclass(frozen=True)
class ConstraintSet:
    """Admissible class on the unit-cube grid.

    K is a boolean cell mask (zero set) for the zero-on-compact kinds and
    must be None for the others.
    """

    kind: str
    K: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise CapacityError(f"unknown constraint kind {self.kind!r}")
        needs_k = self.kind in ("zero-on-compact", "zero-on-compact-and-nonnegative")
        if needs_k and self.K is None:
            raise CapacityError(f"{self.kind} requires a cell set K")
        if not needs_k and self.K is not None:
            raise CapacityError(f"{self.kind} does not take a cell set")
        if self.K is not None:
            object.__setattr__(self, "K", np.asarray(self.K, dtype=bool))

    @property
    def has_cone(self) -> bool:
        return self.kind in ("nonnegative-cone", "zero-on-compact-and-nonnegative")

    def zero_mask(self, shape) -> np.ndarray:
        if self.K is None:
            return np.zeros(shape, dtype=bool)
        if self.K.shape != shape:
            raise CapacityError("constraint mask shape does not match grid")
        return self.K

    def canonical_key(self) -> bytes:
        """Cache key invariant under the cube symmetry group."""
        if self.K is None:
            return self.kind.encode()
        best = None
        for arr in _symmetry_images(self.K):
            b = arr.tobytes()
            if best is None or b < best:
                best = b
        return self.kind.encode() + b"|" + best + str(self.K.shape).encode()


def _symmetry_images(mask: np.ndarray):
    dim = mask.ndim
    for perm in _permutations(dim):
        base = np.transpose(mask, perm)
        for flips in product((False, True), repeat=dim):
            arr = base
            for ax, f in enumerate(flips):
                if f:
                    arr = np.flip(arr, axis=ax)
            yield np.ascontiguousarray(arr)


def _permutations(n):
    if n == 1:
        return [(0,)]
    if n == 2:
        return [(0, 1), (1, 0)]
    return [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]


@dataclass
class CapacityResult:
    flavor: str
    m: int
    k: int
    p: float
    p1: float
    alpha_A0: float
    best_constant: float
    capacity: float
    solver: str
    residual: float
    grid_level: int
    dim: int
    seed: int = 0
    note: str = ""

    def to_record(self) -> dict:
        return {
            "flavor": self.flavor, "m": self.m, "k": self.k, "p": self.p,
            "p1": self.p1, "alpha_A0": self.alpha_A0,
            "best_constant": self.best_constant, "capacity": self.capacity,
            "solver": self.solver, "residual": self.residual,
            "grid_level": self.grid_level, "dim": self.dim,
            "seed": self.seed, "note": self.note,
        }


# -- lattice operators --------------------------------------------------------


@lru_cache(maxsize=None)
def _diff_chain(m_cells: int, order: int) -> sp.csr_matrix:
    """order-fold 1-D forward difference matrix, (m-order) x m, unit spacing."""
    T = sp.identity(m_cells, format="csr")
    for j in range(order):
        k = m_cells - j
        D = sp.diags([-np.ones(k - 1), np.ones(k - 1)], [0, 1],
                     shape=(k - 1, k), format="csr")
        T = D @ T
    return T.tocsr()


@lru_cache(maxsize=None)
def _alpha_operator(m_cells: int, alpha: tuple[int, ...], h: float) -> sp.csr_matrix:
    """D^alpha on an m_cells^N lattice of spacing h, with anchors embedded in
    the full lattice (zero rows where the stencil leaves it), so every
    difference is counted exactly once and the order-j forms have exactly the
    degree-(j-1) polynomials as kernel."""
    op = None
    for a in alpha:
        T = _diff_chain(m_cells, a)
        if a > 0:
            pad = sp.csr_matrix((a, m_cells))
            T = sp.vstack([T, pad], format="csr")
        op = T if op is None else sp.kron(op, T, format="csr")
    return (op / h ** sum(alpha)).tocsr()


def gradient_form_ops(m_cells: int, dim: int, order: int,
                      h: float | None = None):
    """[(multinomial weight, sparse operator)] for |grad^order u| aggregation
    on an m_cells^dim lattice of spacing h (default: the unit cube)."""
    if order == 0:
        n = m_cells**dim
        return [(1, sp.identity(n, format="csr"))]
    if m_cells - order <= 0:
        raise CapacityError("grid too coarse for the requested gradient order")
    if h is None:
        h = 1.0 / m_cells
    return [
        (multinomial(alpha), _alpha_operator(m_cells, alpha, h))
        for alpha in multi_indices(dim, order)
    ]


def quadratic_form(m_cells: int, dim: int, order: int) -> sp.csr_matrix:
    """Sparse S with u^T S u = integral |grad^order u|^2 (unit cube)."""
    hN = (1.0 / m_cells) ** dim
    S = None
    for mult, op in gradient_form_ops(m_cells, dim, order):
        term = (op.T @ op) * (mult * hN)
        S = term if S is None else S + term
    return S.tocsr()


def gradient_norm_value(u_flat: np.ndarray, ops, q: float, w) -> float:
    """(sum |grad^j u|^q w)^(1/q) via the pointwise l2 aggregate; w is the
    cell volume or a per-anchor weight array."""
    agg = None
    for mult, op in ops:
        v = op @ u_flat
        term = mult * v * v
        agg = term if agg is None else agg + term
    return float((agg ** (q / 2.0) * w).sum()) ** (1.0 / q)


def gradient_norm_grad(u_flat: np.ndarray, ops, q: float, w):
    """Value and d/du of the weighted gradient q-norm (w as above)."""
    vs = []
    agg = None
    for mult, op in ops:
        v = op @ u_flat
        vs.append((mult, op, v))
        term = mult * v * v
        agg = term if agg is None else agg + term
    val = float((agg ** (q / 2.0) * w).sum()) ** (1.0 / q)
    if val <= 0:
        return 0.0, np.zeros_like(u_flat)
    if q != 2.0:
        # zero where the aggregate vanishes (the q < 2 power is infinite there)
        pos = agg > 0
        scale = np.zeros_like(agg)
        scale[pos] = agg[pos] ** (q / 2.0 - 1.0)
        w = w * scale
    grad = np.zeros_like(u_flat)
    for mult, op, v in vs:
        grad += mult * (op.T @ (w * v))
    grad *= val ** (1.0 - q)
    return val, grad


def lp_norm_grad(u_flat: np.ndarray, p: float, w):
    """Value and d/du of (sum |u|^p w)^(1/p) (w as above)."""
    absu = np.abs(u_flat)
    val = float((absu**p * w).sum()) ** (1.0 / p)
    if val <= 0:
        return 0.0, np.zeros_like(u_flat)
    grad = w * absu ** (p - 1.0) * np.sign(u_flat) * val ** (1.0 - p)
    return val, grad


def _term_value_grad(u_flat: np.ndarray, term):
    """Value and gradient of one ratio term (ops, q, w): the weighted
    gradient q-norm through ops, or the plain Lp norm when ops is None."""
    ops, q, w = term
    if ops is None:
        return lp_norm_grad(u_flat, q, w)
    return gradient_norm_grad(u_flat, ops, q, w)


def _unit_term(m_cells: int, dim: int, order: int, q: float):
    """Ratio term for ||grad^order u||_q on the unit-cube lattice."""
    ops = None if order == 0 else gradient_form_ops(m_cells, dim, order)
    return ops, q, (1.0 / m_cells) ** dim


# -- polynomial kernel detection ----------------------------------------------


def _poly_basis(m_cells: int, dim: int, degree: int) -> np.ndarray:
    """Monomials of total degree <= degree evaluated at lattice centers,
    columns = basis functions."""
    xs = (np.arange(m_cells) + 0.5) / m_cells
    grids = np.meshgrid(*([xs] * dim), indexing="ij")
    cols = []
    for beta in sorted(
        {b for d in range(degree + 1) for b in multi_indices(dim, d)}
    ):
        col = np.ones(m_cells**dim)
        for ax, b in enumerate(beta):
            col = col * grids[ax].reshape(-1) ** b
        cols.append(col)
    return np.stack(cols, axis=1)


def admissible_kernel_element(constraints: ConstraintSet, m_cells: int,
                              dim: int, degree: int) -> np.ndarray | None:
    """A nonzero degree-<=degree polynomial in the admissible set, if any.

    For cone kinds the element must additionally be sign-definite on the
    grid (checked on the nullspace basis vectors; a conservative test).
    """
    if degree < 0:
        return None
    B = _poly_basis(m_cells, dim, degree)
    zero = constraints.zero_mask((m_cells,) * dim).reshape(-1)
    if zero.any():
        Bz = B[zero, :]
        # U is unused: the full V needs full matrices only for wide Bz
        _, s, vt = np.linalg.svd(Bz, full_matrices=len(Bz) < Bz.shape[1])
        rank = int((s > 1e-10 * max(1.0, s[0] if len(s) else 1.0)).sum())
        null = vt[rank:].T
    else:
        null = np.eye(B.shape[1])
    if null.shape[1] == 0:
        return None
    for i in range(null.shape[1]):
        cand = B @ null[:, i]
        if np.abs(cand).max() < 1e-12:
            continue
        if constraints.has_cone:
            if (cand >= -1e-10).all():
                return cand
            if (cand <= 1e-10).all():
                return -cand
        else:
            return cand
    return None


# -- solvers -------------------------------------------------------------------


# Largest free subspace the failed sparse eigensolve may redo densely: two
# dense n x n matrices, 64 MiB at n = 2048.
DENSE_EIGH_LIMIT = 2048


def _eigen_best_constant(S: sp.csr_matrix, free: np.ndarray,
                         w: float | np.ndarray):
    """max sqrt(u^T W u / u^T S u) over the free subspace, W = diag(w) with
    w the cell volume or a per-entry array (as in the ratio core), via the
    smallest generalized eigenvalue of (S, W): dense up to 400 free
    entries, shift-invert Lanczos above.

    Returns (best, residual, maximiser on the free entries)."""
    idx = np.nonzero(free)[0]
    n = len(idx)
    # an all-free solve (the direct estimate) factors S without a copy
    Sf = (S if n == len(free) else S[idx][:, idx]).tocsc()
    Mf = sp.diags(np.broadcast_to(w, free.shape)[idx]).tocsc()
    if n <= 400:
        lam, vec = scipy.linalg.eigh(Sf.toarray(), Mf.toarray(),
                                     subset_by_index=[0, 0])
        # dense re-solve residual is below fp noise; report 0
        return math.sqrt(1.0 / max(lam[0], 1e-300)), 0.0, vec[:, 0]
    try:
        v0 = np.ones(n) / math.sqrt(n)  # deterministic Lanczos start
        lam, vec = spla.eigsh(Sf, k=1, M=Mf, sigma=0.0, which="LM", v0=v0)
        lam = float(lam[0])
        v = vec[:, 0]
        res = float(np.linalg.norm(Sf @ v - lam * (Mf @ v)) /
                    max(np.linalg.norm(Mf @ v), 1e-300))
        return math.sqrt(1.0 / max(lam, 1e-300)), res, v
    except RuntimeError as exc:
        # ARPACK did not converge, or SuperLU found the shifted matrix
        # singular; anything else is a fault and propagates.
        if not (isinstance(exc, spla.ArpackNoConvergence)
                or "singular" in str(exc)):
            raise
        if n <= DENSE_EIGH_LIMIT:
            lam, vec = scipy.linalg.eigh(Sf.toarray(), Mf.toarray(),
                                         subset_by_index=[0, 0])
            return math.sqrt(1.0 / max(lam[0], 1e-300)), 0.0, vec[:, 0]
        raise CapacityError(f"eigensolve failed: {exc}") from exc


def dense_best_constant(S: np.ndarray, free: np.ndarray, hN: float) -> float:
    """Brute-force dense oracle for the p=2 best constant (testing)."""
    idx = np.nonzero(free)[0]
    Sf = S[np.ix_(idx, idx)]
    lam = scipy.linalg.eigh(Sf, hN * np.eye(len(idx)), eigvals_only=True)[0]
    return math.sqrt(1.0 / max(lam, 1e-300))


def _project(u, zero_flat, cone):
    u = np.where(zero_flat, 0.0, u)
    if cone:
        u = np.maximum(u, 0.0)
    return u


def _descent_best_constant(objective, n_dofs, zero_flat, cone, seed,
                           starts_extra=(), max_iters=300, n_random=8):
    """Multi-start projected normalized ascent on a ratio objective.

    objective(u) -> (value, gradient).  Returns (best value, residual of the
    projected gradient at the best point, best u).
    """
    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(n_dofs) for _ in range(n_random)]
    starts += [np.asarray(s, dtype=float) for s in starts_extra]
    best_val, best_res, best_u = 0.0, math.inf, None
    for u0 in starts:
        u = _project(u0.copy(), zero_flat, cone)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            continue
        u /= nrm
        val, grad = objective(u)
        if not math.isfinite(val):
            raise CapacityError("ascent diverged (non-finite objective)")
        step = 0.5
        res = math.inf
        for _ in range(max_iters):
            # projected gradient of the scale-invariant objective
            g = _project(grad, zero_flat, False)
            g -= np.dot(g, u) * u
            if cone:
                # keep feasible directions only where u sits on the boundary
                g = np.where((u <= 0) & (g < 0), 0.0, g)
            res = float(np.linalg.norm(g))
            if res <= 1e-10 * max(1.0, abs(val)):
                break
            improved = False
            while step > 1e-12:
                cand = _project(u + step * g, zero_flat, cone)
                nc = np.linalg.norm(cand)
                if nc > 0:
                    cand /= nc
                    cval, cgrad = objective(cand)
                    if cval > val + 1e-14 * abs(val):
                        u, val, grad = cand, cval, cgrad
                        improved = True
                        step *= 1.3
                        break
                step *= 0.5
            if not improved:
                break
        if val > best_val:
            best_val, best_res, best_u = val, res, u.copy()
    if best_u is None:
        return 0.0, 0.0, None
    return best_val, best_res, best_u


def _sum_terms(u, terms):
    """Summed values and gradients of ratio terms."""
    val, grad = 0.0, np.zeros_like(u)
    for term in terms:
        v, g = _term_value_grad(u, term)
        val += v
        grad += g
    return val, grad


def _ratio(u, num, den, low=None, a0=0.0, vanishing=math.inf):
    """(num(u) - a0 low(u)) / sum of den(u), and its gradient.

    Terms are (ops, q, w) as in _term_value_grad.  With a lower-order term
    the ratio is clamped at 0 where the numerator is not positive; a
    vanishing denominator gives `vanishing`.
    """
    val_n, g_n = _term_value_grad(u, num)
    if low is not None:
        v, g = _term_value_grad(u, low)
        val_n, g_n = val_n - a0 * v, g_n - a0 * g
    val_d, g_d = _sum_terms(u, den)
    if low is not None and val_n <= 0:
        return 0.0, g_n
    if val_d <= 1e-300:
        return vanishing, g_n
    val = val_n / val_d
    return val, g_n / val_d - val * g_d / val_d


def _ratio_descent(zero_flat, cone, seed, num, den, low=None, a0=0.0,
                   vanishing=math.inf, starts=(), max_iters=300):
    """Projected multi-start ascent on _ratio; returns (best, residual)."""
    objective = partial(_ratio, num=num, den=den, low=low, a0=a0,
                        vanishing=vanishing)
    best, res, _ = _descent_best_constant(
        objective, len(zero_flat), zero_flat, cone, seed, starts,
        max_iters=max_iters)
    return best, res


def validate_exponents(dim, m, k, p, p1):
    """Admissible (m, k, p, p1) combinations per the norm-equivalence lemma."""
    if not (0 <= k <= m - 1):
        raise CapacityError("need 0 <= k <= m-1")
    if p < 1:
        raise CapacityError("p must be >= 1")
    if k == m - 1:
        return
    gap = (m - k - 1) * p
    if dim > gap:
        limit = dim * p / (dim - gap)
        if not (0 < p1 <= limit + 1e-12):
            raise CapacityError(
                f"p1={p1} outside (0, {limit:.4g}] for N>(m-k-1)p")
    elif dim == gap:
        if not (0 < p1 < math.inf):
            raise CapacityError("p1 must be finite and positive for N=(m-k-1)p")
    else:
        if not (0 < p1):
            raise CapacityError("p1 must be positive")


def gamma_capacity(constraints: ConstraintSet, m: int, k: int, p: float,
                   p1: float, grid_level: int, dim: int = 2,
                   seed: int = 0) -> CapacityResult:
    """Best-constant capacity for the two-seminorm-sum Poincaré inequality."""
    validate_exponents(dim, m, k, p, p1)
    m_cells = 2**grid_level
    hN = (1.0 / m_cells) ** dim
    zero = constraints.zero_mask((m_cells,) * dim).reshape(-1)

    def result(best, cap, solver, res, note=""):
        return CapacityResult(
            flavor="gamma", m=m, k=k, p=p, p1=p1, alpha_A0=0.0,
            best_constant=best, capacity=cap, solver=solver, residual=res,
            grid_level=grid_level, dim=dim, seed=seed, note=note)

    if zero.all():
        return result(0.0, math.inf, "eigen-exact", 0.0, note="saturated")
    kern = admissible_kernel_element(constraints, m_cells, dim, k)
    if kern is not None:
        return result(math.inf, 0.0, "eigen-exact", 0.0, note="kernel-element")

    single = k + 1 == m and abs(p1 - p) < 1e-12
    if abs(p - 2) < 1e-12 and (single or abs(p1 - 2) < 1e-12) \
            and not constraints.has_cone:
        S = quadratic_form(m_cells, dim, m)
        if not single:
            S = S + quadratic_form(m_cells, dim, k + 1)
        best, res, _ = _eigen_best_constant(S, ~zero, hN)
        return result(best, best ** (-p), "eigen-exact", res)

    orders = [(m, p)] if single else [(k + 1, p1), (m, p)]
    den = [_unit_term(m_cells, dim, o, q) for o, q in orders]
    poly_starts = list(_poly_basis(m_cells, dim, min(k + 1, 3)).T)
    best, res = _ratio_descent(zero, constraints.has_cone, seed,
                               _unit_term(m_cells, dim, 0, p), den,
                               starts=poly_starts)
    if best <= 0:
        return result(0.0, math.inf, "descent", res, note="saturated")
    return result(best, best ** (-p), "descent", res)


def theta_capacity(constraints: ConstraintSet, m: int, k: int, p: float,
                   p1: float, A0: float, grid_level: int, dim: int = 2,
                   seed: int = 0) -> CapacityResult:
    """Best-constant capacity for the fixed-A0 Poincaré inequality."""
    validate_exponents(dim, m, k, p, p1)
    if A0 <= 0:
        raise CapacityError("A0 must be positive")
    m_cells = 2**grid_level
    hN = (1.0 / m_cells) ** dim
    shape = (m_cells,) * dim
    zero = constraints.zero_mask(shape).reshape(-1)
    n = m_cells**dim

    def result(best, cap, solver, res, note=""):
        return CapacityResult(
            flavor="theta", m=m, k=k, p=p, p1=p1, alpha_A0=A0,
            best_constant=best, capacity=cap, solver=solver, residual=res,
            grid_level=grid_level, dim=dim, seed=seed, note=note)

    if zero.all():
        return result(0.0, math.inf, "descent", 0.0, note="saturated")
    kern = admissible_kernel_element(constraints, m_cells, dim, k)
    if kern is not None:
        return result(math.inf, 0.0, "descent", 0.0, note="kernel-element")
    viol = _a0_violation(constraints, m_cells, dim, m, k, p, p1, A0, hN)
    if viol:
        return result(math.inf, 0.0, "descent", 0.0, note="A0-too-small")

    starts = []
    if abs(p - 2) < 1e-12 and abs(p1 - 2) < 1e-12 and not constraints.has_cone:
        # start from the maximiser of the matching quadratic ratio
        S = quadratic_form(m_cells, dim, m) + quadratic_form(m_cells, dim, k + 1)
        _, _, vec = _eigen_best_constant(S, ~zero, hN)
        u0 = np.zeros(n)
        u0[~zero] = vec
        starts.append(u0)
    best, res = _ratio_descent(
        zero, constraints.has_cone, seed, _unit_term(m_cells, dim, 0, p),
        [_unit_term(m_cells, dim, m, p)],
        low=_unit_term(m_cells, dim, k + 1, p1), a0=A0, vanishing=0.0,
        starts=starts)
    if best <= 0:
        return result(0.0, math.inf, "descent", res, note="numerator-clamped")
    return result(best, best ** (-p), "descent", res)


def _a0_violation(constraints, m_cells, dim, m, k, p, p1, A0, hN) -> bool:
    """True when some admissible polynomial of degree <= m-1 has
    ||P||_p > A0 ||grad^(k+1) P||_p1 with grad^m P = 0 (sup unbounded)."""
    B = _poly_basis(m_cells, dim, m - 1)
    zero = constraints.zero_mask((m_cells,) * dim).reshape(-1)
    if zero.any():
        _, s, vt = np.linalg.svd(B[zero, :], full_matrices=True)
        rank = int((s > 1e-10 * max(1.0, s[0] if len(s) else 1.0)).sum())
        null = vt[rank:].T
    else:
        null = np.eye(B.shape[1])
    if null.shape[1] == 0:
        return False
    basis = B @ null  # admissible polynomial space, columns
    ops_low = gradient_form_ops(m_cells, dim, k + 1)
    d = basis.shape[1]
    rng = np.random.default_rng(12345)
    best = 0.0
    for trial in range(64 * d):
        c = rng.standard_normal(d)
        P = basis @ c
        if constraints.has_cone:
            if (P < -1e-10).any():
                if (P > 1e-10).any():
                    continue
                P = -P
        nrm = np.linalg.norm(P)
        if nrm < 1e-12:
            continue
        P /= nrm
        num = float((np.abs(P) ** p).sum() * hN) ** (1.0 / p)
        low = gradient_norm_value(P, ops_low, p1, hN)
        if low < 1e-14:
            continue  # degree <= k: handled by kernel detection
        best = max(best, num / low)
    return best > A0


def ratio_best_constant(constraints: ConstraintSet, grid_level: int, dim: int,
                        num_spec, den_terms, seed: int = 0,
                        a0: float = 0.0, max_iters: int = 300):
    """General constrained ratio maximization on the unit-cube lattice.

    num_spec = (order, q): numerator ||grad^order u||_q (order 0: plain norm).
    den_terms = [(order, q), ...]: denominator sum of gradient norms.
    a0 > 0 switches to the fixed-constant form: the first denominator term is
    moved to the numerator as -a0*||.|| (clamped at zero) and the remaining
    terms stay below.

    Returns (best, residual, solver).  Uses the inverse-power eigensolve when
    everything is quadratic and cone-free, projected ascent otherwise.
    """
    m_cells = 2**grid_level
    hN = (1.0 / m_cells) ** dim
    zero = constraints.zero_mask((m_cells,) * dim).reshape(-1)
    if zero.all():
        return 0.0, 0.0, "saturated"
    num_order, num_q = num_spec
    num = _unit_term(m_cells, dim, num_order, num_q)
    terms = [_unit_term(m_cells, dim, o, q) for o, q in den_terms]
    low, den = (terms[0], terms[1:]) if a0 > 0.0 else (None, terms)

    # unbounded ratio: an admissible polynomial kills the denominator
    true_den = den_terms[1:] if a0 > 0.0 else den_terms
    kern_deg = min(o for o, _ in true_den) - 1
    kern = admissible_kernel_element(constraints, m_cells, dim, kern_deg)
    if kern is not None:
        kern = kern / max(np.abs(kern).max(), 1e-300)
        nval = _term_value_grad(kern, num)[0]
        if low is not None:
            nval -= a0 * _term_value_grad(kern, low)[0]
        if nval > 1e-10:
            return math.inf, 0.0, "kernel-element"

    all_quadratic = (abs(num_q - 2) < 1e-12 and a0 == 0.0
                     and all(abs(q - 2) < 1e-12 for _, q in den_terms)
                     and num_order == 0 and not constraints.has_cone)
    if all_quadratic:
        S = None
        for order, _ in den_terms:
            term = quadratic_form(m_cells, dim, order)
            S = term if S is None else S + term
        best, res, _ = _eigen_best_constant(S, ~zero, hN)
        return best, res, "eigen-exact"

    best, res = _ratio_descent(zero, constraints.has_cone, seed, num, den,
                               low=low, a0=a0,
                               starts=list(_poly_basis(m_cells, dim, 2).T),
                               max_iters=max_iters)
    return best, res, "descent"


def holder_ratio_best_constant(constraints: ConstraintSet, grid_level: int,
                               dim: int, h_order: int, lam: float,
                               den_terms, seed: int = 0,
                               radius_cells: int = 2,
                               max_iters: int = 200):
    """Best constant of the pointwise-Hölder-quotient Poincaré inequality on
    the unit lattice: sup of the order-h quotient with exponent lam over the
    admissible class against the usual gradient-sum denominator.

    Projected subgradient ascent (the numerator is a max over finitely many
    difference pairs).  Returns (best, residual, solver).
    """
    m_cells = 2**grid_level
    h_c = 1.0 / m_cells
    shape = (m_cells,) * dim
    zero = constraints.zero_mask(shape).reshape(-1)
    n = m_cells**dim
    if zero.all():
        return 0.0, 0.0, "saturated"
    kern_deg = min(o for o, _ in den_terms) - 1
    kern = admissible_kernel_element(constraints, m_cells, dim, kern_deg)
    if kern is not None and kern_deg >= h_order + 1:
        return math.inf, 0.0, "kernel-element"

    num_ops = gradient_form_ops(m_cells, dim, h_order)
    dens = [_unit_term(m_cells, dim, o, q) for o, q in den_terms]
    shifts = []
    for off in product(range(-radius_cells, radius_cells + 1), repeat=dim):
        d2 = sum(o * o for o in off)
        if 0 < d2 <= radius_cells**2:
            shifts.append((off, (math.sqrt(d2) * h_c) ** lam))

    def quotient(u):
        """(value, sparse-op, x-index, y-index, sign, dist_pow) at argmax."""
        best = (0.0, None, 0, 0, 1.0, 1.0)
        for mult, op in num_ops:
            F = (op @ u).reshape(shape)
            for off, dist_pow in shifts:
                dst_sl, src_sl = [], []
                for ax, o in enumerate(off):
                    nn = shape[ax]
                    dst_sl.append(slice(max(0, -o), nn - max(0, o)))
                    src_sl.append(slice(max(0, o), nn - max(0, -o)))
                diff = F[tuple(dst_sl)] - F[tuple(src_sl)]
                if diff.size == 0:
                    continue
                idx = np.argmax(np.abs(diff))
                val = diff.reshape(-1)[idx] / dist_pow
                if abs(val) > best[0]:
                    loc = np.unravel_index(idx, diff.shape)
                    x_idx = np.ravel_multi_index(
                        tuple(l + s.start for l, s in zip(loc, dst_sl)), shape)
                    y_idx = np.ravel_multi_index(
                        tuple(l + s.start for l, s in zip(loc, src_sl)), shape)
                    best = (abs(val), op, int(x_idx), int(y_idx),
                            math.copysign(1.0, val), dist_pow)
        return best

    def objective(u):
        val, op, xi, yi, sign, dist_pow = quotient(u)
        if op is None:
            return 0.0, np.zeros_like(u)
        e = np.zeros(op.shape[0])
        e[xi] = sign / dist_pow
        e[yi] = -sign / dist_pow
        gnum = op.T @ e
        den, gden = _sum_terms(u, dens)
        if den <= 1e-300:
            return math.inf, gnum
        ratio = val / den
        return ratio, gnum / den - ratio * gden / den

    poly_starts = [c for c in _poly_basis(m_cells, dim, 2).T]
    best, res, _ = _descent_best_constant(
        objective, n, zero, constraints.has_cone, seed, poly_starts,
        max_iters=max_iters)
    return best, res, "descent"


def poincare_constant(dim: int, order: int, p: float, p1: float,
                      grid_level: int, seed: int = 0) -> float:
    """Unconstrained order-gradient Poincaré constant of the unit cube:
    sup ||u - proj_poly u||_p / ||grad^order u||_p1 with the L2 projection
    onto polynomials of degree < order.  Used for the default theta A0."""
    m_cells = 2**grid_level
    hN = (1.0 / m_cells) ** dim
    B = _poly_basis(m_cells, dim, order - 1)
    Qb, _ = np.linalg.qr(B)
    ops = gradient_form_ops(m_cells, dim, order)
    if abs(p - 2) < 1e-12 and abs(p1 - 2) < 1e-12:
        S = quadratic_form(m_cells, dim, order).toarray()
        n = m_cells**dim
        proj = np.eye(n) - Qb @ Qb.T
        Mproj = hN * (proj.T @ proj)
        lam = scipy.linalg.eigh(Mproj, S + 1e-14 * np.eye(n),
                                eigvals_only=True)[-1]
        return math.sqrt(max(lam, 0.0))

    def objective(u):
        w = u - Qb @ (Qb.T @ u)
        num, gnum_w = lp_norm_grad(w, p, hN)
        gnum = gnum_w - Qb @ (Qb.T @ gnum_w)
        den, gden = gradient_norm_grad(u, ops, p1, hN)
        if den <= 1e-300:
            return 0.0, gnum
        val = num / den
        return val, gnum / den - val * gden / den

    n = m_cells**dim
    best, _, _ = _descent_best_constant(
        objective, n, np.zeros(n, dtype=bool), False, seed)
    return best


def default_theta_a0(dim: int, k: int, p1: float, grid_level: int) -> float:
    """Twice the unconstrained (k+1)-gradient Poincaré constant."""
    return 2.0 * poincare_constant(dim, k + 1, p1, p1, min(grid_level, 4))


def norm_equivalence_constant(q_sub_corner, q_sub_side: float, m: int, k: int,
                              p: float, p1: float, grid_level: int,
                              dim: int = 2, seed: int = 0,
                              n_random: int = 24) -> float:
    """Probe-estimated smallest A with

        ||grad^(k+1) u||_Lp1(Q0) <= A (||grad^(k+1) u||_Lp1(Q) +
                                        ||grad^m u||_Lp(Q0))

    over polynomials to degree m and random smooth fields, for a subcube Q
    at q_sub_corner (unit coordinates) with side q_sub_side >= 2 cells.
    """
    if m <= k + 1:
        raise CapacityError("norm equivalence requires m > k+1")
    validate_exponents(dim, m, k, p, p1)
    m_cells = 2**grid_level
    hN = (1.0 / m_cells) ** dim
    side_cells = int(round(q_sub_side * m_cells))
    if side_cells < 2:
        raise CapacityError("subcube must span at least 2 cells")
    corner = [int(round(c * m_cells)) for c in np.atleast_1d(q_sub_corner)]
    if len(corner) != dim:
        raise CapacityError("corner dimension mismatch")
    for c in corner:
        if c < 0 or c + side_cells > m_cells:
            raise CapacityError("subcube leaves the unit cube")

    ops_low = gradient_form_ops(m_cells, dim, k + 1)
    ops_top = gradient_form_ops(m_cells, dim, m)
    # anchors are embedded in the full lattice; mark those inside the subcube
    sub_mask = np.zeros((m_cells,) * dim, dtype=bool)
    sub_sl = tuple(
        slice(c, max(c + side_cells - (k + 1), c + 1)) for c in corner
    )
    sub_mask[sub_sl] = True
    sub_weight = hN * sub_mask.reshape(-1)

    rng = np.random.default_rng(seed)
    probes = []
    B = _poly_basis(m_cells, dim, m)
    for i in range(B.shape[1]):
        probes.append(B[:, i])
    xs = (np.arange(m_cells) + 0.5) / m_cells
    grids = np.meshgrid(*([xs] * dim), indexing="ij")
    for _ in range(n_random):
        coef = rng.standard_normal((3,) * dim + (2,))
        f = np.zeros((m_cells,) * dim)
        for freq in product(range(3), repeat=dim):
            phase = sum(freq[a] * grids[a] for a in range(dim))
            f += coef[freq + (0,)] * np.cos(2 * math.pi * phase)
            f += coef[freq + (1,)] * np.sin(2 * math.pi * phase)
        probes.append(f.reshape(-1))

    worst = 0.0
    for u in probes:
        lhs = gradient_norm_value(u, ops_low, p1, hN)
        rhs = gradient_norm_value(u, ops_low, p1, sub_weight) \
            + gradient_norm_value(u, ops_top, p, hN)
        if rhs < 1e-12 * max(lhs, 1.0):
            continue
        worst = max(worst, lhs / rhs)
    return worst


def open_question_21_experiment(corpus, m: int, k: int, p: float, p1: float,
                                grid_level: int, dim: int = 2,
                                A0: float | None = None, seed: int = 0):
    """Gamma vs theta capacities over a corpus of constraint sets.

    Evidence only: reports the two capacities and their ratio (None when
    undefined because both vanish).
    """
    if A0 is None:
        A0 = default_theta_a0(dim, k, p1, grid_level)
    rows = []
    for i, cs in enumerate(corpus):
        g = gamma_capacity(cs, m, k, p, p1, grid_level, dim, seed)
        t = theta_capacity(cs, m, k, p, p1, A0, grid_level, dim, seed)
        if g.capacity > 0 and math.isfinite(g.capacity) and t.capacity > 0:
            ratio = t.capacity / g.capacity
        else:
            ratio = None
        rows.append({
            "index": i, "kind": cs.kind,
            "gamma": g.capacity, "theta": t.capacity, "ratio": ratio,
            "gamma_note": g.note, "theta_note": t.note, "A0": A0,
        })
    return {"rows": rows, "m": m, "k": k, "p": p, "p1": p1,
            "grid_level": grid_level, "dim": dim, "A0": A0}
