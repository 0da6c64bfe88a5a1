"""Polynomial capacities as best constants of constrained Poincaré
inequalities on the unit cube.

The capacities are defined operationally: the gamma flavor is the best
constant C in  ||u||_Lp(Q) <= C (||grad^(k+1) u||_Lp1 + ||grad^m u||_Lp)
over an admissible class (zero on a cell set K, optionally intersected with
the nonnegative cone; an empty K leaves the full space or the whole cone),
and the theta flavor is the best C in
||u||_Lp <= A0 ||grad^(k+1) u||_Lp1 + C ||grad^m u||_Lp with A0 fixed.
Capacity = best_constant^-p, with capacity 0 when the constant is unbounded
(a nonzero polynomial of degree <= k is admissible) and +inf when the
admissible set is trivial ("saturated").

`gamma_capacity`, `theta_capacity`, `ratio_best_constant` and
`holder_ratio_best_constant` are adapters of one constrained-ratio solve,
`_solve`.  It alone tests saturation (an all-zero mask), applies the one
unboundedness rule (`_unbounded_witness`: an admissible polynomial below
the denominator's lowest order with a positive numerator), and chooses
between the eigensolve and the ascent.

For p = p1 = 2 without cone constraints the best constant is the smallest
generalized eigenvalue of the constrained quadratic forms, solved by two
rules (`_pencil_best_constants`; timings on a 2-core x86 VM, one BLAS
thread, best of 5):

- every first-order capacity lattice, whatever its size, and every 3-D
  direct estimate run one block LOBPCG (`_block_eigen`, after Knyazev
  2001): one column per problem, preconditioned by a V-cycle over dyadic
  2^N aggregation of the lattice (`_VCycle`; aggregation multigrid after
  Vanek, Mandel and Brezina 1996, with an unsmoothed piecewise-constant
  prolongation).  `gamma_capacities` solves all such classes of a
  capacity field in one block: the 29 classes of the 3-D
  cube-minus-compact L5 field (1005-4055 free cells each) take 0.42 s
  against 1.16 s for one SuperLU factor and one ARPACK run per class, and
  the 32 488-entry L5 direct estimate 0.15 s against 0.46 s for
  Jacobi-preconditioned LOBPCG.  On 2-D grid-4 lattices the block is
  no faster than dense `eigh` was: the 26 lshape L6 classes take 38 ms
  either way, the 12 square L6 classes 19 ms against 11 ms, and one class
  alone (a theta start) about 4.6 ms against 1.1 ms.  Each column's bits
  are those of its own one-column solve, and none depends on the BLAS
  thread count: the sums over long vectors are numpy's pairwise sums,
  the products scipy's sparse kernels;
- everything else runs symmetric-mode shift-invert Lanczos (ARPACK on
  one SuperLU factor, minimum-degree ordering of S + S^T, diagonal
  pivots): the 1-D and 2-D direct estimates, `poincare_constant`, every
  form of order 2 and above, and a problem the block leaves unconverged
  after EIG_MAX_ITERS iterations.  In 2-D the factor is cheap and the
  V-cycle loses (square L6 direct estimate at s = -1: 0.100 s against
  0.056 s).  The V-cycle does not precondition forms of order 2: a 3-D
  order-2 class at grid level 4 ran all EIG_MAX_ITERS block iterations
  before it (0.55-0.65 s per class against 0.18-0.38 s by shift-invert
  alone).

Dense `eigh` runs only where ARPACK cannot (a lattice with no more
entries than the eigenpairs sought) and after a failed ARPACK run, up to
DENSE_EIGH_LIMIT entries (CapacityError above).

Every other case maximises one objective, the ratio core `_ratio`:
(num - a0 low) / sum of den over terms (ops, q, w), each a weighted
gradient q-norm or a plain Lp norm.  `_ratio_descent` is the one ascent:
projected normalized ascent with Armijo steps from eight seeded random
starts and the caller's starts.  The Hölder-form chain constant enters as
an l-infinity term of one stacked difference operator, and the p != 2
Poincaré constant as a term behind the projection off the polynomials.
Ratio terms carry each operator with its transpose, built once per solve,
so no gradient evaluation builds a sparse matrix.  Both are `_Matvec`
handles on the operator's CSR arrays: `@` calls scipy's `csr_matvec` (the
transpose `csc_matvec` on the same three arrays) into a fresh zero vector,
as scipy's own product does once its argument checks pass.  Every product
has the same bits, without scipy's per-call dispatch, which dominates on
the 64- and 256-entry lattices of the per-cube solves (a first-order
operator on 64 entries: 7.6 us per scipy product, 3.1 us per handle
product, 2-core x86 VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .norms import _holder_pairs, multi_indices, multinomial


class CapacityError(RuntimeError):
    """Solver failure or invalid capacity parameters."""


@dataclass(frozen=True)
class ConstraintSet:
    """Admissible class on the unit-cube grid: the functions that vanish on
    the cells of the boolean mask K, restricted to the nonnegative cone when
    cone is set.  An all-False K is the full space (or the whole cone)."""

    K: np.ndarray
    cone: bool

    def __post_init__(self):
        object.__setattr__(self, "K", np.asarray(self.K, dtype=bool))

    def zero_mask(self, shape) -> np.ndarray:
        if self.K.shape != shape:
            raise CapacityError("constraint mask shape does not match grid")
        return self.K


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
    seed: int
    note: str

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
    """order-fold 1-D forward difference matrix of an m_cells lattice, unit
    spacing, one row per anchor: the last `order` rows, whose stencil
    leaves the lattice, are zero (m_cells x m_cells)."""
    T = sp.identity(m_cells, format="csr")
    for j in range(order):
        k = m_cells - j
        D = sp.diags([-np.ones(k - 1), np.ones(k - 1)], [0, 1],
                     shape=(k - 1, k), format="csr")
        T = D @ T
    if order > 0:
        T = sp.vstack([T, sp.csr_matrix((order, m_cells))], format="csr")
    return T.tocsr()


def difference_operator(m_cells: int, alpha: tuple[int, ...], h: float,
                        cells: slice) -> sp.csr_matrix:
    """D^alpha on an m_cells^N lattice of spacing h, with anchors embedded in
    the full lattice (zero rows where the stencil leaves it), so every
    difference is counted exactly once and the order-j forms have exactly
    the degree-(j-1) polynomials as kernel.

    Only the columns of the cells in the slice `cells` of every axis are
    kept (C order): the Kronecker product of the sliced 1-D chains, the
    same entries as those columns of the full operator without building
    it.  Not cached."""
    op = None
    for a in alpha:
        T = _diff_chain(m_cells, a)[:, cells]
        op = T if op is None else sp.kron(op, T, format="csr")
    return (op / h ** sum(alpha)).tocsr()


@lru_cache(maxsize=None)
def _alpha_operator(m_cells: int, alpha: tuple[int, ...]) -> sp.csr_matrix:
    """difference_operator on the whole m_cells^N lattice of the unit cube,
    cached for every lattice that gradient_form_ops is asked for: the
    capacity grids, quadratic_form's included.  The direct estimate's
    padded raster lattice does not pass through here (hardy._inside_op
    builds its operators uncached, one at a time)."""
    return difference_operator(m_cells, alpha, 1.0 / m_cells, slice(None))


def check_grid_level(grid_level: int, order: int) -> None:
    """Raise CapacityError unless the 2**grid_level unit-cube lattice
    carries order-`order` differences: grid_level >= 0 and more cells per
    axis than the order."""
    if grid_level < 0 or 2**grid_level <= order:
        raise CapacityError("grid too coarse for the requested gradient order")


def gradient_form_ops(m_cells: int, dim: int, order: int):
    """[(multinomial weight, sparse operator)] for |grad^order u| aggregation
    on the m_cells^dim lattice of the unit cube."""
    if order == 0:
        n = m_cells**dim
        return [(1, sp.identity(n, format="csr"))]
    if m_cells - order <= 0:
        raise CapacityError("grid too coarse for the requested gradient order")
    return [
        (multinomial(alpha), _alpha_operator(m_cells, alpha))
        for alpha in multi_indices(dim, order)
    ]


@lru_cache(maxsize=None)
def quadratic_form(m_cells: int, dim: int, order: int) -> sp.csr_matrix:
    """Sparse S with u^T S u = integral |grad^order u|^2 (unit cube).

    Cached, as _alpha_operator is, for every unit-cube capacity lattice
    it is asked for (never a raster): every caller gets the same matrix,
    so none may change it in place (sums, slices, tocsc and toarray make
    copies)."""
    hN = (1.0 / m_cells) ** dim
    S = None
    for mult, op in gradient_form_ops(m_cells, dim, order):
        term = (op.T @ op) * (mult * hN)
        S = term if S is None else S + term
    return S.tocsr()


def gradient_norm_grad(u_flat: np.ndarray, ops, q: float, w):
    """Value and d/du of the weighted gradient q-norm
    (sum |grad^j u|^q w)^(1/q), through the pointwise l2 aggregate; w is
    the cell volume or a per-anchor weight array.

    At q = inf the value is the square root of the largest aggregate (w is
    unused) and the gradient is that of the first anchor attaining it.
    ops holds (mult, op, opT) triples with opT the transpose of op, taken
    once per solve; op and opT may be any operators with `@`.

    Accumulators start as 0.0 + their first term (what adding it to zeros
    gives, -0.0 included) and add the rest in place, so the bits are those
    of the zeros-then-add form."""
    vs = []
    agg = None
    for mult, op, opT in ops:
        v = op @ u_flat
        vs.append((mult, opT, v))
        term = mult * v * v
        if agg is None:
            agg = term
        else:
            agg += term
    if q == math.inf:
        top = int(np.argmax(agg))
        val = math.sqrt(agg[top])
    else:
        val = float((agg ** (q / 2.0) * w).sum()) ** (1.0 / q)
    if val <= 0:
        return 0.0, np.zeros_like(u_flat)
    if q == math.inf:
        w = np.zeros(len(agg))
        w[top] = 1.0 / val
    elif q != 2.0:
        # zero where the aggregate vanishes (the q < 2 power is infinite there)
        pos = agg > 0
        scale = np.zeros(len(agg))
        scale[pos] = agg[pos] ** (q / 2.0 - 1.0)
        w = w * scale
    grad = None
    for mult, opT, v in vs:
        t = mult * (opT @ (w * v))
        if grad is None:
            grad = 0.0 + t
        else:
            grad += t
    if q != math.inf:
        grad *= val ** (1.0 - q)
    return val, grad


def lp_norm_grad(u_flat: np.ndarray, p: float, w):
    """Value and d/du of (sum |u|^p w)^(1/p) (w as above)."""
    absu = np.abs(u_flat)
    val = float((absu**p * w).sum()) ** (1.0 / p)
    if val <= 0:
        return 0.0, np.zeros_like(u_flat)
    grad = w * absu ** (p - 1.0)
    grad *= np.sign(u_flat)
    grad *= val ** (1.0 - p)
    return val, grad


class _Matvec:
    """y = A x for a CSR matrix A (`transpose`: y = A^T x), by the kernel
    scipy's own product calls once its argument checks pass: `csr_matvec`
    (`csc_matvec` on the same three arrays for A^T) into a fresh zero
    vector, so every product has the bits of `A @ x` (or `A.T @ x`)."""

    __slots__ = ("shape", "_in_shape", "_kernel", "_rows", "_cols",
                 "_indptr", "_indices", "_data")

    def __init__(self, A, transpose: bool):
        A = A.tocsr()
        self._rows, self._cols = A.shape[::-1] if transpose else A.shape
        self.shape = (self._rows, self._cols)
        self._in_shape = (self._cols,)
        self._kernel = (_sparsetools.csc_matvec if transpose
                        else _sparsetools.csr_matvec)
        self._indptr, self._indices, self._data = A.indptr, A.indices, A.data

    def __matmul__(self, x):
        if x.shape != self._in_shape:
            raise ValueError(f"matvec: {self.shape} operator, "
                             f"{x.shape} vector")
        y = np.zeros(self._rows)
        self._kernel(self._rows, self._cols, self._indptr, self._indices,
                     self._data, x, y)
        return y


def _with_transposes(ops):
    """[(mult, A, A^T)] for [(mult, sparse A)]: the operators of a ratio
    term and their transposes as `_Matvec` handles on the same arrays,
    taken once where a solve builds its terms."""
    return [(mult, _Matvec(op, False), _Matvec(op, True)) for mult, op in ops]


def _term_value_grad(u_flat: np.ndarray, term):
    """Value and gradient of one ratio term (ops, q, w): the weighted
    gradient q-norm through the (mult, op, opT) triples ops, or the plain
    Lp norm when ops is None."""
    ops, q, w = term
    if ops is None:
        return lp_norm_grad(u_flat, q, w)
    return gradient_norm_grad(u_flat, ops, q, w)


def _unit_term(m_cells: int, dim: int, order: int, q: float):
    """Ratio term for ||grad^order u||_q on the unit-cube lattice."""
    ops = None if order == 0 else _with_transposes(
        gradient_form_ops(m_cells, dim, order))
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


def _null_space(B: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Coefficient basis (columns) of the combinations of B's columns that
    vanish on the zero cells."""
    if not zero.any():
        return np.eye(B.shape[1])
    Bz = B[zero, :]
    # U is unused: the full V needs full matrices only for wide Bz
    _, s, vt = np.linalg.svd(Bz, full_matrices=len(Bz) < Bz.shape[1])
    rank = int((s > 1e-10 * max(1.0, s[0] if len(s) else 1.0)).sum())
    return vt[rank:].T


def _unbounded_witness(constraints: ConstraintSet, m_cells: int, dim: int,
                       degrees, num, low, a0: float) -> np.ndarray | None:
    """An admissible polynomial P with num(P) - a0 low(P) > 0, if one is
    found, scaled to max |P| = 1; None otherwise.

    The candidates are the null-space basis vectors of the admissible
    polynomials of each degree in `degrees` (ascending), then 64 d seeded
    combinations of the last degree's d basis vectors.  Under the cone a
    candidate must be sign-definite on the grid, and is taken nonnegative.
    A polynomial of degree below the denominator's lowest order kills the
    denominator, so such a witness makes the ratio unbounded."""
    zero = constraints.zero_mask((m_cells,) * dim).reshape(-1)
    basis = np.zeros((m_cells**dim, 0))
    vectors = []
    for degree in degrees:
        B = _poly_basis(m_cells, dim, degree)
        basis = B @ _null_space(B, zero)
        vectors += list(basis.T)
    rng = np.random.default_rng(12345)
    d = basis.shape[1]
    combos = (basis @ rng.standard_normal(d) for _ in range(64 * d))
    for P in chain(vectors, combos):
        if np.abs(P).max() < 1e-12:
            continue
        if constraints.cone and not (P >= -1e-10).all():
            if not (P <= 1e-10).all():
                continue
            P = -P
        P = P / np.abs(P).max()
        val = _term_value_grad(P, num)[0]
        if low is not None:
            val -= a0 * _term_value_grad(P, low)[0]
        if val > 1e-10:
            return P
    return None


# -- solvers -------------------------------------------------------------------


# Largest free subspace the failed sparse eigensolve may redo densely: two
# dense n x n matrices, 64 MiB at n = 2048.
DENSE_EIGH_LIMIT = 2048
# ascent steps per start of the Hölder-form chain solves
HOLDER_MAX_ITERS = 200


def _symmetric_inverse(A: sp.csc_matrix) -> spla.LinearOperator:
    """A^-1 for an SPD A, on one SuperLU factor in symmetric mode
    (minimum-degree ordering of A + A^T, diagonal pivots): the shift-invert
    operator of every sparse Lanczos run here."""
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    return spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)


def _eigen_best_constant(S: sp.csr_matrix, free: np.ndarray,
                         w: float | np.ndarray):
    """max sqrt(u^T W u / u^T S u) over the free subspace, W = diag(w) with
    w the cell volume or a per-entry array (as in the ratio core), via the
    smallest generalized eigenvalue of (S, W).

    ARPACK runs shift-invert Lanczos at sigma = 0 on one SuperLU factor of
    the free block: S is SPD there, so the factor uses symmetric mode
    (minimum-degree ordering of S + S^T, diagonal pivots), which fills far
    less than the default column ordering on 3-D lattices.  A single free
    entry, where ARPACK cannot run, is solved densely; so are a singular
    factor and an unconverged Lanczos run up to DENSE_EIGH_LIMIT entries,
    which raise CapacityError above.

    Returns (best, residual |S v - lam W v| / |W v|, maximiser v on the
    free entries)."""
    idx = np.nonzero(free)[0]
    n = len(idx)
    # an all-free solve (the direct estimate) factors S without a copy
    Sf = (S if n == len(free) else S[idx][:, idx]).tocsc()
    Mf = sp.diags(np.broadcast_to(w, free.shape)[idx]).tocsc()
    vec = None
    if n > 1:
        try:
            OPinv = _symmetric_inverse(Sf)
            v0 = np.ones(n) / math.sqrt(n)  # deterministic Lanczos start
            lam, vec = spla.eigsh(Sf, k=1, M=Mf, sigma=0.0, which="LM",
                                  v0=v0, OPinv=OPinv)
        except RuntimeError as exc:
            # ARPACK did not converge, or SuperLU found the matrix singular;
            # anything else is a fault and propagates.
            if not (isinstance(exc, spla.ArpackNoConvergence)
                    or "singular" in str(exc)):
                raise
            if n > DENSE_EIGH_LIMIT:
                raise CapacityError(f"eigensolve failed: {exc}") from exc
    if vec is None:
        lam, vec = scipy.linalg.eigh(Sf.toarray(), Mf.toarray(),
                                     subset_by_index=[0, 0])
    lam = float(lam[0])
    v = vec[:, 0]
    res = float(np.linalg.norm(Sf @ v - lam * (Mf @ v)) /
                max(np.linalg.norm(Mf @ v), 1e-300))
    return math.sqrt(1.0 / max(lam, 1e-300)), res, v


# Block eigensolver: a problem is frozen once its scaled residual
# |A x - lam W x|_{W^-1} / (lam |x|_W) is at most EIG_TOL; one still open
# after EIG_MAX_ITERS iterations is redone by shift-invert.
EIG_TOL = 1e-12
EIG_MAX_ITERS = 150
# its V-cycle: damped Jacobi sweeps before and after each coarse
# correction, the over-correction of the piecewise-constant prolongation,
# and the lattice side at which coarsening stops
AGG_SWEEPS = 2
AGG_DAMPING = 0.9
AGG_SCALE = 1.5
AGG_COARSEST_SIDE = 4


def _galerkin(op: sp.csr_matrix, held: np.ndarray, parent: np.ndarray,
              size: int):
    """(C, aggregates holding a held entry): C = P^T op P for the
    piecewise-constant prolongation P of the held entries onto their
    aggregates `parent` (size in all), with an identity row on each
    aggregate that holds none."""
    rows = np.flatnonzero(held)
    P = sp.csr_matrix((np.ones(len(rows)), (rows, parent[rows])),
                      shape=(len(held), size))
    covered = np.zeros(size, dtype=bool)
    covered[parent[rows]] = True
    C = (P.T @ (op @ P) + sp.diags((~covered).astype(float))).tocsr()
    return C, covered


def _spmm(A: sp.csr_matrix, X: np.ndarray) -> np.ndarray:
    """A @ x for each row x of a (problems, entries) block, one `_product`
    per row."""
    Y = np.empty(X.shape)
    for x, y in zip(X, Y):
        _product(A, x, y)
    return Y


def _product(A: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> None:
    """out = A @ x for a CSR A, by scipy's own kernels: `csr_matvec` for a
    vector, `csr_matvecs` for an (entries, problems) block, which sums
    each column in the order of its own one-column product."""
    out.fill(0.0)
    if x.ndim == 1:
        _sparsetools.csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices,
                                A.data, x, out)
    else:
        _sparsetools.csr_matvecs(A.shape[0], A.shape[1], x.shape[1],
                                 A.indptr, A.indices, A.data, x.ravel(),
                                 out.ravel())


class _VCycle:
    """Symmetric V-cycle for the masked SPD problems A_ff, one per row of
    `free` (problems, entries), over dyadic 2^N aggregation of the lattice
    cells at `coords`.

    The aggregates are shared: the cells are halved per axis at least once
    and until the lattice spans at most AGG_COARSEST_SIDE cells, and each
    problem reads a level on all of its aggregates.  The fine level
    applies the one A to the masked block.  The coarse operators are per
    problem, its Galerkin P^T A_ff P over the aggregates that hold a free
    entry (an identity row on the rest), built one problem at a time and
    stacked block-diagonally, so a product reads only its own problem's
    entries; the coarsest is inverted densely per problem.  Each level
    smooths with AGG_SWEEPS damped Jacobi sweeps (AGG_DAMPING) before and
    after its coarse correction, which is scaled by AGG_SCALE."""

    def __init__(self, A: sp.csr_matrix, free: np.ndarray, coords: np.ndarray):
        k = len(free)
        parents = []
        sub = coords
        while not parents or np.ptp(sub, axis=0).max() + 1 > AGG_COARSEST_SIDE:
            half = sub // 2
            half -= half.min(axis=0)
            shape = tuple(half.max(axis=0) + 1)
            keys, parent = np.unique(np.ravel_multi_index(half.T, shape),
                                     return_inverse=True)
            parents.append(parent.reshape(-1))
            sub = np.stack(np.unravel_index(keys, shape), axis=1)
        sizes = [len(free[0])] + [int(p.max()) + 1 for p in parents]
        ops = [[] for _ in parents]
        helds = [free] + [np.zeros((k, s), dtype=bool) for s in sizes[1:]]
        for c in range(k):
            op = A
            for lev, parent in enumerate(parents):
                op, helds[lev + 1][c] = _galerkin(op, helds[lev][c], parent,
                                                  sizes[lev + 1])
                ops[lev].append(op)
        # per level: operator apply, damped inverse diagonal and each
        # entry's aggregate in the next level (masked entries past its end)
        self.stages = []
        for lev, parent in enumerate(parents):
            flat = parent + sizes[lev + 1] * np.arange(k)[:, None]
            flat = np.where(helds[lev], flat, k * sizes[lev + 1])
            if lev == 0:
                flat = flat.T.ravel()
                odinv = np.ascontiguousarray(
                    (AGG_DAMPING / A.diagonal()[:, None]) * free.T)
                self.stages.append((A, odinv, flat, k * sizes[1]))
            else:
                S = sp.block_diag(ops[lev - 1], format="csr")
                odinv = AGG_DAMPING / S.diagonal() * helds[lev].ravel()
                self.stages.append((S, odinv, flat.ravel(),
                                    k * sizes[lev + 1]))
        self.inverses = np.linalg.inv(np.array([op.toarray()
                                                for op in ops[-1]]))

    def _cycle(self, r: np.ndarray, lev: int) -> np.ndarray:
        if lev == len(self.stages):
            k = len(self.inverses)
            return np.add.reduce(self.inverses * r.reshape(k, 1, -1),
                                 axis=2).ravel()
        A, odinv, flat, total = self.stages[lev]
        # in place on one scratch array: a fresh block-sized temporary per
        # operation costs more in page faults than the operation
        x, t = odinv * r, np.empty_like(r)

        def sweep():
            _product(A, x, t)
            np.subtract(r, t, out=t)
            np.multiply(t, odinv, out=t)
            np.add(x, t, out=x)

        for _ in range(AGG_SWEEPS - 1):
            sweep()
        _product(A, x, t)
        np.subtract(r, t, out=t)
        rc = np.bincount(flat, weights=t.ravel(), minlength=total + 1)[:total]
        np.take(np.append(self._cycle(rc, lev + 1), 0.0), flat,
                out=t.reshape(-1))
        t *= AGG_SCALE
        x += t
        for _ in range(AGG_SWEEPS):
            sweep()
        return x

    def __call__(self, Rt: np.ndarray) -> np.ndarray:
        """The V-cycle on a masked block laid out (entries, problems),
        C-contiguous, returned laid out (problems, entries)."""
        return np.ascontiguousarray(self._cycle(Rt, 0).T)


def _block_eigen(A: sp.csr_matrix, w, free: np.ndarray, coords: np.ndarray):
    """Smallest eigenpair of each masked pencil (A_ff, W_ff), W = diag(w),
    one problem per row of `free` (problems, entries), by one-vector
    LOBPCG per problem preconditioned by the _VCycle, all problems in one
    block.

    Every problem starts from its constant function.  Its Rayleigh-Ritz
    step is its own pencil on x, the preconditioned residual t and the
    previous direction p, each W-orthogonalised twice against the ones
    before and W-normalised; a direction that does not survive that is
    left out.  A converged problem is frozen with its values, so
    no problem's bits depend on the others.

    Returns [(best, residual, maximiser on the free entries) or None] per
    problem, None for one not converged within EIG_MAX_ITERS; best is
    sqrt(x^T W x / x^T A x), a lower bound for the best constant."""
    w = np.broadcast_to(np.asarray(w, dtype=float), free.shape[1:])
    vcycle = _VCycle(A, free, coords)
    out = [None] * len(free)
    active = np.arange(len(free))
    # scratch for the per-row sums and updates: the block-sized
    # temporaries are few and reused (see _VCycle._cycle)
    scratch = np.empty(free.shape)

    def dot(X, Y):
        # per-row sums of X * Y: numpy's pairwise sum along each contiguous
        # row, so every row's bits are those of its own one-row block
        return np.add.reduce(np.multiply(X, Y, out=scratch[:len(X)]), axis=1)

    def wnorm(X):
        s = np.multiply(X, w, out=scratch[:len(X)])
        return np.sqrt(np.add.reduce(np.multiply(s, X, out=s), axis=1))

    def orthonormal(V, basis):
        # V W-orthogonalised twice against the W-orthonormal basis and
        # W-normalised, and the rows where nothing survives (left zero)
        before = wnorm(V)
        for _ in range(2):
            for B, WB in basis:
                V -= np.multiply(B, dot(WB, V)[:, None],
                                 out=scratch[:len(V)])
        after = wnorm(V)
        kept = after > 1e-10 * before
        V *= np.where(kept, 1.0 / np.where(kept, after, 1.0), 0.0)[:, None]
        return V, ~kept

    X = free / wnorm(free)[:, None]
    AX = _spmm(A, X)
    free_active = free
    P = None
    for _ in range(EIG_MAX_ITERS):
        WX = w * X
        xAx, xWx = dot(X, AX), dot(X, WX)
        lam = xAx / xWx
        R = WX * lam[:, None]
        np.subtract(AX, R, out=R)
        del AX
        R *= free_active
        s = np.divide(R, w, out=scratch[:len(R)])
        done = (np.sqrt(np.add.reduce(np.multiply(R, s, out=s), axis=1))
                <= EIG_TOL * lam * np.sqrt(xWx))
        for j in np.nonzero(done)[0]:
            res = math.sqrt(dot(R[j:j + 1], R[j:j + 1])[0]
                            / dot(WX[j:j + 1], WX[j:j + 1])[0])
            out[active[j]] = (math.sqrt(xWx[j] / xAx[j]), res,
                              X[j, free[active[j]]])
        if done.all():
            break
        del WX
        if done.any():
            keep = ~done
            active, free_active = active[keep], free_active[keep]
            xAx = xAx[keep]
            X, R = X[keep], R[keep]
            if P is not None:
                P = P[keep]
        # the V-cycle runs on every problem, zero for the frozen ones, laid
        # out (entries, problems); R and W X go first, as the cycle's
        # temporaries set the block's peak memory
        Rt = np.zeros(free.shape[::-1])
        Rt[:, active] = R.T
        del R
        T = vcycle(Rt)
        del Rt
        if len(active) < len(free):
            T = T[active]
        # a direction's weighted copy W B is made (with the bits of W X
        # above) only while a later direction is orthogonalised against it
        basis, weighted = [X], []
        lost = [np.zeros(len(active), dtype=bool)]
        for V in (T, P):
            if V is not None:
                weighted.append(w * basis[-1])
                V, gone = orthonormal(V, list(zip(basis, weighted)))
                basis.append(V)
                lost.append(gone)
        del T, V, weighted
        lost = np.stack(lost, axis=1)
        # Rayleigh-Ritz on the W-orthonormal basis; a lost direction gets
        # an eigenvalue far above the rest.  One product A B_j is held at a
        # time.
        m = len(basis)
        G = np.empty((len(active), m, m))
        G[:, 0, 0] = xAx
        for j in range(1, m):
            ABj = _spmm(A, basis[j])
            for i in range(j + 1):
                G[:, i, j] = G[:, j, i] = dot(basis[i], ABj)
            del ABj
        G[:, range(m), range(m)] += lost * 1e300
        y = np.linalg.eigh(G)[1][:, :, 0]
        y *= np.where(y[:, :1] < 0, -1.0, 1.0)
        P = basis[1] * y[:, 1:2]
        for i in range(2, m):
            P += np.multiply(basis[i], y[:, i:i + 1], out=scratch[:len(P)])
        del basis
        X *= y[:, :1]
        X += P
        scale = (1.0 / wnorm(X))[:, None]
        X *= scale
        P *= scale
        AX = _spmm(A, X)
    return out


def _pencil_best_constants(A: sp.csr_matrix, w, free: np.ndarray,
                           coords: np.ndarray, order: int):
    """max sqrt(u^T W u / u^T A u) over each free subspace, one per row of
    `free` (problems, entries), W = diag(w), by two rules.  order is the
    highest difference order of the form A.  A first-order form sends
    every problem, whatever its size, to one _block_eigen block, and a
    problem the block leaves unconverged to _eigen_best_constant.  Every
    problem of a form of order 2 and above goes straight to
    _eigen_best_constant (shift-invert, then dense up to DENSE_EIGH_LIMIT):
    the aggregation V-cycle does not precondition such a form, which runs
    all EIG_MAX_ITERS iterations unconverged.

    Returns [(best, residual, maximiser on the free entries)] per row."""
    out = (_block_eigen(A, w, free, coords) if order == 1
           else [None] * len(free))
    return [solved if solved is not None
            else _eigen_best_constant(A, row, w)
            for row, solved in zip(free, out)]


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


def _sum_terms(u, terms):
    """Summed values and gradients of ratio terms, each sum started as
    0.0 + its first term."""
    val = grad = None
    for term in terms:
        v, g = _term_value_grad(u, term)
        if grad is None:
            val, grad = 0.0 + v, 0.0 + g
        else:
            val += v
            grad += g
    return val, grad


def _ratio(u, num, den, low, a0, vanishing):
    """(num(u) - a0 low(u)) / sum of den(u), and its gradient.

    Terms are (ops, q, w) as in _term_value_grad; low is one too, or None
    for no lower-order term.  With a lower-order term the ratio is clamped
    at 0 where the numerator is not positive; a vanishing denominator gives
    `vanishing`.
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
    # g_n / val_d - val * g_d / val_d, in place on the owned term gradients
    g_n /= val_d
    g_d *= val
    g_d /= val_d
    g_n -= g_d
    return val, g_n


def _ratio_descent(zero_flat, cone, seed, num, den, low=None, a0=0.0,
                   vanishing=math.inf, starts=(), max_iters=300):
    """Multi-start projected normalized ascent on _ratio with Armijo steps.

    The starts are eight seeded standard-normal vectors, then `starts`.
    Returns (best value, residual of the projected gradient at the best
    point); (0, 0) when no start reaches a positive value.
    """
    rng = np.random.default_rng(seed)
    starts = ([rng.standard_normal(len(zero_flat)) for _ in range(8)]
              + [np.asarray(s, dtype=float) for s in starts])
    best_val, best_res = 0.0, 0.0
    for u0 in starts:
        u = _project(u0.copy(), zero_flat, cone)
        nrm = math.sqrt(u.dot(u))
        if nrm == 0:
            continue
        u /= nrm
        val, grad = _ratio(u, num, den, low, a0, vanishing)
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
            res = math.sqrt(g.dot(g))
            if res <= 1e-10 * max(1.0, abs(val)):
                break
            improved = False
            while step > 1e-12:
                cand = _project(u + step * g, zero_flat, cone)
                nc = math.sqrt(cand.dot(cand))
                if nc > 0:
                    cand /= nc
                    cval, cgrad = _ratio(cand, num, den, low, a0, vanishing)
                    if cval > val + 1e-14 * abs(val):
                        u, val, grad = cand, cval, cgrad
                        improved = True
                        step *= 1.3
                        break
                step *= 0.5
            if not improved:
                break
        if val > best_val:
            best_val, best_res = val, res
    return best_val, best_res


def validate_exponents(dim, m, k, p, p1):
    """Admissible (m, k, p, p1) combinations per the norm-equivalence lemma."""
    if not (0 <= k <= m - 1):
        raise CapacityError("need 0 <= k <= m-1")
    if p < 1:
        raise CapacityError("p must be >= 1")
    if not p1 > 0:
        raise CapacityError("p1 must be positive")
    if k == m - 1:
        return
    gap = (m - k - 1) * p
    if dim > gap:
        limit = dim * p / (dim - gap)
        if p1 > limit + 1e-12:
            raise CapacityError(
                f"p1={p1} outside (0, {limit:.4g}] for N>(m-k-1)p")
    elif dim == gap and p1 == math.inf:
        raise CapacityError("p1 must be finite for N=(m-k-1)p")


def _solve(constraints: ConstraintSet, grid_level: int, dim: int, num,
           den_terms, seed: int, a0: float, poly_degree: int | None,
           max_iters: int):
    """The one constrained-ratio solve behind the capacity entry points:
    sup (num(u) - a0 ||grad^o u||_q) / sum of the other den_terms over the
    admissible class, where (o, q) = den_terms[0] moves to the numerator
    when a0 > 0 (a0 = 0: every (order, q) of den_terms is below).  num is
    a ratio term.

    - A lattice too coarse for the highest order of den_terms raises
      CapacityError (check_grid_level), before any mask is read.
    - An all-zero mask is saturated: (0, 0, "saturated", "saturated").
    - An admissible polynomial below the lowest order of the terms below
      (and, with a0 > 0, below the moved order first) with a positive
      numerator (_unbounded_witness) makes the ratio unbounded:
      (inf, 0, "kernel-element", note), note "kernel-element" when the
      witness also kills the moved term, "A0-too-small" otherwise.
    - An all-quadratic cone-free ratio is one eigensolve of the summed
      forms; with a0 > 0 its maximiser is a start of the ascent.
    - Otherwise _ratio_descent runs from the starts and the polynomials to
      degree poly_degree (None: none), max_iters steps per start; past the
      witness search a vanishing denominator counts as 0 when a0 > 0.

    Returns (best, residual, solver, note)."""
    order = max(o for o, _ in den_terms)
    check_grid_level(grid_level, order)
    m_cells = 2**grid_level
    hN = (1.0 / m_cells) ** dim
    zero = constraints.zero_mask((m_cells,) * dim).reshape(-1)
    if zero.all():
        return 0.0, 0.0, "saturated", "saturated"
    note = _unbounded_note(constraints, m_cells, dim, num, den_terms, a0)
    if note is not None:
        return math.inf, 0.0, "kernel-element", note

    fixed = a0 > 0.0
    below = den_terms[1:] if fixed else den_terms
    low = _unit_term(m_cells, dim, *den_terms[0]) if fixed else None
    starts = []
    if _quadratic(num, den_terms, constraints.cone):
        best, res, vec = _pencil_best_constants(
            _summed_form(m_cells, dim, den_terms), hN, ~zero[None],
            _lattice_coords(m_cells, dim), order)[0]
        if not fixed:
            return best, res, "eigen-exact", ""
        u0 = np.zeros(len(zero))
        u0[~zero] = vec
        starts.append(u0)
    if poly_degree is not None:
        starts += list(_poly_basis(m_cells, dim, poly_degree).T)
    den = [_unit_term(m_cells, dim, o, q) for o, q in below]
    best, res = _ratio_descent(zero, constraints.cone, seed, num, den,
                               low=low, a0=a0,
                               vanishing=0.0 if fixed else math.inf,
                               starts=starts, max_iters=max_iters)
    return best, res, "descent", ""


def _unbounded_note(constraints: ConstraintSet, m_cells: int, dim: int, num,
                    den_terms, a0: float) -> str | None:
    """_solve's unboundedness rule: None when _unbounded_witness finds no
    admissible polynomial below the lowest order of the terms below (and,
    with a0 > 0, below the moved order first) with a positive numerator;
    otherwise the note, "kernel-element" when the witness also kills the
    moved term and "A0-too-small" when not."""
    fixed = a0 > 0.0
    below = den_terms[1:] if fixed else den_terms
    low = _unit_term(m_cells, dim, *den_terms[0]) if fixed else None
    degrees = {min(o for o, _ in below) - 1}
    if fixed:
        degrees.add(den_terms[0][0] - 1)
    witness = _unbounded_witness(constraints, m_cells, dim,
                                 sorted(d for d in degrees if d >= 0),
                                 num, low, a0)
    if witness is None:
        return None
    killed = low is None or _term_value_grad(witness, low)[0] < 1e-8
    return "kernel-element" if killed else "A0-too-small"


def _quadratic(num, den_terms, cone: bool) -> bool:
    """Whether the ratio is all-quadratic and cone-free: a plain L2
    numerator over gradient L2 terms, solved as one eigenproblem."""
    return num[0] is None and not cone and all(
        abs(q - 2) < 1e-12 for q in [num[1]] + [q for _, q in den_terms])


def _summed_form(m_cells: int, dim: int, den_terms) -> sp.csr_matrix:
    """Sum of the unit-lattice quadratic forms of the orders of den_terms
    (the one cached form for a single term)."""
    S = None
    for order, _ in den_terms:
        term = quadratic_form(m_cells, dim, order)
        S = term if S is None else S + term
    return S.tocsr()


def _lattice_coords(m_cells: int, dim: int) -> np.ndarray:
    """Integer coordinates of the m_cells^dim lattice cells, one row per
    cell in C order."""
    return np.indices((m_cells,) * dim).reshape(dim, -1).T


def _capacity_result(flavor, m, k, p, p1, A0, grid_level, dim, seed, best,
                     res, solver, note, clamp_note) -> CapacityResult:
    """CapacityResult of a solve: capacity best^-p, +inf when no value is
    positive (note clamp_note unless the solve set one), 0 when unbounded."""
    if best <= 0:
        note = note or clamp_note
    return CapacityResult(
        flavor=flavor, m=m, k=k, p=p, p1=p1, alpha_A0=A0, best_constant=best,
        capacity=best ** (-p) if best > 0 else math.inf, solver=solver,
        residual=res, grid_level=grid_level, dim=dim, seed=seed, note=note)


def _gamma_den(m: int, k: int, p: float, p1: float):
    """Denominator terms of the gamma flavour: one ||grad^m u||_p when
    k + 1 = m and p1 = p, else ||grad^(k+1) u||_p1 and ||grad^m u||_p."""
    if k + 1 == m and abs(p1 - p) < 1e-12:
        return [(m, p)]
    return [(k + 1, p1), (m, p)]


def gamma_capacity(constraints: ConstraintSet, m: int, k: int, p: float,
                   p1: float, grid_level: int, dim: int,
                   seed: int = 0) -> CapacityResult:
    """Best-constant capacity for the two-seminorm-sum Poincaré inequality."""
    validate_exponents(dim, m, k, p, p1)
    den = _gamma_den(m, k, p, p1)
    best, res, solver, note = _solve(
        constraints, grid_level, dim, _unit_term(2**grid_level, dim, 0, p),
        den, seed, 0.0, min(k + 1, 3), 300)
    # saturated and unbounded classes report the exact solver
    solver = "descent" if solver == "descent" else "eigen-exact"
    return _capacity_result("gamma", m, k, p, p1, 0.0, grid_level, dim, seed,
                            best, res, solver, note, "saturated")


def gamma_capacities(constraint_sets, m: int, k: int, p: float, p1: float,
                     grid_level: int, dim: int,
                     seed: int) -> list[CapacityResult]:
    """gamma_capacity of each constraint set, with every class that is an
    eigensolve (all-quadratic, cone free, bounded, not saturated) solved in
    one _pencil_best_constants call; each of the others is one
    gamma_capacity call.  A class's result does not depend on the other
    classes: it has the bits of its own gamma_capacity."""
    validate_exponents(dim, m, k, p, p1)
    check_grid_level(grid_level, m)
    m_cells = 2**grid_level
    num = _unit_term(m_cells, dim, 0, p)
    den = _gamma_den(m, k, p, p1)
    block = [i for i, cs in enumerate(constraint_sets)
             if _quadratic(num, den, cs.cone)
             and not cs.zero_mask((m_cells,) * dim).all()
             and _unbounded_note(cs, m_cells, dim, num, den, 0.0) is None]
    solved = {}
    if block:
        free = np.array([~constraint_sets[i].K.reshape(-1) for i in block])
        solved = dict(zip(block, _pencil_best_constants(
            _summed_form(m_cells, dim, den), (1.0 / m_cells) ** dim, free,
            _lattice_coords(m_cells, dim), m)))
    return [_capacity_result("gamma", m, k, p, p1, 0.0, grid_level, dim,
                             seed, solved[i][0], solved[i][1], "eigen-exact",
                             "", "saturated") if i in solved
            else gamma_capacity(cs, m, k, p, p1, grid_level, dim, seed)
            for i, cs in enumerate(constraint_sets)]


def theta_capacity(constraints: ConstraintSet, m: int, k: int, p: float,
                   p1: float, A0: float, grid_level: int, dim: int,
                   seed: int) -> CapacityResult:
    """Best-constant capacity for the fixed-A0 Poincaré inequality."""
    validate_exponents(dim, m, k, p, p1)
    if A0 <= 0:
        raise CapacityError("A0 must be positive")
    best, res, _, note = _solve(
        constraints, grid_level, dim, _unit_term(2**grid_level, dim, 0, p),
        [(k + 1, p1), (m, p)], seed, A0, None, 300)
    return _capacity_result("theta", m, k, p, p1, A0, grid_level, dim, seed,
                            best, res, "descent", note, "numerator-clamped")


def ratio_best_constant(constraints: ConstraintSet, grid_level: int, dim: int,
                        num_spec, den_terms, seed: int, a0: float = 0.0):
    """General constrained ratio maximization on the unit-cube lattice.

    num_spec = (order, q): numerator ||grad^order u||_q (order 0: plain norm).
    den_terms = [(order, q), ...]: denominator sum of gradient norms.
    a0 > 0 switches to the fixed-constant form: the first denominator term is
    moved to the numerator as -a0*||.|| (clamped at zero) and the remaining
    terms stay below.

    Returns (best, residual, solver) of _solve, its solver label
    "saturated" or "kernel-element" for the classes it does not solve.
    """
    best, res, solver, _ = _solve(
        constraints, grid_level, dim,
        _unit_term(2**grid_level, dim, *num_spec), den_terms, seed, a0, 2,
        300)
    return best, res, solver


def _holder_operator(m_cells: int, dim: int, h_order: int,
                     lam: float) -> sp.csr_matrix:
    """Sparse stack of the rows (D^a u(x) - D^a u(y)) / |x - y|^lam on the
    unit lattice, over the distinct |a| = h_order (outer) and the pairs of
    `norms._holder_pairs` (inner) among the anchors where every order-h
    difference is defined, the (m_cells - h_order)^dim corner window: its
    l-infinity norm is the grid Hölder quotient."""
    h_c = 1.0 / m_cells
    window = (slice(0, m_cells - h_order),) * dim
    cells = np.arange(m_cells**dim).reshape((m_cells,) * dim)[window]
    cells = cells.reshape(-1)
    pairs = list(_holder_pairs((m_cells - h_order,) * dim))
    rows = []
    for _, op in gradient_form_ops(m_cells, dim, h_order):
        for x, y, dist_cells in pairs:
            rows.append((op[cells[x]] - op[cells[y]])
                        / (dist_cells * h_c) ** lam)
    return sp.vstack(rows, format="csr")


def holder_ratio_best_constant(constraints: ConstraintSet, grid_level: int,
                               dim: int, h_order: int, lam: float,
                               den_terms, seed: int):
    """Best constant of the pointwise-Hölder-quotient Poincaré inequality on
    the unit lattice: sup of the order-h quotient with exponent lam (pairs
    up to norms.HOLDER_RADIUS_CELLS cells apart) over the admissible class
    against the usual gradient-sum denominator.

    The numerator is the l-infinity term of `_holder_operator`, so the
    ratio-core ascent is a projected subgradient ascent; it runs
    HOLDER_MAX_ITERS steps per start.  Returns (best, residual, solver).
    """
    check_grid_level(grid_level, h_order)
    ops = _with_transposes([(1, _holder_operator(2**grid_level, dim, h_order,
                                                 lam))])
    best, res, solver, _ = _solve(
        constraints, grid_level, dim, (ops, math.inf, 1.0),
        den_terms, seed, 0.0, 2, HOLDER_MAX_ITERS)
    return best, res, solver


class _PolyComplement:
    """u -> u - Q Q^T u for Q with orthonormal columns: the projection off
    their span.  It is symmetric, so its ratio-term triple carries it as
    its own transpose.  Like the `_Matvec` handles of the sparse terms it
    is a bare `@`: a scipy LinearOperator would do, but its argument checks
    cost 21-24% of a Poincaré solve (best of 4, dims 1-3, 2-core x86 VM)."""

    def __init__(self, Q: np.ndarray):
        self.Q, self.QT = Q, Q.T

    def __matmul__(self, u):
        return u - self.Q @ (self.QT @ u)


def poincare_constant(dim: int, order: int, p: float, p1: float,
                      grid_level: int) -> float:
    """Unconstrained order-gradient Poincaré constant of the unit cube:
    sup ||u - proj_poly u||_p / ||grad^order u||_p1 with the L2 projection
    onto polynomials of degree < order.  Used for the default theta A0.

    At p = p1 = 2 it is eigenvalue d (from 0) of the pencil (S, hN I), S
    vanishing on the d polynomials below the order, by shift-invert
    Lanczos at sigma = -1 on the symmetric-mode factor of the SPD S + hN I
    (3-D grid level 4, 4096 cells: 0.13-0.6 s and little memory against
    15 s and 608 MiB dense, 2-core x86 VM; at 2-D grid 4 both take about
    7 ms and agree to 1.5e-11).  A lattice of at most d + 1 cells, where
    ARPACK cannot find d + 1 eigenpairs, is solved densely.  The 3-D
    order-3 value at grid level 4 is resolved only to about 3e-10
    relative: the dense pencil, the shift-invert route and the pencil
    restricted to the orthogonal complement of the polynomials give
    0.011104987943039851, 0.01110498794236078 and 0.011104987945348664; at
    grid level 3 they agree within 5e-12.  The Lanczos start is seeded:
    the constant vector lies in the null space of S and would start it in
    an invariant subspace; a null eigenvalue it misses raises
    CapacityError.  Otherwise the ratio-core ascent (seed 0) maximises
    ||P u||_p / ||grad^order u||_p1 with P the projection (a vanishing
    denominator counts as 0)."""
    m_cells = 2**grid_level
    hN = (1.0 / m_cells) ** dim
    B = _poly_basis(m_cells, dim, order - 1)
    n, d = B.shape
    if abs(p - 2) < 1e-12 and abs(p1 - 2) < 1e-12:
        S = quadratic_form(m_cells, dim, order)
        if n <= d + 1:
            lam = scipy.linalg.eigh(S.toarray(), hN * np.eye(n),
                                    subset_by_index=[d, d],
                                    eigvals_only=True)[0]
        else:
            M = hN * sp.identity(n, format="csc")
            try:
                lams = spla.eigsh(
                    S, k=d + 1, M=M, sigma=-1.0, which="LM",
                    v0=np.random.default_rng(0).standard_normal(n),
                    OPinv=_symmetric_inverse((S + M).tocsc()),
                    return_eigenvectors=False)
            except spla.ArpackNoConvergence as exc:
                raise CapacityError(f"eigensolve failed: {exc}") from exc
            lams = np.sort(lams)
            lam = lams[d]
            # a copy of the null space that Lanczos missed would shift
            # index d onto a larger eigenvalue
            if abs(lams[d - 1]) > 1e-8 * lam:
                raise CapacityError(
                    f"eigensolve missed a null eigenvalue: value {d - 1} is "
                    f"{lams[d - 1]:.3g} beside {lam:.3g}")
        return math.sqrt(1.0 / max(lam, 1e-300))

    Qb, _ = np.linalg.qr(B)
    proj = _PolyComplement(Qb)
    best, _ = _ratio_descent(np.zeros(n, dtype=bool), False, 0,
                             ([(1, proj, proj)], p, hN),
                             [_unit_term(m_cells, dim, order, p1)],
                             vanishing=0.0)
    return best


def default_theta_a0(dim: int, k: int, p1: float, grid_level: int) -> float:
    """Twice the unconstrained (k+1)-gradient Poincaré constant."""
    return 2.0 * poincare_constant(dim, k + 1, p1, p1, min(grid_level, 4))


def norm_equivalence_constant(q_sub_corner, q_sub_side: float, m: int, k: int,
                              p: float, p1: float, grid_level: int,
                              dim: int, seed: int) -> float:
    """Probe-estimated smallest A with

        ||grad^(k+1) u||_Lp1(Q0) <= A (||grad^(k+1) u||_Lp1(Q) +
                                        ||grad^m u||_Lp(Q0))

    over polynomials to degree m and 24 seeded random smooth fields, for a
    subcube Q at q_sub_corner (unit coordinates) with side q_sub_side >= 2
    cells.
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

    ops_low = _with_transposes(gradient_form_ops(m_cells, dim, k + 1))
    ops_top = _with_transposes(gradient_form_ops(m_cells, dim, m))
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
    for _ in range(24):
        coef = rng.standard_normal((3,) * dim + (2,))
        f = np.zeros((m_cells,) * dim)
        for freq in product(range(3), repeat=dim):
            phase = sum(freq[a] * grids[a] for a in range(dim))
            f += coef[freq + (0,)] * np.cos(2 * math.pi * phase)
            f += coef[freq + (1,)] * np.sin(2 * math.pi * phase)
        probes.append(f.reshape(-1))

    worst = 0.0
    for u in probes:
        lhs = _term_value_grad(u, (ops_low, p1, hN))[0]
        rhs = _term_value_grad(u, (ops_low, p1, sub_weight))[0] \
            + _term_value_grad(u, (ops_top, p, hN))[0]
        if rhs < 1e-12 * max(lhs, 1.0):
            continue
        worst = max(worst, lhs / rhs)
    return worst

