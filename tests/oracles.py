"""Reference computations the tests compare the package against: the
all-pairs boundary distance and the pointwise grid Hölder quotient, each
written as a plain scan, the difference fields at the anchors whose
stencil stays inside the box, the direct estimate's p = 2 form assembled
from padded-lattice operators, the equidistributed cube weights and the
Collatz-Wielandt bracket of an M-matrix pencil."""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from hardylab.capacity import difference_operator
from hardylab.hardy import LsWeightFunction
from hardylab.norms import (_differences, _holder_pairs, _weight_on_anchors,
                            distance_weight, multi_indices, multinomial)


def brute_force_distance(domain):
    """O(n^2) all-pairs distance oracle (includes the ring).

    Scans every outside cell center for every inside cell and applies the
    same interface offset as the GridDomain distance field.
    """
    h = domain.h
    padded = domain.padded_inside()
    coords = np.argwhere(~padded) - 1  # ring coords go to -1 / n
    out = np.zeros_like(domain.distance)
    inside_idx = np.argwhere(domain.inside)
    for idx in inside_idx:
        d2 = ((coords - idx) ** 2).sum(axis=1).min()
        out[tuple(idx)] = max(math.sqrt(float(d2)) * h - 0.5 * h, 0.5 * h)
    return out


def whole_grid_fields(u, order):
    """The difference fields of u on the whole grid and their weight
    index (norms._differences with the full grid as the block)."""
    dom = u.domain
    return _differences(u.values, order, dom.h, (0,) * dom.dim, dom.shape[0])


def interior_fields(u, order):
    """whole_grid_fields at the anchors whose order-j stencil reads only
    cells of the box, the anchors j..n-1 on every axis: the fields of u
    without its zero extension beyond the box."""
    fields, widx = whole_grid_fields(u, order)
    window = (slice(order, u.domain.shape[0]),) * u.domain.dim
    return ({alpha: f[window] for alpha, f in fields.items()},
            [idx[order:] for idx in widx])


def holder_quotient(u, h_order, lam, exponent=0.0, interior=False):
    """Pointwise Hölder quotient, grid form.

    sup over inside anchors x, distinct |alpha| = h_order, and the pairs
    (x, y) of `norms._holder_pairs` of |D^a u(x) - D^a u(y)| / |x-y|^lam *
    delta(x)^exponent.  The limsup of the continuum definition is replaced by this
    finite-neighborhood sup, with y up to HOLDER_RADIUS_CELLS cells from x.
    interior=True reads only the anchors of interior_fields.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda must lie in (0, 1]")
    dom = u.domain
    fields, widx = (interior_fields if interior else whole_grid_fields)(
        u, h_order)
    wfield = distance_weight(dom, exponent, widx).reshape(-1)
    inside_anchor = (_weight_on_anchors(dom.inside.astype(float), widx)
                     > 0.5).reshape(-1)
    shape = next(iter(fields.values())).shape
    pairs = list(_holder_pairs(shape))
    best = 0.0
    for f in fields.values():
        f = f.reshape(-1)
        for x, y, dist_cells in pairs:
            mask = inside_anchor[x]
            if not mask.any():
                continue
            dist = dist_cells * dom.h
            q = np.abs(f[x] - f[y]) / dist**lam * wfield[x]
            best = max(best, float(q[mask].max()))
    return best


def padded_pencil(domain, m, w_top):
    """sum over |alpha| = m of op^T diag(multinomial(alpha) w_top) op, op
    the order-m D^alpha of the whole lattice padded by m cells on every
    side with the columns of the inside cells (C order) sliced out of it;
    w_top holds one weight per anchor of the padded lattice."""
    n = 2**domain.level
    n_pad = n + 2 * m
    box = (slice(m, m + n),) * domain.dim
    cols = np.arange(n_pad**domain.dim).reshape((n_pad,) * domain.dim)[box]
    cols = cols[domain.inside]
    A = None
    for alpha in multi_indices(domain.dim, m):
        op = difference_operator(n_pad, alpha, domain.h, slice(None))[:, cols]
        term = op.T @ sp.diags(w_top * multinomial(alpha)) @ op
        A = term if A is None else A + term
    return A


def equidistributed(n_cubes, params):
    """The cube weights f(Q) = n^(-1/s), equal on every cube, with unit l^s
    norm (s the sequence exponent of params)."""
    s_seq = LsWeightFunction.sequence_exponent(params)
    return LsWeightFunction(np.full(n_cubes, n_cubes ** (-1.0 / s_seq)), s_seq)


def collatz_wielandt_bracket(A, w, v):
    """[lo, hi] around max sqrt(u^T W u / u^T A u), W = diag(w), for an
    irreducible M-matrix A (a connected weighted graph Laplacian plus a
    nonnegative diagonal, as every m = 1 lattice form is) and any v > 0:
    the Rayleigh quotient of v bounds the smallest eigenvalue from above,
    and min_i (A v)_i / (w_i v_i) bounds it from below.  Returns None when
    A's graph is disconnected, where one positive v cannot certify it."""
    if connected_components(A, directed=False)[0] > 1:
        return None
    w = np.broadcast_to(w, v.shape)
    Av = A @ v
    return (math.sqrt(float(v @ (w * v)) / float(v @ Av)),
            float(np.min(Av / (w * v))) ** -0.5)
