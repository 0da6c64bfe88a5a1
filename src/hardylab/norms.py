"""Discrete differential operators, weighted norms, and the Hölder pair rule.

Gradients are forward-difference tensors composed per coordinate.  The
stencils run over a lattice padded with virtual zeros (zero extension), so
boundary jumps of compactly supported functions contribute to the energy.
The pointwise gradient magnitude |grad^j u| is the Euclidean length over all
j-fold coordinate combinations (multinomial multiplicities on distinct
multi-indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .grids import GridDomain


@dataclass
class DiscreteFunction:
    """Grid function tied to a domain raster, in the compactly supported
    class: values are forced to zero on outside cells and the function
    continues by zero beyond the box.
    """

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.domain.shape:
            raise ValueError("values shape does not match domain grid")
        self.values = np.where(self.domain.inside,
                               np.asarray(self.values, dtype=float), 0.0)


def multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    """Distinct multi-indices of the given total order."""
    if order == 0:
        return [(0,) * dim]
    out = []
    for combo in product(range(order + 1), repeat=dim):
        if sum(combo) == order:
            out.append(combo)
    return out


def multinomial(alpha: tuple[int, ...]) -> int:
    j = sum(alpha)
    c = math.factorial(j)
    for a in alpha:
        c //= math.factorial(a)
    return c


def _differences(values: np.ndarray, order: int, h: float, start, n: int):
    """All distinct order-j forward-difference fields, scaled by h^-j, of a
    block of an n^dim grid whose first cell sits at index start[a] on axis
    a, on a common anchor lattice.

    Returns (fields dict alpha -> array, weight_index) where weight_index
    gives, per axis, the whole-grid cell index each anchor reads its weight
    from (clipped at the box for virtual anchors).
    """
    j = order
    if j == 0:
        idx = [np.arange(s, s + k) for s, k in zip(start, values.shape)]
        return {(0,) * values.ndim: values.copy()}, idx
    base = np.zeros(tuple(k + 2 * j for k in values.shape), dtype=values.dtype)
    base[(slice(j, -j),) * values.ndim] = values
    out = [k + j for k in values.shape]
    fields = {}
    for alpha in multi_indices(values.ndim, j):
        f = base
        for ax, a in enumerate(alpha):
            for _ in range(a):
                f = np.diff(f, axis=ax)
        f = f[tuple(slice(0, o) for o in out)]
        fields[alpha] = f / h**j
    widx = [np.minimum(np.maximum(np.arange(o) - j + s, 0), n - 1)
            for o, s in zip(out, start)]
    return fields, widx


def _weight_on_anchors(w: np.ndarray, widx) -> np.ndarray:
    out = w
    for ax, idx in enumerate(widx):
        out = np.take(out, idx, axis=ax)
    return out


# distance floor, in cells, of the weights the norms read: GridDomain puts
# every inside cell at delta >= h/2 already, so the floor acts only on the
# outside cells that difference anchors read
WEIGHT_FLOOR_CELLS = 0.5


def distance_weight(domain: GridDomain, exponent: float, anchors,
                    floor_cells: float = WEIGHT_FLOOR_CELLS) -> np.ndarray:
    """The lattice weight max(delta, floor_cells * h)^exponent on the cells
    of the box (anchors None) or read at difference anchors (a weight index
    of _differences): the one rule every floored weight goes through."""
    d = domain.distance
    if anchors is not None:
        d = _weight_on_anchors(d, anchors)
    return np.maximum(d, floor_cells * domain.h) ** exponent


def _magnitude(fields: dict) -> np.ndarray:
    acc = None
    for alpha, f in fields.items():
        term = multinomial(alpha) * f * f
        acc = term if acc is None else acc + term
    return np.sqrt(acc)


def gradient_magnitude(u: DiscreteFunction, order: int):
    """Pointwise |grad^j u| field and its anchor weight index."""
    dom = u.domain
    fields, widx = _differences(u.values, order, dom.h, (0,) * dom.dim,
                                dom.shape[0])
    return _magnitude(fields), widx


def _order_seminorms(values: np.ndarray, order: int, p: float, h: float,
                     start, n: int, weights) -> list[float]:
    """Per weight, (sum |grad^order v|^p * weight * dx)^(1/p) over the
    anchors of the block `values` (placed as in _differences), from one
    difference pass; each weight is a whole-grid field read at the anchors,
    None the unit weight."""
    fields, widx = _differences(values, order, h, start, n)
    terms = _magnitude(fields) ** p
    hN = h**values.ndim
    return [float((terms if w is None
                   else terms * _weight_on_anchors(w, widx)).sum() * hN)
            ** (1.0 / p) for w in weights]


def gradient_seminorm(u: DiscreteFunction, order: int, p: float,
                      exponent: float) -> float:
    """(sum |grad^j u|^p * delta^exponent * dx)^(1/p), the weight floored
    as distance_weight does; order 0 is the weighted L^p norm."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    dom = u.domain
    return _order_seminorms(u.values, order, p, dom.h, (0,) * dom.dim,
                            dom.shape[0],
                            [distance_weight(dom, exponent, None)])[0]


def block_seminorms(domain: GridDomain, block: np.ndarray, sl, m: int,
                    p: float, weights) -> list[list[float]]:
    """Per weight, gradient_seminorm for orders 0..m of the function equal
    to block on the box slice sl and zero elsewhere (masked to the domain
    like a DiscreteFunction), evaluated on sl grown by m cells.

    Each weight is a whole-grid weight field (distance_weight on the cells)
    or None, the unit weight; one difference pass per order serves them
    all.  Every nonzero anchor term equals gradient_seminorm's, so only the
    summation order differs.
    """
    n = domain.shape[0]
    grown = tuple(slice(max(s.start - m, 0), min(s.stop + m, n)) for s in sl)
    vals = np.zeros(tuple(g.stop - g.start for g in grown))
    vals[tuple(slice(s.start - g.start, s.stop - g.start)
               for s, g in zip(sl, grown))] = block
    vals = np.where(domain.inside[grown], vals, 0.0)
    start = tuple(g.start for g in grown)
    per_order = [_order_seminorms(vals, k, p, domain.h, start, n, weights)
                 for k in range(m + 1)]
    return [list(norms) for norms in zip(*per_order)]


def _pair_views(arr: np.ndarray, off):
    """Views (arr at x, arr at x+off) over the common valid anchor window."""
    dst_sl, src_sl = [], []
    for ax, o in enumerate(off):
        n = arr.shape[ax]
        dst_sl.append(slice(max(0, -o), n - max(0, o)))
        src_sl.append(slice(max(0, o), n - max(0, -o)))
    return arr[tuple(dst_sl)], arr[tuple(src_sl)]


# largest distance, in cells, of the pairs in a grid Hölder quotient
HOLDER_RADIUS_CELLS = 2


def _holder_pairs(shape):
    """The Hölder pair rule on an anchor array of this shape.  For each
    offset 0 < |off| <= HOLDER_RADIUS_CELLS, in product order, yields
    (x, y, |off|): the flat C-order indices of the anchors x (in C order)
    and y = x + off over all x for which both lie in the array."""
    r = HOLDER_RADIUS_CELLS
    cells = np.arange(math.prod(shape)).reshape(shape)
    for off in product(range(-r, r + 1), repeat=len(shape)):
        d2 = sum(o * o for o in off)
        if 0 < d2 <= r**2:
            x, y = _pair_views(cells, off)
            yield x.reshape(-1), y.reshape(-1), math.sqrt(d2)
