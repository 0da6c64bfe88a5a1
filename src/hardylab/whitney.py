"""Whitney decompositions of raster domains, enlarged cubes, and summation.

A cube at dyadic level k has side 2^-k and occupies a block of grid cells.
The two Whitney size conditions are enforced at grid resolution with the
complement measured center-to-center by the distance field:

    sqrt(N) * (side - h) <= min_{cells c in Q} distance(c)   (lower bound)
    min_{cells c in Q} distance(c) <= 4 * sqrt(N) * side     (upper bound)

The lower bound is the continuum condition diam Q <= dist(complement, Q)
with both sides resolved on the cell-center lattice: the grid can locate the
complement only to within one cell diagonal, and the corresponding slack is
exactly what lets single-cell cubes tile the boundary skin so the cover is
exact.  Construction is top-down and deterministic: a cube is accepted at
the coarsest level where it is all-inside and satisfies the lower bound.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from .grids import GridDomain, bounding_box
from ._util import fixed_order_sum


class WhitneyError(RuntimeError):
    """Degenerate raster: no admissible cube exists."""


def _box_corners(start: np.ndarray, stop: np.ndarray):
    """(index, sign) over the 2^N corners of the half-open boxes [start,
    stop) (one row per box) on the (n+1)^N prefix-sum lattice: a box sum
    is the signed sum of the prefix sums at its corners."""
    dim = start.shape[1]
    stop = np.maximum(stop, start)
    for corner in product((0, 1), repeat=dim):
        idx = tuple(stop[:, a] if c else start[:, a]
                    for a, c in enumerate(corner))
        yield idx, -1 if (dim - sum(corner)) % 2 else 1


def _prefix_sums(table: np.ndarray) -> np.ndarray:
    """Cumulate a zero-padded (n+1)^N table in place along every axis, so
    table[i] becomes the sum of the field over the cells below i (a
    summed-area table, Crow 1984)."""
    for ax in range(table.ndim):
        np.cumsum(table, axis=ax, out=table)
    return table


def summed_area_table(field: np.ndarray) -> np.ndarray:
    """The summed-area table of a cell field on the (n+1)^N prefix-sum
    lattice.  Boolean and integer fields are summed in int64, so box sums
    are exact counts.  Float fields are summed in np.longdouble (80-bit on
    x86-64, plain float64 on some platforms): a box sum is a difference of
    prefix sums much larger than itself, and the extra bits keep it within
    a few ulps of a direct slice sum."""
    kind = np.int64 if field.dtype.kind in "biu" else np.longdouble
    table = np.zeros(tuple(s + 1 for s in field.shape), dtype=kind)
    table[(slice(1, None),) * field.ndim] = field
    return _prefix_sums(table)


def _box_sums(table: np.ndarray, start: np.ndarray,
              stop: np.ndarray) -> np.ndarray:
    """Per box, the field's sum over [start, stop), read from its
    summed-area table at the 2^N corners of the box."""
    total = np.zeros(len(start), dtype=table.dtype)
    for idx, sign in _box_corners(start, stop):
        total += sign * table[idx]
    return total


def box_scatter(shape: tuple, start: np.ndarray, stop: np.ndarray,
                values: np.ndarray) -> np.ndarray:
    """The grid field summing values[i] over the boxes [start[i], stop[i])
    holding each cell: signed updates at the 2^N corners of every box, then
    one N-D cumulative sum.  Integer values are scattered in int64 (exact),
    float values in np.longdouble, as in WhitneyDecomposition.rq_sums."""
    dim = len(shape)
    kind = np.int64 if values.dtype.kind in "biu" else np.longdouble
    table = np.zeros(tuple(s + 1 for s in shape), dtype=kind)
    values = values.astype(kind)
    # a box's lower corner carries +values: the box-sum signs times (-1)^N
    flip = -1 if dim % 2 else 1
    for idx, sign in _box_corners(start, stop):
        np.add.at(table, idx, sign * flip * values)
    field = _prefix_sums(table)[(slice(0, -1),) * dim]
    return field if kind is np.int64 else field.astype(np.float64)


class WhitneyDecomposition:
    """Set of accepted dyadic cubes with their enlarged cubes.

    Per-cube data is only arrays indexed by cube: ``levels``, ``coords``
    (with ``sides()``, ``diams()``); ``rq_center``, ``rq_side`` of R_Q
    (centered at the nearest outside cell center, smallest side covering
    the cube) and its lower corner ``rq_origin``, so ``(x - rq_origin) /
    rq_side`` maps R_Q onto the unit cube; ``rq_first``/``rq_last``, per
    axis the first and last cell whose center lies in closed R_Q
    (unclipped), and ``rq_start``/``rq_stop``, that range clipped to the
    box as half-open bounds; ``dist_min``/``dist_max``, the extremes of the
    distance field over the cube's cells.  ``gs_tables`` holds the results
    of dimension.g_s per s, so each G_s table is built once per
    decomposition.
    """

    def __init__(self, domain: GridDomain, levels: np.ndarray, coords: np.ndarray):
        self.domain = domain
        self.levels = levels
        self.coords = coords
        self.n_cubes = len(levels)
        self._build_owner_map()
        self._build_enlarged()
        self._touch_pairs = None
        self.gs_tables = {}

    # -- construction helpers ------------------------------------------------

    def _blocks(self, arr: np.ndarray, k: int, ids: np.ndarray):
        """(view, index) with view[index] the cell blocks of cubes ids, all
        at level k: axes (cube, local cell per axis), C order in a block."""
        m = 2 ** (self.domain.level - k)
        view = arr.reshape((2**k, m) * self.domain.dim)
        index = tuple(ix for a in range(self.domain.dim)
                      for ix in (self.coords[ids, a], slice(None)))
        return view, index

    def _build_owner_map(self):
        dom = self.domain
        dim = dom.dim
        owner = np.full(dom.shape, -1, dtype=np.int64)
        cells = 0
        for k in self.populated_levels():
            ids = self.cubes_at_level(k)
            view, index = self._blocks(owner, k, ids)
            view[index] = ids.reshape((-1,) + (1,) * dim)
            cells += len(ids) * 2 ** ((dom.level - k) * dim)
        # cubes are disjoint exactly when they own as many cells as they hold
        if int(np.count_nonzero(owner >= 0)) != cells:
            raise WhitneyError("overlapping cubes in decomposition")
        self.owner = owner

    def _build_enlarged(self):
        dom = self.domain
        h = dom.h
        dim = dom.dim
        n = 2**dom.level
        # nearest[:, idx] is the nearest outside cell (padded indices).
        cell = np.zeros((self.n_cubes, dim), dtype=np.int64)
        dist_min = np.zeros(self.n_cubes)
        dist_max = np.zeros(self.n_cubes)
        for k in self.populated_levels():
            ids = self.cubes_at_level(k)
            m = 2 ** (dom.level - k)
            view, index = self._blocks(dom.distance, k, ids)
            block = view[index].reshape(len(ids), -1)
            flat = np.argmin(block, axis=1)  # C-order: lexicographic tie-break
            dist_min[ids] = block[np.arange(len(ids)), flat]
            dist_max[ids] = block.max(axis=1)
            local = np.stack(np.unravel_index(flat, (m,) * dim), axis=1)
            cell[ids] = self.coords[ids] * m + local
        near = dom.nearest[(slice(None),)
                           + tuple(cell[:, a] + 1 for a in range(dim))].T
        x0 = (near - 1 + 0.5) * h
        side_q = self.sides()
        lo = self.coords * side_q[:, None]
        hi = lo + side_q[:, None]
        reach = np.maximum(np.abs(lo - x0), np.abs(hi - x0)).max(axis=1)
        self.rq_center = x0
        self.rq_side = 2.0 * reach
        self.rq_origin = self.rq_center - self.rq_side[:, None] / 2.0
        self.dist_min = dist_min
        self.dist_max = dist_max
        # cells whose centers lie in closed R_Q
        eps = 1e-9 * h
        rq_hi = self.rq_center + self.rq_side[:, None] / 2.0
        self.rq_first = np.ceil((self.rq_origin + eps) / h - 0.5).astype(np.int64)
        self.rq_last = np.floor((rq_hi - eps) / h - 0.5).astype(np.int64)
        self.rq_start = np.maximum(self.rq_first, 0)
        self.rq_stop = np.minimum(self.rq_last, n - 1) + 1

    def rq_sums(self, weight: np.ndarray) -> np.ndarray:
        """Per-cube sums of a cell field over the cells of closed R_Q.

        One summed-area table (summed_area_table: int64 for boolean and
        integer fields, so counts are exact; np.longdouble for floats) and
        2^N corner lookups per cube.  Callers integrating over R_Q ∩ Ω pass
        a field that is zero outside.
        """
        total = _box_sums(summed_area_table(weight), self.rq_start,
                          self.rq_stop)
        return total if total.dtype == np.int64 else total.astype(np.float64)

    def rq_scatter(self, values: np.ndarray) -> np.ndarray:
        """The cell field F(x) = sum of values[Q] over the cubes Q whose
        closed R_Q holds the center of cell x: the adjoint of rq_sums, so
        sum(F * g) = sum(values * rq_sums(g))."""
        return box_scatter(self.domain.shape, self.rq_start, self.rq_stop,
                           values)

    def rq_distance_integrals(self, s: float) -> np.ndarray:
        """Per-cube integral over R_Q ∩ Ω of delta^-s dx (cell sums; inside
        cells sit at delta >= h/2); complement cells count at no s, so
        s = 0 gives |R_Q ∩ Ω|.

        The powers of the inside distances are written straight into the
        long-double summed-area table, with no weight field and no copy;
        the cumulative sums and corner lookups are rq_sums', so the result
        has the bits of rq_sums on the zero-extended weight field.  The
        table covers only the inside's bounding box (grids.bounding_box,
        no ring) and the R_Q bounds are clamped into it: beyond the box
        the full table's cumulative sums add only exact zeros, so each
        clamped corner holds the full table's value."""
        dom = self.domain
        lo, hi = bounding_box(dom.inside, 0)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        inside = dom.inside[box]
        table = np.zeros(tuple(hi - lo + 1), dtype=np.longdouble)
        table[(slice(1, None),) * dom.dim][inside] = \
            dom.distance[box][inside] ** (-s)
        total = _box_sums(_prefix_sums(table),
                          np.clip(self.rq_start - lo, 0, hi - lo),
                          np.clip(self.rq_stop - lo, 0, hi - lo))
        return total.astype(np.float64) * dom.h**dom.dim

    # -- per-cube arrays ---------------------------------------------------------

    def sides(self) -> np.ndarray:
        """Side lengths of all cubes."""
        return 2.0 ** (-self.levels.astype(float))

    def diams(self) -> np.ndarray:
        """Diameters of all cubes."""
        return math.sqrt(self.domain.dim) * self.sides()

    # -- index structures -------------------------------------------------------

    def touching_pairs(self) -> np.ndarray:
        """Pairs (i, j), i<j, of cubes whose closed cubes intersect.

        Two cubes touch exactly when one owns a cell that is a face, edge or
        corner neighbour of a cell of the other, so the pairs are read off
        the owner map shifted by each half of the 3^N - 1 neighbour offsets.
        """
        if self._touch_pairs is not None:
            return self._touch_pairs
        dim = self.domain.dim
        owner = self.owner
        codes = []
        for off in product((-1, 0, 1), repeat=dim):
            if off <= (0,) * dim:
                continue  # the opposite offset sees the same pairs
            a = owner[tuple(slice(max(-o, 0), owner.shape[ax] - max(o, 0))
                            for ax, o in enumerate(off))]
            b = owner[tuple(slice(max(o, 0), owner.shape[ax] - max(-o, 0))
                            for ax, o in enumerate(off))]
            hit = (a >= 0) & (b >= 0) & (a != b)
            a, b = a[hit], b[hit]
            codes.append(np.minimum(a, b) * self.n_cubes + np.maximum(a, b))
        codes = np.unique(np.concatenate(codes))
        self._touch_pairs = np.stack(
            [codes // self.n_cubes, codes % self.n_cubes], axis=1)
        return self._touch_pairs

    def populated_levels(self) -> list[int]:
        return [int(k) for k in np.unique(self.levels)]

    def cubes_at_level(self, k: int) -> np.ndarray:
        return np.nonzero(self.levels == k)[0]



def decompose(domain: GridDomain) -> WhitneyDecomposition:
    """Deterministic top-down Whitney decomposition of a raster domain.

    Raises WhitneyError when the raster admits no cube at any level (e.g. an
    inside mask with no cells).
    """
    if not domain.inside.any():
        raise WhitneyError("degenerate raster: no inside cells")
    dim, L = domain.dim, domain.level
    h = domain.h
    root_n = math.sqrt(dim)

    # Min-pyramids over delta and inside flags, indexed by cube level.
    dmin = {L: domain.distance}
    iall = {L: domain.inside}
    iany = {L: domain.inside}
    for k in range(L - 1, -1, -1):
        dmin[k] = _pool(dmin[k + 1], np.minimum)
        iall[k] = _pool(iall[k + 1], np.logical_and)
        iany[k] = _pool(iany[k + 1], np.logical_or)

    levels_out: list[np.ndarray] = []
    coords_out: list[np.ndarray] = []
    cand = np.zeros((1, dim), dtype=np.int64)
    for k in range(0, L + 1):
        if len(cand) == 0:
            break
        idx = tuple(cand[:, a] for a in range(dim))
        has_any = iany[k][idx]
        cand = cand[has_any]
        if len(cand) == 0:
            break
        idx = tuple(cand[:, a] for a in range(dim))
        side = 2.0 ** (-k)
        ok = iall[k][idx] & (dmin[k][idx] >= root_n * (side - h) - 1e-12 * h)
        accepted = cand[ok]
        if len(accepted):
            levels_out.append(np.full(len(accepted), k, dtype=np.int64))
            coords_out.append(accepted)
        rest = cand[~ok]
        if k == L or len(rest) == 0:
            cand = np.zeros((0, dim), dtype=np.int64)
            continue
        # children of every non-accepted cube
        offs = np.stack(
            np.meshgrid(*([np.arange(2)] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        cand = (rest[:, None, :] * 2 + offs[None, :, :]).reshape(-1, dim)

    if not levels_out:
        raise WhitneyError("no cube at any admissible level satisfies (6.1)")
    levels = np.concatenate(levels_out)
    coords = np.concatenate(coords_out)
    order = np.lexsort(tuple(coords[:, a] for a in range(dim - 1, -1, -1)) + (levels,))
    return WhitneyDecomposition(domain, levels[order], coords[order])


def _pool(arr: np.ndarray, op) -> np.ndarray:
    out = arr
    for ax in range(arr.ndim):
        n = out.shape[ax]
        shape = out.shape[:ax] + (n // 2, 2) + out.shape[ax + 1 :]
        view = out.reshape(shape)
        out = op(np.take(view, 0, axis=ax + 1), np.take(view, 1, axis=ax + 1))
    return out


def intersection_cutoff(dim: int) -> float:
    """Largest diameter ratio an enlarged-cube intersection allows: 5*sqrt(N)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return 5.0 * math.sqrt(dim)


@lru_cache(maxsize=None)
def packing_constant(dim: int) -> int:
    """Count of same-level lattice cubes whose enlarged cube can meet a fixed
    cube: lattice cells of side 1 meeting the ball of radius (10 + 5/2)*sqrt(N).

    Computed by enumeration from the radius bound in the summation lemma's
    volume argument, not hard-coded.
    """
    radius = (10.0 + 2.5) * math.sqrt(dim)
    reach = int(math.ceil(radius)) + 1
    rng = range(-reach, reach)
    grids = np.meshgrid(*([np.array(list(rng))] * dim), indexing="ij")
    d2 = sum(np.maximum(np.abs(g + 0.5) - 0.5, 0.0) ** 2 for g in grids)
    return int((d2 <= radius**2).sum())


def summation_lemma_ratio(decomp: WhitneyDecomposition, f, s: float):
    """Both sides of the Whitney summation bound for a nonnegative function.

    lhs = sum_Q (diam Q)^-s * integral_{R_Q} f * delta^s dx  (cell sums,
          one summed-area table for all cubes)
    rhs_bound = packing_constant(N) / (1 - 2^-s) * integral f dx

    Returns (lhs, rhs_bound).  Requires s > 0, f >= 0, and f = 0 outside.
    """
    if s <= 0:
        raise ValueError("the summation lemma requires s > 0")
    values = np.asarray(getattr(f, "values", f), dtype=float)
    dom = decomp.domain
    if values.shape != dom.shape:
        raise ValueError("function shape does not match the domain grid")
    if (values < 0).any():
        raise ValueError("f must be nonnegative")
    if (values[~dom.inside] != 0).any():
        raise ValueError("f must vanish on the complement")
    hN = dom.h**dom.dim
    delta_s = np.where(dom.inside, dom.distance, 0.0) ** s
    terms = decomp.diams() ** (-s) * decomp.rq_sums(values * delta_s) * hN
    lhs = fixed_order_sum(terms)
    total = float(values.sum()) * hN
    rhs = packing_constant(dom.dim) / (1.0 - 2.0 ** (-s)) * total
    return lhs, rhs


def _coarsest_levels(decomp: WhitneyDecomposition) -> np.ndarray:
    """Per cube Q, the coarsest level of the cubes owning a cell of R_Q.

    Level-k cubes are aligned blocks of b = 2^(L-k) cells, so R_Q holds a
    cell of one exactly when its cell range, rounded outward to whole
    blocks, holds a level-k block: one (2^k)^N summed-area table of the
    block grid per level, coarsest first, and no loop over cubes.  R_Q
    covers Q, so no range is empty."""
    dom = decomp.domain
    owner_level = np.where(decomp.owner >= 0,
                           decomp.levels[np.maximum(decomp.owner, 0)], -1)
    coarsest = np.full(decomp.n_cubes, -1, dtype=np.int64)
    for k in decomp.populated_levels():
        b = 2 ** (dom.level - k)
        blocks = owner_level[(slice(None, None, b),) * dom.dim] == k
        held = _box_sums(summed_area_table(blocks), decomp.rq_start // b,
                         -(-decomp.rq_stop // b))
        coarsest[(coarsest < 0) & (held > 0)] = k
    return coarsest


def check_decomposition(decomp: WhitneyDecomposition) -> dict:
    """Exhaustive verification of the grid forms of the Whitney conditions.

    Returns per-condition booleans plus the measured extremes; used by the
    acceptance suite and the property tests.  Every condition is an array
    test over cubes; the neighbour cutoff reads _coarsest_levels, one
    summed-area table per level on that level's block grid.
    """
    dom = decomp.domain
    h = dom.h
    root_n = math.sqrt(dom.dim)
    covered = decomp.owner >= 0
    cover_exact = bool((covered == dom.inside).all())

    side = decomp.sides()
    diam = decomp.diams()
    lower_ok = not (decomp.dist_min < root_n * (side - h) - 1e-9 * h).any()
    upper_ok = not (decomp.dist_min > 4.0 * root_n * side + 1e-9 * h).any()
    rq_ok = not (decomp.rq_side
                 > 10.0 * diam + 2.0 * root_n * h + 1e-9 * h).any()

    worst_ratio = 0.0
    pairs = decomp.touching_pairs()
    if len(pairs):
        d_i = diam[pairs[:, 0]]
        d_j = diam[pairs[:, 1]]
        ratios = np.maximum(d_i / d_j, d_j / d_i)
        worst_ratio = float(ratios.max())
    ratio_ok = worst_ratio <= 4.0 + 1e-12

    # diam Q' / diam Q = 2^(level Q - level Q'), so its largest value over
    # the cubes Q' with a cell in R_Q belongs to the coarsest such level
    cutoff = intersection_cutoff(dom.dim)
    coarsest = _coarsest_levels(decomp)
    worst_nbr = float((2.0 ** (decomp.levels - coarsest).astype(float)).max())
    nbr_ok = worst_nbr <= cutoff + 1e-12

    return {
        "cover_exact": cover_exact,
        "lower_bound_ok": lower_ok,
        "upper_bound_ok": upper_ok,
        "ratio_ok": ratio_ok,
        "worst_touch_ratio": worst_ratio,
        "enlarged_side_ok": rq_ok,
        "neighbor_cutoff_ok": nbr_ok,
        "worst_neighbor_ratio": worst_nbr,
        "n_cubes": decomp.n_cubes,
    }


def to_svg(decomp: WhitneyDecomposition, show_enlarged: bool) -> str:
    """SVG text of a 2-D decomposition (cubes, optional R_Q overlays)."""
    if decomp.domain.dim != 2:
        raise ValueError("SVG export requires a 2-D domain")
    size = 640.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 1 1">',
        '<rect x="0" y="0" width="1" height="1" fill="#f5f5f5"/>',
    ]
    kmax = int(decomp.levels.max())
    sides = decomp.sides()
    lo = decomp.coords * sides[:, None]
    shades = 230 - (150 * decomp.levels / max(kmax, 1)).astype(int)
    for side, (x, y), shade in zip(sides.tolist(), lo.tolist(),
                                   shades.tolist()):
        lines.append(
            f'<rect x="{x:.6f}" y="{1 - y - side:.6f}" width="{side:.6f}" '
            f'height="{side:.6f}" fill="rgb({shade},{shade},255)" '
            f'stroke="#333" stroke-width="0.0008"/>'
        )
    if show_enlarged:
        for s, (cx, cy) in zip(decomp.rq_side.tolist(),
                               decomp.rq_center.tolist()):
            lines.append(
                f'<rect x="{cx - s / 2:.6f}" y="{1 - cy - s / 2:.6f}" '
                f'width="{s:.6f}" height="{s:.6f}" fill="none" '
                f'stroke="#c04040" stroke-width="0.0008"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines)
