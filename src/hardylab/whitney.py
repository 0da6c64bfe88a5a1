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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .grids import GridDomain
from ._util import fixed_order_sum


class WhitneyError(RuntimeError):
    """Degenerate raster: no admissible cube exists."""


@dataclass(frozen=True)
class DyadicCube:
    level: int
    coords: tuple[int, ...]

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def diam(self) -> float:
        return math.sqrt(len(self.coords)) * self.side


class WhitneyDecomposition:
    """Set of accepted dyadic cubes with enlarged cubes and rescaling maps.

    Cube data is stored columnar: ``levels[i]``, ``coords[i]`` describe cube
    i; ``rq_center[i]``/``rq_side[i]`` its enlarged cube (centered at the
    nearest outside cell center, smallest side covering the cube);
    ``rq_start[i]``/``rq_stop[i]`` the per-axis cell index ranges of closed
    R_Q, clipped to the box; ``dist_min[i]``/``dist_max[i]`` the extremes
    of the distance field over the cube's cells.
    """

    def __init__(self, domain: GridDomain, levels: np.ndarray, coords: np.ndarray):
        self.domain = domain
        self.levels = levels
        self.coords = coords
        self.n_cubes = len(levels)
        self._build_owner_map()
        self._build_enlarged()
        self._neighbors = None
        self._touch_pairs = None

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
        from scipy import ndimage

        dom = self.domain
        h = dom.h
        dim = dom.dim
        n = 2**dom.level
        padded = dom.padded_inside()
        _, feat = ndimage.distance_transform_edt(
            padded, sampling=h, return_indices=True
        )
        # feat[:, idx] is the nearest outside cell (padded indices).
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
        near = feat[(slice(None),) + tuple(cell[:, a] + 1 for a in range(dim))].T
        x0 = (near - 1 + 0.5) * h
        side_q = self.sides()
        lo = self.coords * side_q[:, None]
        hi = lo + side_q[:, None]
        reach = np.maximum(np.abs(lo - x0), np.abs(hi - x0)).max(axis=1)
        self.rq_center = x0
        self.rq_side = 2.0 * reach
        self.dist_min = dist_min
        self.dist_max = dist_max
        # cells whose centers lie in closed R_Q, clipped to the box
        eps = 1e-9 * h
        rq_lo = self.rq_center - self.rq_side[:, None] / 2.0
        rq_hi = self.rq_center + self.rq_side[:, None] / 2.0
        start = np.ceil((rq_lo + eps) / h - 0.5).astype(np.int64)
        last = np.floor((rq_hi - eps) / h - 0.5).astype(np.int64)
        self.rq_start = np.maximum(start, 0)
        self.rq_stop = np.minimum(last, n - 1) + 1

    def rq_sums(self, weight: np.ndarray) -> np.ndarray:
        """Per-cube sums of a cell field over the cells of closed R_Q.

        One zero-padded N-D cumulative sum (a summed-area table, Crow 1984)
        and 2^N corner lookups per cube.  Boolean and integer fields are
        summed in int64, so counts are exact.  Float fields are summed in
        np.longdouble (80-bit on x86-64, plain float64 on some platforms):
        a box sum is a difference of prefix sums much larger than itself,
        and the extra bits keep it within a few ulps of a direct slice sum.
        Callers integrating over R_Q ∩ Ω pass a field that is zero outside.
        """
        dim = self.domain.dim
        kind = np.int64 if weight.dtype.kind in "biu" else np.longdouble
        table = np.zeros(tuple(s + 1 for s in weight.shape), dtype=kind)
        table[(slice(1, None),) * dim] = weight
        for ax in range(dim):
            np.cumsum(table, axis=ax, out=table)
        start = self.rq_start
        stop = np.maximum(self.rq_stop, start)
        total = np.zeros(self.n_cubes, dtype=kind)
        for corner in product((0, 1), repeat=dim):
            idx = tuple(stop[:, a] if c else start[:, a]
                        for a, c in enumerate(corner))
            if (dim - sum(corner)) % 2:
                total -= table[idx]
            else:
                total += table[idx]
        return total if kind is np.int64 else total.astype(np.float64)

    def rq_distance_integrals(self, s: float, clamp: float) -> np.ndarray:
        """Per-cube integral over R_Q ∩ Ω of max(delta, clamp)^-s dx (cell
        sums); complement cells count at no s, so s = 0 gives |R_Q ∩ Ω|."""
        dom = self.domain
        weight = np.where(dom.inside, np.maximum(dom.distance, clamp) ** (-s),
                          0.0)
        return self.rq_sums(weight) * dom.h**dom.dim

    # -- per-cube accessors ----------------------------------------------------

    def cube(self, i: int) -> DyadicCube:
        return DyadicCube(int(self.levels[i]), tuple(int(c) for c in self.coords[i]))

    def cell_slice(self, i: int):
        """Grid-cell block occupied by cube i."""
        L = self.domain.level
        k = int(self.levels[i])
        m = 2 ** (L - k)
        return tuple(slice(c * m, (c + 1) * m) for c in self.coords[i])

    def side(self, i: int) -> float:
        return 2.0 ** (-int(self.levels[i]))

    def diam(self, i: int) -> float:
        return math.sqrt(self.domain.dim) * self.side(i)

    def sides(self) -> np.ndarray:
        """Side lengths of all cubes (side(i) for every i)."""
        return 2.0 ** (-self.levels.astype(float))

    def diams(self) -> np.ndarray:
        """Diameters of all cubes (diam(i) for every i)."""
        return math.sqrt(self.domain.dim) * self.sides()

    def min_distance(self, i: int) -> float:
        return float(self.dist_min[i])

    def max_distance(self, i: int) -> float:
        return float(self.dist_max[i])

    def rq_cell_range(self, i: int):
        """Index ranges (per axis) of cells whose centers lie in closed R_Q,
        clipped to the box."""
        return [(int(a), int(b))
                for a, b in zip(self.rq_start[i], self.rq_stop[i])]

    def rq_slice(self, i: int):
        return tuple(slice(a, b) for a, b in self.rq_cell_range(i))

    def rescale_map(self, i: int) -> "RescaleMap":
        lo = self.rq_center[i] - self.rq_side[i] / 2.0
        return RescaleMap(origin=lo, scale=float(self.rq_side[i]))

    # -- index structures -------------------------------------------------------

    def neighbors(self, i: int) -> np.ndarray:
        """Indices of cubes Q' with a cell center in closed R_Q(i)."""
        if self._neighbors is None:
            self._neighbors = [None] * self.n_cubes
        if self._neighbors[i] is None:
            ids = np.unique(self.owner[self.rq_slice(i)])
            self._neighbors[i] = ids[ids >= 0]
        return self._neighbors[i]

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

    def __len__(self):
        return self.n_cubes


@dataclass(frozen=True)
class RescaleMap:
    """Affine map taking the enlarged cube onto the unit cube [0,1]^N."""

    origin: np.ndarray
    scale: float

    def to_unit(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.origin) / self.scale

    def from_unit(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.scale + self.origin


def decompose(domain: GridDomain) -> WhitneyDecomposition:
    """Deterministic top-down Whitney decomposition of a raster domain.

    Raises WhitneyError when the raster admits no cube at any level (e.g. an
    inside mask with no cells).
    """
    if domain.distance is None:
        raise WhitneyError("domain needs a distance field (run distance_transform)")
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


def check_decomposition(decomp: WhitneyDecomposition) -> dict:
    """Exhaustive verification of the grid forms of the Whitney conditions.

    Returns per-condition booleans plus the measured extremes; used by the
    acceptance suite and the property tests.
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
    # the cubes Q' with a cell in R_Q belongs to the coarsest level owning a
    # cell there: count each level's cells in every R_Q, coarsest first.
    cutoff = intersection_cutoff(dom.dim)
    owner_level = np.where(decomp.owner >= 0,
                           decomp.levels[np.maximum(decomp.owner, 0)], -1)
    coarsest = np.full(decomp.n_cubes, -1, dtype=np.int64)
    for k in decomp.populated_levels():
        found = (coarsest < 0) & (decomp.rq_sums(owner_level == k) > 0)
        coarsest[found] = k
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


def to_svg(decomp: WhitneyDecomposition, show_enlarged: bool = False) -> str:
    """SVG text of a 2-D decomposition (cubes, optional R_Q overlays)."""
    if decomp.domain.dim != 2:
        raise ValueError("SVG export requires a 2-D domain")
    size = 640.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 1 1">',
        '<rect x="0" y="0" width="1" height="1" fill="#f5f5f5"/>',
    ]
    kmax = max(int(k) for k in decomp.levels)
    for i in range(decomp.n_cubes):
        side = decomp.side(i)
        x = decomp.coords[i][0] * side
        y = decomp.coords[i][1] * side
        shade = 230 - int(150 * decomp.levels[i] / max(kmax, 1))
        lines.append(
            f'<rect x="{x:.6f}" y="{1 - y - side:.6f}" width="{side:.6f}" '
            f'height="{side:.6f}" fill="rgb({shade},{shade},255)" '
            f'stroke="#333" stroke-width="0.0008"/>'
        )
    if show_enlarged:
        for i in range(decomp.n_cubes):
            s = decomp.rq_side[i]
            cx, cy = decomp.rq_center[i]
            lines.append(
                f'<rect x="{cx - s / 2:.6f}" y="{1 - cy - s / 2:.6f}" '
                f'width="{s:.6f}" height="{s:.6f}" fill="none" '
                f'stroke="#c04040" stroke-width="0.0008"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines)
