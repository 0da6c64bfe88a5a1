"""Boundary-weight integrals over enlarged Whitney cubes, the divergence
threshold dimension, its Minkowski box-counting analogue, and a heuristic
self-similarity signature.

Finiteness of the cube supremum G_s is undecidable on a finite raster; it is
operationalized as a slope test: least-squares slope of log2(per-level sup)
across the finest informative cube levels above 0.25 declares divergence.
Levels finer than domain.level - 2 are excluded from fits (their enlarged
cubes span too few cells to resolve the weight).  The threshold crossing is
de-biased with the closed-form geometric partial-sum model, which the flat
halfspace realizes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grids import GridDomain
from .whitney import WhitneyDecomposition, summed_area_table
from ._util import fit_slope

DIVERGENCE_SLOPE_THRESHOLD = 0.25
FIT_LEVELS = 4


class DimensionError(RuntimeError):
    pass


@dataclass
class DimensionEstimate:
    kind: str
    value: float
    s0_or_d: float
    per_level_sups: list
    divergence_slope: float
    confidence_band: tuple[float, float]
    threshold: float
    # mc-loc only: {j: sup box count} at every counted scale (not recorded)
    box_counts: dict | None = None

    def to_record(self) -> dict:
        return {
            "kind": self.kind, "value": self.value, "s0_or_d": self.s0_or_d,
            "per_level_sups": [[int(k), float(v)] for k, v in self.per_level_sups],
            "divergence_slope": self.divergence_slope,
            "confidence_band": list(self.confidence_band),
            "threshold": self.threshold,
        }


def g_s(decomp: WhitneyDecomposition, s: float):
    """Cube supremum of (diam Q)^(s-N) * integral_{R_Q ∩ Ω} delta^-s dx.

    The integral runs over the inside cells of R_Q only, at every s
    (s = 0 gives the volume of R_Q ∩ Ω), where delta is at least half a
    cell.  All cubes are integrated at once by one summed-area table
    (WhitneyDecomposition.rq_distance_integrals).  The result is kept on
    the decomposition per s, so a repeated s (the bisection's points in
    export_gs_table) builds no second table.

    Returns (sup_value, per_level) with per_level a new list of
    (cube level, sup over cubes at that level).
    """
    dom = decomp.domain
    if s not in decomp.gs_tables:
        integral = decomp.rq_distance_integrals(s)
        vals = decomp.diams() ** (-dom.dim + s) * integral
        table = tuple((k, float(vals[decomp.levels == k].max()))
                      for k in decomp.populated_levels())
        decomp.gs_tables[s] = (max(v for _, v in table), table)
    sup, table = decomp.gs_tables[s]
    return sup, list(table)


def _fit_window_levels(decomp: WhitneyDecomposition, table):
    """Finest FIT_LEVELS populated levels at or below domain.level - 2.

    Cubes finer than that span too few cells to resolve the weight.  When
    the coarsest window level holds fewer than five cubes its supremum is
    badly sampled (sparse deep-interior cubes) and it is dropped, keeping a
    three-level fit.  At least three informative levels are required and at
    least FIT_LEVELS populated levels overall."""
    if len({int(k) for k in decomp.levels}) < FIT_LEVELS:
        raise DimensionError(
            f"insufficient-levels: decomposition has fewer than {FIT_LEVELS} levels")
    lmax = decomp.domain.level - 2
    ks = [k for k, _ in table if k <= lmax]
    if len(ks) < 3:
        raise DimensionError(
            f"insufficient-levels: {len(ks)} informative cube levels < 3")
    window = ks[-FIT_LEVELS:]
    counts = {k: len(decomp.cubes_at_level(k)) for k in window}
    if len(window) == FIT_LEVELS and counts[window[0]] < 5:
        window = window[1:]
    return window


def _divergence_slope(table, window) -> float:
    vals = dict(table)
    ys = [math.log2(max(vals[k], 1e-300)) for k in window]
    return -fit_slope(window, ys)


MODEL_RQ_CELL_FACTOR = 4.0


def _model_correction(decomp: WhitneyDecomposition, window,
                      theta: float) -> float:
    """Exponent offset eps* at which the layered cell-sum model

        V(k; eps) = sum_{j < M_k} (j + 1/2)^(eps - 1),
        M_k = MODEL_RQ_CELL_FACTOR * 2^(L - k)

    shows divergence slope exactly theta.  Collapsing the weight integral
    onto distance layers gives this profile exactly for a flat boundary (and
    to leading order for a d-set, with eps = s - s0), so the measured
    threshold crossing sits at s0 + eps* and s0 = crossing - eps*.
    """
    L = decomp.domain.level

    def model_slope(eps):
        ys = []
        for k in window:
            m = max(int(MODEL_RQ_CELL_FACTOR * 2 ** (L - k)), 2)
            j = np.arange(m, dtype=float) + 0.5
            ys.append(math.log2(float((j ** (eps - 1.0)).sum())))
        return -fit_slope(window, ys)

    lo, hi = -2.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if model_slope(mid) > theta:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def dim_loc(decomp: WhitneyDecomposition) -> DimensionEstimate:
    """Local boundary dimension N - s0, with s0 the divergence threshold of
    the boundary-weight supremum, located by bisection on the slope test."""
    theta = DIVERGENCE_SLOPE_THRESHOLD
    dom = decomp.domain
    N = dom.dim
    _, table0 = g_s(decomp, 0.0)
    window = _fit_window_levels(decomp, table0)

    def slope_at(s):
        _, table = g_s(decomp, s)
        return _divergence_slope(table, window), table

    s_lo, s_hi = 0.0, float(N)
    slope_lo, table_lo = _divergence_slope(table0, window), table0
    slope_hi, table_hi = slope_at(s_hi)
    if slope_lo > theta:
        crossing, table, slope = s_lo, table_lo, slope_lo
    elif slope_hi <= theta:
        crossing, table, slope = s_hi, table_hi, slope_hi
    else:
        for _ in range(18):
            mid = 0.5 * (s_lo + s_hi)
            sl, tb = slope_at(mid)
            if sl > theta:
                s_hi, slope_hi, table_hi = mid, sl, tb
            else:
                s_lo, slope_lo, table_lo = mid, sl, tb
            if s_hi - s_lo < 1e-3:
                break
        crossing = 0.5 * (s_lo + s_hi)
        table, slope = table_hi, slope_hi
    eps = _model_correction(decomp, window, theta)
    s0 = min(max(crossing - eps, 0.0), float(N))
    halfwidth = max(0.5 * (s_hi - s_lo) if slope_lo <= theta < slope_hi else 0.0,
                    abs(eps), 0.02)
    band = (max(N - s0 - halfwidth, 0.0), min(N - s0 + halfwidth, float(N)))
    return DimensionEstimate(
        kind="loc", value=N - s0, s0_or_d=s0, per_level_sups=table,
        divergence_slope=slope, confidence_band=band, threshold=theta)


# -- Minkowski-content variant -------------------------------------------------


def boundary_cells_padded(dom: GridDomain) -> np.ndarray:
    """Outside cells face-adjacent to inside cells, on the collar-padded grid."""
    padded = dom.padded_inside()
    structure = ndimage.generate_binary_structure(dom.dim, 1)
    dil = ndimage.binary_dilation(padded, structure=structure)
    return dil & ~padded


MIN_BOX_CELLS = 8
# Finest box-count scale: eps = 2^-MAX_BOX_SCALES of R_Q's side.
MAX_BOX_SCALES = 8


def _padded_rq_ranges(decomp: WhitneyDecomposition):
    """(start, stop): per cube and axis, the half-open range of the cells
    whose centers lie in closed R_Q, on the collar-padded grid (cell index
    + 1) and clipped to it."""
    n = 2**decomp.domain.level
    return (np.maximum(decomp.rq_first + 1, 0),
            np.minimum(decomp.rq_last + 1, n + 1) + 1)


def _box_counts(decomp: WhitneyDecomposition, bcells: np.ndarray):
    """Per cube, box counts of the rescaled boundary piece at dyadic scales.

    Returns {j: sup over cubes of N_eps}, eps = 2^-j relative to R_Q's side.
    Boxes narrower than MIN_BOX_CELLS cells are not counted: occupancy of
    smaller boxes flips to the straight-segment regime of the raster.

    A cell of R_Q falls in box floor(u * 2^j) per axis, u its center's
    coordinate rescaled onto R_Q = [0, 1] (clipped below 1).  That index
    is monotone along each axis, so a box is a product of per-axis runs of
    cells and is occupied when the summed-area table of the boundary cells
    gives it a positive sum.  The loops run over scales and axes only.
    """
    dom = decomp.domain
    h = dom.h
    dim = dom.dim
    start, stop = _padded_rq_ranges(decomp)
    side = decomp.rq_side
    jmax = np.minimum(np.floor(np.log2(np.maximum(
        side / h / MIN_BOX_CELLS, 1.0))).astype(np.int64), MAX_BOX_SCALES)
    counted = (jmax >= 1) & (stop > start).all(axis=1)
    table = summed_area_table(bcells)
    sups: dict[int, float] = {}
    for j in range(1, int(jmax[counted].max(initial=0)) + 1):
        ids = np.nonzero(counted & (jmax >= j))[0]
        # per axis, the prefix-sum lattice index of every box edge
        edges = []
        for a in range(dim):
            lo = start[ids, a]
            run = stop[ids, a] - lo
            # the cells of every R_Q along axis a, one cube after another
            cube = np.repeat(np.arange(len(ids)), run)
            cell = np.arange(run.sum()) + np.repeat(lo - np.cumsum(run) + run,
                                                    run)
            unit = (((cell - 1 + 0.5) * h - decomp.rq_origin[ids[cube], a])
                    / side[ids[cube]])
            unit = np.clip(unit, 0.0, 1.0 - 1e-12)
            box = np.floor(unit * 2**j).astype(np.int64)
            width = np.bincount(cube * 2**j + box, minlength=len(ids) * 2**j)
            edge = np.zeros((len(ids), 2**j + 1), dtype=np.int64)
            edge[:, 1:] = np.cumsum(width.reshape(len(ids), 2**j), axis=1)
            edges.append((lo[:, None] + edge).reshape(
                (len(ids),) + (1,) * a + (-1,) + (1,) * (dim - 1 - a)))
        # box sums: the N-fold difference of the table at the edge lattice
        sums = table[tuple(edges)]
        for a in range(dim):
            sums = np.diff(sums, axis=a + 1)
        most = int(np.count_nonzero(sums > 0,
                                    axis=tuple(range(1, dim + 1))).max())
        if most > 0:
            sups[j] = float(most)
    return sups


def dim_mc_loc(decomp: WhitneyDecomposition) -> DimensionEstimate:
    """Minkowski-content local dimension via box counts of rescaled boundary
    pieces: the content proxy sup_Q N_eps * eps^d is slope-tested like G_s.

    The proxy's log-slope is exactly linear in d with unit coefficient, so
    the threshold crossing sits theta below the content dimension and is
    shifted back before reporting (upper-content convention: the slope is
    fitted over the finest counted scales).
    """
    theta = DIVERGENCE_SLOPE_THRESHOLD
    dom = decomp.domain
    N = dom.dim
    bcells = boundary_cells_padded(dom)
    sups = _box_counts(decomp, bcells)
    js = sorted(sups)
    if len(js) < 3:
        raise DimensionError(
            f"insufficient-levels: {len(js)} box-count scales < 3")
    if len(js) > 3:
        js = js[:-1]  # finest counted scale straddles the raster's resolution
    window = js[-FIT_LEVELS:]
    base = fit_slope(window, [math.log2(max(sups[j], 1.0)) for j in window])

    def diverges(d):
        # slope of log2(sup N_eps * eps^d) against j is base - d
        return (base - d) > theta

    d_lo, d_hi = 0.0, float(N)
    if diverges(d_hi):
        crossing = d_hi
    elif not diverges(d_lo):
        crossing = d_lo
    else:
        for _ in range(40):
            mid = 0.5 * (d_lo + d_hi)
            if diverges(mid):
                d_lo = mid
            else:
                d_hi = mid
        crossing = 0.5 * (d_lo + d_hi)
    value = min(max(crossing + theta, 0.0), float(N))
    band = (max(value - 0.05, 0.0), min(value + 0.05, float(N)))
    table = [(j, sups[j]) for j in js]
    return DimensionEstimate(
        kind="mc-loc", value=value, s0_or_d=crossing, per_level_sups=table,
        divergence_slope=base, confidence_band=band, threshold=theta,
        box_counts=sups)


# -- self-similarity signature ---------------------------------------------------


SIGNATURE_MIN_RADIUS_CELLS = 32
# concentric annuli per signature, and the pairwise discrepancy flagged
SIGNATURE_ANNULI = 4
SIGNATURE_FLAG_THRESHOLD = 0.7


def selfsimilarity_signature(decomp: WhitneyDecomposition):
    """Heuristic necessary-condition check for complement self-similarity.

    Extracts the ball inscribed in each enlarged cube (centered at a
    boundary point), measures the complement's occupancy over concentric
    annuli after rescaling (radial profiles are rotation
    invariant, which stands in for the similarity transformation's rotation
    freedom), and compares the log-occupancy signatures pairwise.  Small
    maximum discrepancy is consistent with self-similarity at grid scale; a
    large value refutes it.  Balls below SIGNATURE_MIN_RADIUS_CELLS cells or
    truncated by the raster edge are skipped.  Returns (max_discrepancy,
    flagged_pairs) with pairs exceeding SIGNATURE_FLAG_THRESHOLD.
    """
    dom = decomp.domain
    h = dom.h
    padded_out = ~dom.padded_inside()
    start, stop = _padded_rq_ranges(decomp)
    radius = 0.5 * decomp.rq_side
    center = decomp.rq_center
    # too coarse to sign at the requested depth; ball leaves the raster
    # (occupancy would be truncated); empty block
    eligible = ((radius / h >= SIGNATURE_MIN_RADIUS_CELLS)
                & ~(center - radius[:, None] < -h).any(axis=1)
                & ~(center + radius[:, None] > 1.0 + h).any(axis=1)
                & (stop > start).all(axis=1))
    ids = np.nonzero(eligible)[0].tolist()
    sigs = []
    for i in ids:
        block = padded_out[tuple(map(slice, start[i], stop[i]))]
        # r^2 as a broadcast sum of per-axis squares, axes added in order
        r2 = 0
        for ax, (a, b) in enumerate(zip(start[i], stop[i])):
            g = ((np.arange(a, b) - 1 + 0.5) * h - center[i, ax]) / radius[i]
            r2 = r2 + (g * g).reshape((-1,) + (1,) * (dom.dim - 1 - ax))
        sig = []
        for j in range(1, SIGNATURE_ANNULI + 1):
            shell = ((r2 <= (j / SIGNATURE_ANNULI) ** 2)
                     & (r2 > ((j - 1) / SIGNATURE_ANNULI) ** 2))
            tot = np.count_nonzero(shell)
            hit = np.count_nonzero(shell & block)
            sig.append(math.log2((hit + 1.0) / (tot + 1.0)))
        sigs.append(sig)
    if len(sigs) < 2:
        return 0.0, []
    S = np.array(sigs)
    diff = np.abs(S[:, None, :] - S[None, :, :]).max(axis=2)
    max_disc = float(diff.max())
    flagged = []
    if max_disc > SIGNATURE_FLAG_THRESHOLD:
        ii, jj = np.nonzero(diff > SIGNATURE_FLAG_THRESHOLD)
        for a, b in zip(ii.tolist(), jj.tolist()):
            if a < b:
                flagged.append((ids[a], ids[b], float(diff[a, b])))
            if len(flagged) >= 100:
                break
    return max_disc, flagged


def export_gs_table(decomp: WhitneyDecomposition, s_values) -> str:
    """CSV text of (s, level, per-level sup) rows for external plotting."""
    lines = ["s,level,sup\n"]
    for s in s_values:
        _, table = g_s(decomp, s)
        for k, v in table:
            lines.append(f"{s!r},{k},{v!r}\n")
    return "".join(lines)


def export_boxcount_table(estimate: DimensionEstimate) -> str:
    """CSV text of (eps, sup box count) rows of a dim_mc_loc estimate."""
    sups = estimate.box_counts
    return "eps,sup_count\n" + "".join(
        f"{2.0 ** (-j)!r},{sups[j]!r}\n" for j in sorted(sups))
