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
from .whitney import WhitneyDecomposition
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
    threshold: float = DIVERGENCE_SLOPE_THRESHOLD
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


def g_s(decomp: WhitneyDecomposition, s: float, clamp: float | None = None):
    """Cube supremum of (diam Q)^(s-N) * integral_{R_Q ∩ Ω} delta^-s dx.

    The integral runs over the inside cells of R_Q only, at every s
    (s = 0 gives the volume of R_Q ∩ Ω), with delta clamped below at
    ``clamp`` (default half a cell).  All cubes are integrated at once by
    one summed-area table (WhitneyDecomposition.rq_distance_integrals).

    Returns (sup_value, per_level) with per_level a list of
    (cube level, sup over cubes at that level).
    """
    dom = decomp.domain
    h = dom.h
    if clamp is None:
        clamp = 0.5 * h
    integral = decomp.rq_distance_integrals(s, clamp)
    vals = decomp.diams() ** (-dom.dim + s) * integral
    table = [(k, float(vals[decomp.levels == k].max()))
             for k in decomp.populated_levels()]
    sup = max(v for _, v in table)
    return sup, table


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


def dim_loc(decomp: WhitneyDecomposition,
            theta: float = DIVERGENCE_SLOPE_THRESHOLD) -> DimensionEstimate:
    """Local boundary dimension N - s0, with s0 the divergence threshold of
    the boundary-weight supremum, located by bisection on the slope test."""
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


def _box_counts(decomp: WhitneyDecomposition, bcells: np.ndarray,
                max_scales: int = 8):
    """Per cube, box counts of the rescaled boundary piece at dyadic scales.

    Returns {j: sup over cubes of N_eps}, eps = 2^-j relative to R_Q's side.
    Boxes narrower than MIN_BOX_CELLS cells are not counted: occupancy of
    smaller boxes flips to the straight-segment regime of the raster.
    """
    dom = decomp.domain
    h = dom.h
    n = 2**dom.level
    sups: dict[int, float] = {}
    for i in range(decomp.n_cubes):
        side = float(decomp.rq_side[i])
        cells_across = side / h
        jmax = int(math.floor(math.log2(max(cells_across / MIN_BOX_CELLS, 1.0))))
        jmax = min(jmax, max_scales)
        if jmax < 1:
            continue
        lo = decomp.rq_center[i] - side / 2.0
        hi = decomp.rq_center[i] + side / 2.0
        eps_h = 1e-9 * h
        ranges = []
        empty = False
        for a in range(dom.dim):
            i0 = int(math.ceil((lo[a] + eps_h) / h - 0.5)) + 1
            i1 = int(math.floor((hi[a] - eps_h) / h - 0.5)) + 1
            i0 = max(i0, 0)
            i1 = min(i1, n + 1)
            if i1 < i0:
                empty = True
                break
            ranges.append((i0, i1 + 1))
        if empty:
            continue
        sl = tuple(slice(a, b) for a, b in ranges)
        block = bcells[sl]
        idx = np.argwhere(block)
        if len(idx) == 0:
            continue
        # physical center coordinates of boundary cells, rescaled to [0,1]
        coords = np.zeros((len(idx), dom.dim))
        for a in range(dom.dim):
            coords[:, a] = ((idx[:, a] + ranges[a][0]) - 1 + 0.5) * h
        unit = (coords - lo) / side
        unit = np.clip(unit, 0.0, 1.0 - 1e-12)
        for j in range(1, jmax + 1):
            boxes = np.floor(unit * 2**j).astype(np.int64)
            keys = boxes[:, 0].copy()
            for a in range(1, dom.dim):
                keys = keys * 2**j + boxes[:, a]
            count = len(np.unique(keys))
            sups[j] = max(sups.get(j, 0.0), float(count))
    return sups


def dim_mc_loc(decomp: WhitneyDecomposition,
               theta: float = DIVERGENCE_SLOPE_THRESHOLD) -> DimensionEstimate:
    """Minkowski-content local dimension via box counts of rescaled boundary
    pieces: the content proxy sup_Q N_eps * eps^d is slope-tested like G_s.

    The proxy's log-slope is exactly linear in d with unit coefficient, so
    the threshold crossing sits theta below the content dimension and is
    shifted back before reporting (upper-content convention: the slope is
    fitted over the finest counted scales).
    """
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


def selfsimilarity_signature(decomp: WhitneyDecomposition,
                             ball_fraction: float = 0.5,
                             n_annuli: int = 4,
                             flag_threshold: float = 0.7):
    """Heuristic necessary-condition check for complement self-similarity.

    Extracts the ball of the given radius fraction at each enlarged cube's
    center (a boundary point), measures the complement's occupancy over
    concentric annuli after rescaling (radial profiles are rotation
    invariant, which stands in for the similarity transformation's rotation
    freedom), and compares the log-occupancy signatures pairwise.  Small
    maximum discrepancy is consistent with self-similarity at grid scale; a
    large value refutes it.  Balls below SIGNATURE_MIN_RADIUS_CELLS cells or
    truncated by the raster edge are skipped.  Returns (max_discrepancy,
    flagged_pairs) with pairs exceeding flag_threshold.
    """
    if not (0.0 < ball_fraction <= 0.5):
        raise ValueError("ball_fraction must lie in (0, 1/2]")
    dom = decomp.domain
    h = dom.h
    n = 2**dom.level
    padded_out = ~dom.padded_inside()
    sigs = []
    ids = []
    for i in range(decomp.n_cubes):
        side = float(decomp.rq_side[i])
        radius = ball_fraction * side
        if radius / h < SIGNATURE_MIN_RADIUS_CELLS:
            continue  # too coarse to sign at the requested depth
        center = decomp.rq_center[i]
        lo = center - radius
        hi = center + radius
        if (lo < -h).any() or (hi > 1.0 + h).any():
            continue  # ball leaves the raster; occupancy would be truncated
        ranges = []
        for a in range(dom.dim):
            i0 = max(int(math.ceil(lo[a] / h - 0.5)) + 1, 0)
            i1 = min(int(math.floor(hi[a] / h - 0.5)) + 1, n + 1)
            ranges.append((i0, i1 + 1))
        sl = tuple(slice(a, b) for a, b in ranges)
        block = padded_out[sl]
        if block.size == 0:
            continue
        axes = [((np.arange(a, b) - 1 + 0.5) * h - center[ax]) / radius
                for ax, (a, b) in enumerate(ranges)]
        grids = np.meshgrid(*axes, indexing="ij")
        r2 = sum(g * g for g in grids)
        sig = []
        for j in range(1, n_annuli + 1):
            shell = (r2 <= (j / n_annuli) ** 2) & (r2 > ((j - 1) / n_annuli) ** 2)
            tot = int(shell.sum())
            hit = int((shell & block).sum())
            sig.append(math.log2((hit + 1.0) / (tot + 1.0)))
        sigs.append(sig)
        ids.append(i)
    if len(sigs) < 2:
        return 0.0, []
    S = np.array(sigs)
    diff = np.abs(S[:, None, :] - S[None, :, :]).max(axis=2)
    max_disc = float(diff.max())
    flagged = []
    if max_disc > flag_threshold:
        ii, jj = np.nonzero(diff > flag_threshold)
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
