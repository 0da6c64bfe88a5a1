"""Nonnegative-cone decomposition of grid Sobolev functions.

A function u with finite weighted low-order mass is written u = u1 - u2 with
u1, u2 >= 0 in the same weighted space: cube-local pieces eta_Q * u are
majorized through a positive m-fold mollifier kernel (convolve, take the
positive part of the deconvolved source, convolve back), the majorants are
cut off at the 16/9-enlarged cubes and summed.  Exactness (u1 - u2 = u,
both nonnegative) holds cellwise by construction; the norm control is an
itemized product of the bounded-overlap constant, the per-cube majorant
factors, and per-cube interpolation ratios, all measured on the split.

Windows are the currency of the split: every cube's 4/3 and 16/9 windows
are (lo, hi) cell-bound arrays computed once.  The piece eta_Q*u and its
cutoff live on the 4/3 window; local_majorant takes the piece on the 16/9
window and returns the majorant there, where the outer cutoff, defect
repair, accumulation and seminorms run (padded by the stencil order for the
differences).  The profiles are exactly 0 off those windows, so those steps
are the same to the bit; only the seminorm sums add their terms in another
order.  Overlap and window multiplicities are one whitney.box_scatter each.
The Tikhonov deconvolution is the whole grid's, zero-padded to a
power-of-two FFT shape: its filter makes the source global, so a cropped
filter would move the majorant.  Its FFTs are pruned instead: numpy's 1-D
passes run only on the lines through the window and, back, on the lines
the window's reach (the window grown by the kernel's taps) reads, so the
source comes out on the reach with the whole-grid values to the bit.  The
convolution back runs on that reach, one 1-D pass per axis: the same
circular convolution as an FFT, so its values differ only by rounding.
One difference pass per order gives a majorant's unweighted seminorms (its
norm factor) and weighted ones (the chain's ratio).  One split computes
each kernel spectrum once per kernel and FFT shape and each weight field
once, and keeps nothing after it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import GridDomain, rasterize
from .norms import (DiscreteFunction, block_seminorms, distance_weight,
                    gradient_magnitude, gradient_seminorm)
from .whitney import WhitneyDecomposition, box_scatter

ALPHA_ENLARGE = 4.0 / 3.0        # support of the cutoff pieces
BETA_ENLARGE = 16.0 / 9.0        # support of the local majorants
FINITENESS_SLOPE_THRESHOLD = 0.25
# cells a make_probe bump is kept clear of the boundary
PROBE_MARGIN_CELLS = 6


class ConeError(RuntimeError):
    """Hypothesis failure or majorant construction failure."""


def smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def cutoff(domain: GridDomain, center: np.ndarray, side: float,
           window: tuple) -> np.ndarray:
    """The tensor-product cutoff of the cube (center, side) on the box
    slice window: 1 on the cube, exactly 0 off its ALPHA_ENLARGE-fold."""
    out = np.ones(domain.inside[window].shape)
    for a in range(domain.dim):
        x = domain.cell_centers()[window[a]]
        rel = np.abs(x - center[a]) / (side / 2.0)
        prof = smoothstep((ALPHA_ENLARGE - rel) / (ALPHA_ENLARGE - 1.0))
        shape = [1] * domain.dim
        shape[a] = len(x)
        out = out * prof.reshape(shape)
    return out


def _cube_centers(decomp: WhitneyDecomposition) -> np.ndarray:
    return (decomp.coords.astype(float) + 0.5) * decomp.sides()[:, None]


def _enlarged_boxes(domain: GridDomain, decomp: WhitneyDecomposition,
                    enlarge: float):
    """Per cube, half-open bounds (lo, hi) (int arrays, cubes x N) of the
    cells meeting the enlarged cube, clipped to the grid; a cutoff of that
    support is exactly 0 on every other cell."""
    half = (decomp.sides() * enlarge)[:, None] / 2.0
    centers = _cube_centers(decomp)
    lo = np.floor((centers - half) / domain.h).astype(np.int64)
    hi = np.ceil((centers + half) / domain.h).astype(np.int64)
    return np.maximum(lo, 0), np.minimum(hi, 2**domain.level)


def overlap_count(domain: GridDomain, decomp: WhitneyDecomposition,
                  enlarge: float) -> int:
    """The largest number of enlarged cubes holding one cell."""
    lo, hi = _enlarged_boxes(domain, decomp, enlarge)
    ones = np.ones(decomp.n_cubes, dtype=np.int64)
    return int(box_scatter(domain.shape, lo, hi, ones).max())


def _iterated_kernel(m: int, radius_cells: int) -> np.ndarray:
    """1-D m-fold iterated box kernel (positive, mass one)."""
    width = max(2 * radius_cells + 1, 3)
    base = np.ones(width) / width
    ker = base
    for _ in range(m - 1):
        ker = np.convolve(ker, base)
    return ker / ker.sum()


def _kernel_spectrum(ker1d: np.ndarray, dim: int, fshape, tau: float):
    """(conj(Kf), |Kf|^2 + tau, condition), Kf the spectrum of the dim-fold
    tensor kernel centred at the origin of the fshape FFT grid."""
    K = np.zeros(fshape)
    kernel_nd = ker1d
    for _ in range(dim - 1):
        kernel_nd = np.multiply.outer(kernel_nd, ker1d)
    K[tuple(slice(0, len(ker1d)) for _ in fshape)] = kernel_nd
    K = np.roll(K, [-(len(ker1d) // 2)] * dim, axis=tuple(range(dim)))
    Kf = np.fft.rfftn(K)
    denom = np.abs(Kf) ** 2 + tau
    cond = float((np.abs(Kf).max() ** 2 + tau) / (np.abs(Kf).min() ** 2 + tau))
    return np.conj(Kf), denom, cond


def _deconvolve(block: np.ndarray, window: tuple, fshape, Kf_conj: np.ndarray,
                denom: np.ndarray, taps: int) -> np.ndarray:
    """irfftn(Kf_conj * rfftn(U) / denom) on the window's reach, U the
    fshape grid equal to block on the box slice window and 0 elsewhere.

    The reach is what G*f_+ reads on the window, G the tensor kernel of a
    taps-long ker1d centred at the origin as in _kernel_spectrum: the
    window grown by taps - 1 - taps // 2 cells below and taps // 2 above,
    taken modulo the grid (it wraps at the grid's edges).  numpy's 1-D
    passes of rfftn and irfftn run only on the lines that matter (FFT
    pruning): forward, the rfft along the last axis on the window's lines,
    then the fft along axes N-2..0 on the lines whose untransformed axes
    lie in the window (every other line is 0); inverse, the ifft along axes
    0..N-2 and then the irfft, each on the lines the reach reads.  Each
    line is transformed as numpy transforms it, so the values are the
    whole-grid irfftn's to the bit."""
    dim = block.ndim
    a = block
    for ax in range(dim - 1, -1, -1):
        lines = np.zeros(a.shape[:ax] + (fshape[ax],) + a.shape[ax + 1:],
                         dtype=a.dtype)
        lines[(slice(None),) * ax + (window[ax],)] = a
        a = (np.fft.rfft if ax == dim - 1 else np.fft.fft)(lines, axis=ax)
    # numpy's complex product is not bitwise commutative, and a temporary
    # right factor is reused with the operands swapped: the spectrum of U
    # stays a named right factor
    a = Kf_conj * a / denom
    below = taps - 1 - taps // 2
    reach = [np.arange(sl.start - below, sl.stop + taps // 2) % n
             for sl, n in zip(window, fshape)]
    for ax in range(dim - 1):
        a = np.fft.ifft(a, axis=ax).take(reach[ax], axis=ax)
    return np.fft.irfft(a, n=fshape[-1], axis=dim - 1).take(reach[-1],
                                                          axis=dim - 1)


def _convolve_back(f_reach: np.ndarray, ker1d: np.ndarray) -> np.ndarray:
    """G*f_+ on a box slice window of an FFT grid, from f on the window's
    reach for len(ker1d) taps (_deconvolve), G the tensor kernel of ker1d
    centred at the origin as in _kernel_spectrum (circular convolution):
    one 1-D pass per axis, each keeping the entries where the kernel lies
    wholly on the reach."""
    taps = len(ker1d)
    v = np.maximum(f_reach, 0.0)
    for ax in range(v.ndim):
        # entry y of the pass: the sum over t of ker1d[t] v[y + taps-1-t]
        n_out = v.shape[ax] - taps + 1
        v = sum(c * v[(slice(None),) * ax + (slice(lo, lo + n_out),)]
                for c, lo in zip(ker1d, range(taps - 1, -1, -1)))
    return v


@dataclass
class MajorantResult:
    values: np.ndarray
    norm_factor: float
    defect_norm: float
    condition: float
    seminorms: list     # of orders 0..m of values, under the caller's weight


def local_majorant(domain: GridDomain, block: np.ndarray, window: tuple,
                   cube_center: np.ndarray, cube_side: float, m: int,
                   p: float, weight: np.ndarray | None,
                   spectra: dict) -> MajorantResult:
    """Nonnegative majorant of a cube-local piece via a positive kernel.

    block is the piece u_q on window, the cube's 16/9 box slice, and the
    majorant comes back on it.  Writes u_q = G*f with G an m-fold iterated
    box mollifier at the cube's scale (FFT deconvolution, Tikhonov
    parameter h^2), forms G*f_+ and cuts it off; any residual violation of
    v >= u_q is repaired by adding the defect's positive part, which
    preserves nonnegativity and support.  Returns the majorant with its
    measured norm factor, repair size, deconvolution condition estimate,
    and its seminorms of orders 0..m under weight (a whole-grid field, or
    None for the unit weight).  Rejects p <= 1.

    Everything runs on windows or on the lines through them.  The
    deconvolution is the whole-grid one, zero-padded to a power-of-two FFT
    shape (the Tikhonov filter makes the source global, and a cropped
    filter would move the majorant), but its FFTs are pruned
    (_deconvolve): they transform only the lines through the window and,
    back, only the lines its reach reads, so f comes out on the reach with
    the whole-grid values to the bit.  G*f_+ is convolved back on the
    reach (_convolve_back).  The outer cutoff, the defect repair and the
    seminorms run on the window too, their terms vanishing off it; one
    difference pass per order gives the majorant's unweighted and weighted
    seminorms.  spectra is a cache of kernel spectra shared by calls with
    the same kernel and FFT shape; cone_split passes one per split.
    """
    if p <= 1.0:
        raise ConeError("the positive-kernel representation needs p > 1")
    # kernel reach must keep supp(G*f+) inside the 16/9 enlargement
    margin_cells = max(int((BETA_ENLARGE - ALPHA_ENLARGE) * cube_side
                           / (2.0 * domain.h)), 1)
    radius = max(margin_cells // max(m, 1), 1)
    ker1d = _iterated_kernel(m, radius)

    pad = len(ker1d)
    fshape = tuple(int(2 ** math.ceil(math.log2(s + 2 * pad)))
                   for s in domain.shape)
    tau = domain.h**2
    key = (m, radius, fshape, tau)
    if key not in spectra:
        spectra[key] = _kernel_spectrum(ker1d, domain.dim, fshape, tau)
    Kf_conj, denom, cond = spectra[key]

    f_reach = _deconvolve(block, window, fshape, Kf_conj, denom, len(ker1d))
    v = _convolve_back(f_reach, ker1d)
    # short-range support: cut off at the 16/9 enlargement (the deconvolved
    # source is global through the Tikhonov filter)
    v = cutoff(domain, cube_center, cube_side * ALPHA_ENLARGE, window) * v

    defect = np.maximum(block - v, 0.0)
    hN = domain.h**domain.dim
    defect_norm = float((defect**p).sum() * hN) ** (1.0 / p)
    v = v + defect

    norm_u = sum(block_seminorms(domain, block, window, m, p, [None])[0])
    plain, weighted = block_seminorms(domain, v, window, m, p,
                                      [None, weight])
    factor = sum(plain) / norm_u if norm_u > 0 else 1.0
    return MajorantResult(v, factor, defect_norm, cond, weighted)


@dataclass
class ConeSplit:
    u1: DiscreteFunction
    u2: DiscreteFunction
    norm_factor: float
    per_cube_log: list
    factors: dict

    def to_record(self) -> dict:
        return {"norm_factor": self.norm_factor,
                "factors": self.factors,
                "per_cube_log": self.per_cube_log}


def weighted_low_order_mass(u: DiscreteFunction, m: int, p: float,
                            s: float) -> float:
    """The hypothesis integral: int |u|^p delta^(-mp+s) dx (cell sums)."""
    dom = u.domain
    hN = dom.h**dom.dim
    return float((np.abs(u.values) ** p
                  * distance_weight(dom, s - m * p, None)).sum() * hN)


def finiteness_slope(u: DiscreteFunction, m: int, p: float, s: float) -> float | None:
    """Refinement slope of the hypothesis integral (one extra dyadic level,
    function prolonged by cell duplication).  None when the domain carries
    no spec to re-rasterize."""
    dom = u.domain
    if dom.spec is None:
        return None
    fine_spec = replace(dom.spec, level=dom.spec.level + 1)
    fine = rasterize(fine_spec)
    vals = u.values
    for ax in range(dom.dim):
        vals = np.repeat(vals, 2, axis=ax)
    uf = DiscreteFunction(fine, vals)
    f0 = weighted_low_order_mass(u, m, p, s)
    f1 = weighted_low_order_mass(uf, m, p, s)
    if f0 <= 0:
        return 0.0
    return math.log2(max(f1, 1e-300) / f0)


def cone_split(u: DiscreteFunction, decomp: WhitneyDecomposition, m: int,
               p: float, s: float) -> ConeSplit:
    """Split u = u1 - u2 with both parts nonnegative in the weighted space.

    Fails when the weighted low-order integral diverges under refinement
    (slope test, mirroring the necessity direction at grid scale).
    """
    dom = u.domain
    if p <= 1.0:
        raise ConeError("cone splitting needs p > 1")
    slope = finiteness_slope(u, m, p, s)
    if slope is not None and slope > FINITENESS_SLOPE_THRESHOLD:
        raise ConeError(
            f"hypothesis-divergent: weighted mass grows by 2^{slope:.2f} "
            "per refinement level")

    v = np.zeros(dom.shape)
    per_cube = []
    sup_rho = 0.0
    sup_a0 = 0.0
    hN = dom.h**dom.dim
    w_field = distance_weight(dom, s, None)
    spectra: dict = {}

    # global top-order anchor integrand |grad^m u|^p * delta^s * dx, summed
    # per cube over the anchor window of the 4/3 enlargement; window sums
    # against the measured anchor multiplicity keep every chain step an
    # exact inequality
    mag, widx = gradient_magnitude(u, m)
    g_top = mag**p * distance_weight(dom, s, widx) * hN
    low_field = (np.abs(u.values) ** p * distance_weight(dom, s - m * p, None)
                 * hN)
    lo43, hi43 = _enlarged_boxes(dom, decomp, ALPHA_ENLARGE)
    lo169, hi169 = _enlarged_boxes(dom, decomp, BETA_ENLARGE)
    anchor_hi = np.minimum(hi43 + 2 * m, g_top.shape)
    hit = np.zeros(decomp.n_cubes, dtype=bool)

    # the piece eta_Q*u lives on the 4/3 window (a) and its majorant on the
    # 16/9 window (b); cutoffs, accumulation and seminorms stay on them
    for i, (side, center, a_lo, a_hi, b_lo, b_hi, t_hi) in enumerate(zip(
            decomp.sides().tolist(), _cube_centers(decomp), lo43.tolist(),
            hi43.tolist(), lo169.tolist(), hi169.tolist(),
            anchor_hi.tolist())):
        sl43 = tuple(map(slice, a_lo, a_hi))
        piece = cutoff(dom, center, side, sl43) * u.values[sl43]
        if not piece.any():
            continue
        hit[i] = True
        sl169 = tuple(map(slice, b_lo, b_hi))
        block = np.zeros(np.subtract(b_hi, b_lo))
        block[tuple(map(slice, np.subtract(a_lo, b_lo),
                        np.subtract(a_hi, b_lo)))] = piece
        res = local_majorant(dom, block, sl169, center, side, m, p, w_field,
                             spectra)
        v[sl169] += res.values
        num = sum(x ** p for x in res.seminorms)
        local_low = float(low_field[sl43].sum())
        local_top = float(g_top[tuple(map(slice, a_lo, t_hi))].sum())
        denom = local_low + local_top
        rho = num / denom if denom > 0 else 0.0
        sup_rho = max(sup_rho, rho)
        sup_a0 = max(sup_a0, res.norm_factor)
        per_cube.append({
            "cube": i, "level": int(decomp.levels[i]),
            "input_norm": float(denom) ** (1.0 / p),
            "majorant_norm": float(num) ** (1.0 / p),
            "majorant_factor": res.norm_factor,
            "defect": res.defect_norm,
            "condition": res.condition,
        })

    u1 = DiscreteFunction(dom, v)
    u2 = DiscreteFunction(dom, v - u.values)
    if (u1.values < -1e-12).any() or (u2.values < -1e-12).any():
        raise ConeError("majorant property failed (negative split part)")
    u1.values = np.maximum(u1.values, 0.0)
    u2.values = np.where(dom.inside, u1.values - u.values, 0.0)

    ones = np.ones(int(hit.sum()), dtype=np.int64)
    mult_low = box_scatter(dom.shape, lo43[hit], hi43[hit], ones)
    mult_top = box_scatter(g_top.shape, lo43[hit], anchor_hi[hit], ones)
    overlap = overlap_count(dom, decomp, BETA_ENLARGE)
    window_mult = max(int(mult_low.max()), int(mult_top.max()))
    norm_u = sum(gradient_seminorm(u, k, p, s) for k in range(m + 1))
    nf = 0.0
    if norm_u > 0:
        nf = max(
            sum(gradient_seminorm(u1, k, p, s) for k in range(m + 1)),
            sum(gradient_seminorm(u2, k, p, s) for k in range(m + 1)),
        ) / norm_u
    factors = {
        "overlap_count": overlap,
        "window_multiplicity": window_mult,
        "order_split": (m + 1.0) ** (p - 1.0),
        "sup_per_cube_ratio": sup_rho,
        "sup_majorant_factor": sup_a0,
        "chain_bound": (m + 1.0) ** (p - 1.0) * overlap ** (p - 1.0)
                       * sup_rho * window_mult,
        "alpha_enlarge": ALPHA_ENLARGE,
        "beta_enlarge": BETA_ENLARGE,
    }
    return ConeSplit(u1=u1, u2=u2, norm_factor=nf, per_cube_log=per_cube,
                     factors=factors)


def chain_inequality_sides(u: DiscreteFunction, split: ConeSplit, m: int,
                           p: float, s: float):
    """(lhs, rhs) of the split norm chain:

        ||u1||^p_{W^{m,p}(delta^s)} <= A (||u||^p_{L^p(delta^(s-mp))}
                                           + ||grad^m u||^p_{L^p(delta^s)})

    with A the itemized chain_bound of the split (every factor a measured
    supremum, so the inequality holds step by step)."""
    lhs = sum(gradient_seminorm(split.u1, k, p, s)
              for k in range(m + 1)) ** p
    rhs_core = weighted_low_order_mass(u, m, p, s) \
        + gradient_seminorm(u, m, p, s) ** p
    return lhs, split.factors["chain_bound"] * rhs_core


def make_probe(domain: GridDomain, seed: int) -> DiscreteFunction:
    """Random interior bump probe: three signed bumps, cut to zero within
    PROBE_MARGIN_CELLS cells of the boundary."""
    rng = np.random.default_rng(seed)
    grids = domain.center_grid()
    dist = domain.distance
    vals = np.zeros(domain.shape)
    for _ in range(3):
        c = rng.uniform(0.2, 0.8, size=domain.dim)
        w = rng.uniform(0.05, 0.2)
        amp = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        r2 = sum((g - cc) ** 2 for g, cc in zip(grids, c)) / w**2
        vals += amp * np.exp(-np.minimum(r2, 60.0))
    vals = np.where(dist > PROBE_MARGIN_CELLS * domain.h, vals, 0.0)
    return DiscreteFunction(domain, vals)


def make_cusp_probe(domain: GridDomain) -> DiscreteFunction:
    """Probe whose support touches the boundary (divergent weighted mass)."""
    bidx = np.argwhere((domain.distance > 0)
                       & (domain.distance <= 1.5 * domain.h))
    x0 = (bidx[len(bidx) // 2] + 0.5) * domain.h
    grids = domain.center_grid()
    r = np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, x0)))
    vals = np.maximum(1.0 - r / 0.2, 0.0)
    return DiscreteFunction(domain, vals)


def conjecture_experiment(domain: GridDomain, decomp: WhitneyDecomposition,
                          n_probes: int, seed: int):
    """Evidence table for the odd/even-order cone-generation conjecture:
    split success rates at p = 2 for gradient orders 1-3, no assertion
    attached."""
    p = 2.0
    rows = []
    for m in (1, 2, 3):
        succ = 0
        for j in range(n_probes):
            u = make_probe(domain, seed * 31 + 7 * j + m)
            try:
                split = cone_split(u, decomp, m, p, 0.0)
                exact = float(np.abs((split.u1.values - split.u2.values)
                                     - u.values)[domain.inside].max())
                if exact < 1e-9:
                    succ += 1
            except ConeError:
                pass
        rows.append({"m": m, "parity": "odd" if m % 2 else "even",
                     "splits_ok": succ, "probes": n_probes})
    return {"rows": rows, "p": p,
            "note": "evidence only; no assertion attached"}
