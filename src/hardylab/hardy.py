"""Constructive Hardy-inequality constants over Whitney decompositions.

The constant multiplying the right-hand side is assembled as an explicit
product of measured quantities: per-cube constrained Poincaré constants
(capacities of the rescaled enlarged cubes), the dilation bookkeeping of the
rescale maps, the packing/summation constant of the Whitney summation bound,
and the quasinorm constant of the two-term split.  Every factor is itemized
in the report so the bound can be audited term by term, and the same report
carries a directly estimated best constant for the soundness comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .grids import GridDomain
from .whitney import WhitneyDecomposition, packing_constant
from .capacity import (
    CapacityError,
    ConstraintSet,
    default_theta_a0,
    _eigen_best_constant,
    _ratio_descent,
    gamma_capacity,
    gradient_form_ops,
    holder_ratio_best_constant,
    norm_equivalence_constant,
    ratio_best_constant,
    theta_capacity,
)

CASES = ("A", "B", "C", "D", "E")
FORMS = ("holder-6.23", "integral-6.24")
DIRECT_WEIGHT_CLAMP_CELLS = 0.75


class HardyError(ValueError):
    """Violated Hardy-inequality precondition or hypothesis."""


@dataclass
class HardyParams:
    """Parameter block for the constructive bounds.

    cone=True restricts the admissible class to the nonnegative cone on top
    of the zero-extension (compact-support proxy).  p1, q default to p; k
    defaults to m-1 (one-term right-hand side).  p0 is required for cases B
    and D; A0 (theta cases) defaults to twice the unconstrained Poincaré
    constant of the capacity grid and is echoed in reports.
    """

    m: int
    k: int | None = None
    h_order: int = 0
    p: float = 2.0
    p1: float | None = None
    q: float | None = None
    s: float = 0.0
    lam: float = 0.5
    case: str = "A"
    p0: float | None = None
    form: str = "integral-6.24"
    cone: bool = False
    A0: float | None = None
    dim_loc_value: float | None = None
    alpha_label: str = "alpha"

    def __post_init__(self):
        if self.k is None:
            self.k = self.m - 1
        if self.p1 is None:
            self.p1 = self.p
        if self.q is None:
            self.q = self.p
        if self.case not in CASES:
            raise HardyError(f"unknown case {self.case!r}")
        if self.form not in FORMS:
            raise HardyError(f"unknown form {self.form!r}")
        if self.m < 1 or not (0 <= self.k <= self.m - 1):
            raise HardyError("need m >= 1 and 0 <= k <= m-1")
        if self.p < 1:
            raise HardyError("p must be >= 1")

    @property
    def r(self) -> float:
        """[p, p1] = max(p, p1)."""
        return max(self.p, self.p1)

    def theta_case(self) -> bool:
        return self.case in ("C", "D")

    def capacity_exponent(self) -> float:
        if self.case in ("B", "D"):
            if self.p0 is None:
                raise HardyError(f"case {self.case} requires p0")
            return self.p0
        return self.p

    def to_record(self) -> dict:
        return {
            "m": self.m, "k": self.k, "h_order": self.h_order, "p": self.p,
            "p1": self.p1, "q": self.q, "s": self.s, "lambda": self.lam,
            "case": self.case, "p0": self.p0, "form": self.form,
            "cone": self.cone, "A0": self.A0,
            "dim_loc_value": self.dim_loc_value,
            "alpha_label": self.alpha_label,
        }


def weight_exponents(params: HardyParams, dim: int):
    """The weight exponents (t, s1) plus precondition checks for the form.

    s1 = -(m-k-1)p1 - N + (p1/p)(s+N) always; t depends on the form:
    Hölder form t = m - h - lambda - (s+N)/p, integral form
    t = mq - (q/p - 1)N - (q/p)s.  Violated preconditions raise HardyError
    naming the clause.
    """
    m, k, p, p1, q, s = params.m, params.k, params.p, params.p1, params.q, params.s
    s1 = -(m - k - 1) * p1 - dim + (p1 / p) * (s + dim)
    if params.form == "holder-6.23":
        ho, lam = params.h_order, params.lam
        if not ((m - ho) * p > dim > (m - ho - 1) * p):
            raise HardyError(
                "holder precondition (i) violated: need (m-h)p > N > (m-h-1)p")
        if not (0 < lam <= m - ho - dim / p):
            raise HardyError(
                "holder precondition (ii) violated: need 0 < lambda <= m-h-N/p")
        if not (0 < lam < 1):
            raise HardyError(
                "holder precondition (iii) violated: need 0 < lambda < 1")
        t = m - ho - lam - (s + dim) / p
        return t, s1
    if q is None or q <= 0:
        raise HardyError("integral precondition (i) violated: need q > 0")
    if dim > m * p:
        limit = p * dim / (dim - m * p)
        if q > limit + 1e-12:
            raise HardyError(
                f"integral precondition (i) violated: need q <= pN/(N-mp) = {limit:.6g}")
    elif dim == m * p and not math.isfinite(q):
        raise HardyError(
            "integral precondition (iii) violated: q must be finite for N = mp")
    t = m * q - (q / p - 1.0) * dim - (q / p) * s
    return t, s1


@dataclass
class LsWeightFunction:
    """Cube weights f(Q) in [0,1] with unit l^s sequence norm, used for the
    q < [p,p1] branch (s' = [p,p1]/q, s = s'/(s'-1))."""

    values: np.ndarray
    seq_exponent: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if (v < 0).any() or (v > 1).any():
            raise HardyError("f(Q) must lie in [0,1]")
        nrm = float((v**self.seq_exponent).sum()) ** (1.0 / self.seq_exponent)
        if abs(nrm - 1.0) > 1e-8:
            raise HardyError(f"||f||_ls = {nrm:.6g}, must be 1")
        self.values = v

    @staticmethod
    def sequence_exponent(params: HardyParams) -> float:
        r, q = params.r, params.q
        if q >= r:
            raise HardyError("the cube weight f is only used when q < [p,p1]")
        sprime = r / q
        return sprime / (sprime - 1.0)

    @staticmethod
    def equidistributed(n_cubes: int, params: HardyParams) -> "LsWeightFunction":
        s_seq = LsWeightFunction.sequence_exponent(params)
        c = n_cubes ** (-1.0 / s_seq)
        return LsWeightFunction(np.full(n_cubes, c), s_seq)


# -- per-cube capacities -------------------------------------------------------


@dataclass
class CubeCapacities:
    """Per-cube capacity fields and chain constants for one decomposition.

    lam/lam1 are the reported weight fields (theta values clamped at the
    recorded ceiling so the weighted display stays finite); rep_best and
    chain_best are the per-cube best constants of the reported solve and of
    the assembly chain solve (numerator exponent q).
    """

    lam: np.ndarray
    lam1: np.ndarray
    rep_best: np.ndarray
    chain_best: np.ndarray
    saturated: np.ndarray
    degenerate: np.ndarray
    A0: float
    c2_floor: float
    grid_level: int
    records: list

    def multiplier_field(self, decomp: WhitneyDecomposition) -> np.ndarray:
        """Lambda(x) as a piecewise-constant cell field (outside cells and
        non-finite values 0)."""
        lam = np.where(np.isfinite(self.lam), self.lam, 0.0)
        return np.where(decomp.owner >= 0, lam[decomp.owner], 0.0)


def _constraint_classes(decomp: WhitneyDecomposition, grid_level: int,
                        cone: bool) -> tuple[list, np.ndarray]:
    """Congruence classes of the rescaled zero sets of all cubes.

    Cube i's zero set holds the unit-lattice cells whose centers map into
    complement cells (or beyond the box, under collar padding).  The rescale
    maps are axis-aligned, so one gather builds every zero set; distinct
    masks are then keyed once each by ConstraintSet.canonical_key.  Returns
    (reps, cls): reps[c] is the ConstraintSet of the first cube of class c
    (classes numbered in order of first cube) and cls[i] the class of cube i.
    """
    dom = decomp.domain
    n_cubes, n = decomp.n_cubes, 2**dom.level
    m_cells = 2**grid_level
    unit = (np.arange(m_cells) + 0.5) / m_cells
    origin = decomp.rq_center - decomp.rq_side[:, None] / 2.0
    idx = np.floor((unit * decomp.rq_side[:, None, None] + origin[:, :, None])
                   / dom.h).astype(np.int64)
    axes = [idx[:, a].reshape((n_cubes,) + (1,) * a + (m_cells,)
                              + (1,) * (dom.dim - 1 - a))
            for a in range(dom.dim)]
    # replicate padding continues the domain beyond the box, which the
    # clipped index reads; under collar padding beyond the box is complement
    K = ~dom.inside[tuple(np.clip(ix, 0, n - 1) for ix in axes)]
    if dom.pad_mode == "collar":
        for ix in axes:
            K |= (ix < 0) | (ix >= n)
    rows = K.reshape(n_cubes, -1)
    _, first, inverse = np.unique(
        rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
        return_index=True, return_inverse=True)
    kind = "zero-on-compact-and-nonnegative" if cone else "zero-on-compact"
    class_of: dict[bytes, int] = {}
    mask_class = np.zeros(len(first), dtype=np.int64)
    reps = []
    for u in np.argsort(first):
        cs = ConstraintSet(kind, K[first[u]].copy())
        key = cs.canonical_key()
        if key not in class_of:
            class_of[key] = len(reps)
            reps.append(cs)
        mask_class[u] = class_of[key]
    return reps, mask_class[inverse]


THETA_C2_FLOOR_FRACTION = 1e-6


def per_cube_capacity_field(decomp: WhitneyDecomposition, params: HardyParams,
                            grid_level: int = 4, seed: int = 0) -> CubeCapacities:
    """Capacities of the rescaled complements, one solve per congruence
    class of cubes (_constraint_classes), spread to the cubes by class.

    Reported Lambda(x) follows the case: gamma capacity at exponent p (A),
    p0 (B), theta capacity at p (C), p0 (D); case E uses the gamma capacity
    at k = m-1.  Alongside the reported fields, chain constants for the
    assembly are solved with the numerator at exponent q (they coincide with
    the reported solve when q matches, the common case).  Theta best
    constants are clamped below at a small fraction of A0, which keeps the
    capacity weights finite and only weakens the per-cube inequality.
    Classes are solved in order of their first cube; records is per cube,
    and congruent cubes share their class's record.
    """
    dom = decomp.domain
    pcap = params.capacity_exponent()
    k_eff = params.m - 1 if params.case == "E" else params.k
    theta = params.theta_case()
    holder = params.form == "holder-6.23"
    if theta:
        if k_eff != params.m - 1 or abs(params.p1 - params.p) > 1e-12:
            raise HardyError(
                "theta cases are assembled in the merged one-term shape: "
                "need k = m-1 and p1 = p")
        if holder:
            raise HardyError("theta cases support the integral form only")
    single = (k_eff == params.m - 1)
    p1_eff = pcap if single else params.p1
    A0 = params.A0
    if theta and A0 is None:
        A0 = default_theta_a0(dom.dim, k_eff, p1_eff, grid_level)
    c2_floor = THETA_C2_FLOOR_FRACTION * A0 if theta else 0.0

    den_terms = [(params.m, pcap)] if single else [(k_eff + 1, p1_eff),
                                                   (params.m, pcap)]

    def solve(cs: ConstraintSet):
        if theta:
            rep = theta_capacity(cs, params.m, k_eff, pcap, p1_eff, A0,
                                 grid_level, dom.dim, seed)
            if abs(params.q - pcap) < 1e-12:
                return rep, rep.best_constant
            chain, _, _ = ratio_best_constant(
                cs, grid_level, dom.dim, (0, params.q),
                [(k_eff + 1, p1_eff), (params.m, pcap)], seed, a0=A0)
            return rep, chain
        rep = gamma_capacity(cs, params.m, k_eff, pcap, p1_eff,
                             grid_level, dom.dim, seed)
        if holder:
            chain, _, _ = holder_ratio_best_constant(
                cs, grid_level, dom.dim, params.h_order, params.lam,
                den_terms, seed)
            return rep, chain
        if abs(params.q - pcap) < 1e-12:
            return rep, rep.best_constant
        chain, _, _ = ratio_best_constant(
            cs, grid_level, dom.dim, (0, params.q), den_terms, seed)
        return rep, chain

    # one solve per congruence class, in class order
    reps, cls = _constraint_classes(decomp, grid_level, params.cone)
    solved = [solve(cs) for cs in reps]
    results = [rep for rep, _ in solved]
    if theta:
        rep_best = [max(r.best_constant if math.isfinite(r.best_constant)
                        else 0.0, c2_floor) for r in results]
        chain_best = [max(c if math.isfinite(c) else 0.0, c2_floor)
                      for _, c in solved]
        lam = np.asarray([rb ** (-pcap) for rb in rep_best])[cls]
        degenerate = np.zeros(len(cls), dtype=bool)
    else:
        rep_best = [r.best_constant for r in results]
        chain_best = [c for _, c in solved]
        lam = np.asarray([r.capacity for r in results], dtype=float)[cls]
        degenerate = lam == 0.0
    records = [r.to_record() for r in results]
    return CubeCapacities(
        lam=lam, lam1=lam.copy() if theta else np.ones(len(cls)),
        rep_best=np.asarray(rep_best, dtype=float)[cls],
        chain_best=np.asarray(chain_best, dtype=float)[cls],
        saturated=np.array([r.note == "saturated" for r in results])[cls],
        degenerate=degenerate, A0=A0 if theta else 0.0, c2_floor=c2_floor,
        grid_level=grid_level, records=[records[c] for c in cls])


# -- bound assembly --------------------------------------------------------------


@dataclass
class HardyBoundReport:
    constant_A: float
    per_cube: list
    summation_constant: float
    case: str
    form: str
    direct_estimate: float | None
    sound: bool
    factors: dict
    capacity_floor: float
    flags: list
    params: dict
    s0: float | None = None

    def to_record(self) -> dict:
        return {
            "constant_A": self.constant_A,
            "summation_constant": self.summation_constant,
            "case": self.case, "form": self.form,
            "direct_estimate": self.direct_estimate, "sound": self.sound,
            "factors": self.factors, "capacity_floor": self.capacity_floor,
            "flags": self.flags, "params": self.params, "s0": self.s0,
            "per_cube": self.per_cube,
        }


def _case_sigma(params: HardyParams, dim: int) -> tuple[float, float]:
    """Summation exponent sigma and the case-B/D auxiliary offset a."""
    if params.case in ("A", "C", "E"):
        if params.s >= 0:
            raise HardyError(
                f"hypothesis-violated: case {params.case} requires s < 0")
        return -params.s, 0.0
    p, p0, s = params.p, params.p0, params.s
    if p0 is None or not (1.0 <= p0 < p):
        raise HardyError("hypothesis-violated: cases B/D need 1 <= p0 < p")
    dl = params.dim_loc_value
    if dl is None:
        raise HardyError("cases B/D need a local-dimension estimate "
                         "(set params.dim_loc_value)")
    if not (dl < dim):
        raise HardyError("hypothesis-violated: need dim_loc < N")
    bound = (p - p0) / p0 * (dim - dl)
    if not (s < bound):
        raise HardyError(
            f"hypothesis-violated: need s < (p/p0-1)(N-dim_loc) = {bound:.6g}")
    a = 0.5 * (bound - s)
    return a, a


def constructive_bound(decomp: WhitneyDecomposition, params: HardyParams,
                       f: LsWeightFunction | None = None,
                       field: CubeCapacities | None = None,
                       grid_level: int = 4, seed: int = 0,
                       with_direct: bool = False) -> HardyBoundReport:
    """Assemble the constructive constant for cases A-D.

    Every factor is measured on the decomposition: per-cube best constants
    against the capacity weights (they cancel exactly in the matched-
    exponent cases), the dilation powers of the enlarged-cube sides, the
    per-cube distance extremes standing in for the weight over the cube, the
    packing/summation factor, and the quasinorm constant of the two-term
    split.  The emitted constant_A certifies the flat (capacity-floor
    absorbed) form of the inequality, directly comparable to the Rayleigh
    estimate; the per-cube table carries the Lambda(x) field for the
    weighted form.  Flags name what decided a result without being measured:
    ``saturated-cubes:<n>``, ``capacity-degenerate`` and, in the theta
    cases, ``theta-floor:<n>`` for the contributing cubes whose best
    constant sits on the floor THETA_C2_FLOOR_FRACTION * A0.
    """
    if params.case not in ("A", "B", "C", "D"):
        raise HardyError("constructive_bound covers cases A-D")
    dom = decomp.domain
    dim = dom.dim
    t, s1 = weight_exponents(params, dim)
    sigma, a_offset = _case_sigma(params, dim)
    holder = params.form == "holder-6.23"
    r = params.r
    q = params.q
    if holder and f is not None:
        raise HardyError("the cube weight f belongs to the integral form")
    if not holder and q < r and f is None:
        raise HardyError("q < [p,p1] requires the cube weight function f")
    if f is not None:
        if len(f.values) != decomp.n_cubes:
            raise HardyError("f must assign a weight to every cube")
        expected = LsWeightFunction.sequence_exponent(params) if q < r else None
        if expected is not None and abs(f.seq_exponent - expected) > 1e-9:
            raise HardyError("f carries the wrong sequence exponent")

    if field is None:
        field = per_cube_capacity_field(decomp, params, grid_level, seed)
    pcap = params.capacity_exponent()
    theta = params.theta_case()
    single = (params.k == params.m - 1) and (theta or abs(params.p1 - pcap) < 1e-12)
    pm = pcap

    flags = []
    if field.saturated.any():
        flags.append(f"saturated-cubes:{int(field.saturated.sum())}")
    usable = ~field.saturated
    if field.degenerate[usable].any():
        flags.append("capacity-degenerate")
    contributing = usable & ~field.degenerate

    if theta:
        on_floor = contributing & (field.rep_best <= field.c2_floor)
        if on_floor.any():
            flags.append(f"theta-floor:{int(on_floor.sum())}")

    clamp = 0.5 * dom.h
    h_integrals = None
    if params.case in ("B", "D"):
        expo = (params.s + a_offset) * pm / (params.p - pm)
        h_integrals = decomp.rq_distance_integrals(expo, clamp)

    # per-cube norm-equivalence constants for the two-term route
    a614_cache: dict[tuple, float] = {}

    alpha_sup = 0.0
    K_sup = 0.0
    per_cube = []
    for i in range(decomp.n_cubes):
        if not contributing[i]:
            per_cube.append({
                "cube": i, "level": int(decomp.levels[i]),
                "lambda": float(field.lam[i]), "lambda1": float(field.lam1[i]),
                "skipped": "saturated" if field.saturated[i] else "degenerate",
            })
            continue
        side_r = float(decomp.rq_side[i])
        d_q = max(decomp.min_distance(i), clamp)
        d_max = max(decomp.max_distance(i), clamp)
        if holder:
            # supremum-type left side: no volume factor, quotient rescaling
            base = (d_q if t >= 0 else d_max) ** (-t) \
                * side_r ** (-(params.h_order + params.lam))
        else:
            base = (d_q if t >= 0 else d_max) ** (-t / q) * side_r ** (dim / q)
        h_defect = 1.0
        if h_integrals is not None:
            h_defect = float(h_integrals[i]) \
                ** ((params.p - pm) / (params.p * pm))
        # capacity-weight pairing: Lambda^(1/p) times the chain constant
        if theta:
            beta_pair = (field.A0 + field.chain_best[i]) / field.rep_best[i]
            alpha_i = 0.0
            cmf = beta_pair
        else:
            lam_pow = field.rep_best[i] ** (-pcap / params.p)
            if single:
                alpha_i = 0.0
                cmf = lam_pow * field.chain_best[i]
            else:
                rmap = decomp.rescale_map(i)
                corner = rmap.to_unit(np.array(
                    [c * decomp.side(i) for c in decomp.coords[i]]))
                frac = decomp.side(i) / side_r
                ckey = (round(frac, 6),) + tuple(np.round(corner, 6))
                if ckey not in a614_cache:
                    try:
                        a614 = norm_equivalence_constant(
                            corner, frac, params.m, params.k, pm, params.p1,
                            field.grid_level, dim, seed)
                    except CapacityError:
                        a614 = 1.0
                    a614_cache[ckey] = max(a614, 1.0)
                a614 = a614_cache[ckey]
                w1 = (d_q if s1 >= 0 else d_max) ** (-s1 / params.p1)
                alpha_i = base * lam_pow * field.chain_best[i] * a614 \
                    * side_r ** (params.k + 1 - dim / params.p1) * w1
                cmf = lam_pow * field.chain_best[i] * (1.0 + a614)
        beta_i = base * cmf * side_r ** (params.m - dim / pm) * h_defect
        alpha_sup = max(alpha_sup, alpha_i)
        K_sup = max(K_sup, beta_i**params.p * decomp.diam(i) ** sigma)
        row = {
            "cube": i, "level": int(decomp.levels[i]),
            "lambda": float(field.lam[i]), "lambda1": float(field.lam1[i]),
            "chain_constant": float(field.chain_best[i]),
            "alpha": float(alpha_i), "beta": float(beta_i),
            "holder_defect": float(h_defect),
        }
        if f is not None:
            row["f"] = float(f.values[i])
        per_cube.append(row)

    packing = packing_constant(dim)
    summation = packing / (1.0 - 2.0 ** (-sigma))
    m_term = (K_sup * summation) ** (1.0 / params.p)
    if single:
        quasi = 1.0
        constant_weighted = m_term
    else:
        quasi = 2.0 ** ((r - 1.0) / r)
        constant_weighted = quasi * max(alpha_sup, m_term)

    lam_fin = field.lam[contributing]
    lam_fin = lam_fin[np.isfinite(lam_fin)]
    lam_floor = float(lam_fin.min()) if len(lam_fin) else 0.0
    if lam_floor > 0 and math.isfinite(constant_weighted):
        constant_flat = constant_weighted / lam_floor ** (1.0 / params.p)
    else:
        constant_flat = math.inf
        if "capacity-degenerate" not in flags:
            flags.append("capacity-degenerate")

    constant_A = constant_flat if math.isfinite(constant_flat) else constant_weighted
    factors = {
        "alpha_sup": alpha_sup,
        "dilation_packing_K": K_sup,
        "packing_constant": packing,
        "summation_factor": summation,
        "quasinorm_factor": quasi,
        "capacity_floor": lam_floor,
        "constant_weighted_form": constant_weighted,
        "constant_flat_form": constant_flat,
        "sigma": sigma,
        "case_offset_a": a_offset,
        "t": t, "s1": s1,
        "A0": field.A0,
        "theta_c2_floor": field.c2_floor,
        "norm_convention": "lp-of-gradients",
        "clamp": clamp,
        "capacity_grid_level": field.grid_level,
        "capacity_proxy_caveat": "grid capacities stand in for Sobolev "
                                 "capacities up to unvalidated equivalence "
                                 "constants",
    }

    direct = None
    sound = True
    if with_direct:
        direct = direct_best_constant(dom, params, seed=seed)
        sound = bool(constant_A >= direct)
    return HardyBoundReport(
        constant_A=float(constant_A), per_cube=per_cube,
        summation_constant=summation, case=params.case, form=params.form,
        direct_estimate=direct, sound=sound, factors=factors,
        capacity_floor=lam_floor, flags=flags, params=params.to_record())


# -- direct Rayleigh estimate ------------------------------------------------------


def _embedding_matrix(domain: GridDomain, pad: int) -> sp.csr_matrix:
    """Sparse map from inside-cell DOFs to the zero-padded full grid."""
    n = 2**domain.level
    np_ = n + 2 * pad
    inside_idx = np.nonzero(domain.inside.reshape(-1))[0]
    coords = np.array(np.unravel_index(inside_idx, domain.shape)).T + pad
    flat = np.zeros(len(coords), dtype=np.int64)
    for a in range(domain.dim):
        flat = flat * np_ + coords[:, a]
    data = np.ones(len(coords))
    return sp.csr_matrix((data, (flat, np.arange(len(coords)))),
                         shape=(np_**domain.dim, len(coords)))


def _anchor_weight(domain: GridDomain, pad: int, exponent: float,
                   clamp: float) -> np.ndarray:
    """max(delta, clamp)^exponent sampled at padded anchors (clipped cells)."""
    n = 2**domain.level
    base = np.maximum(domain.distance, clamp) ** exponent
    idx = np.clip(np.arange(n + 2 * pad) - pad, 0, n - 1)
    out = base
    for ax in range(domain.dim):
        out = np.take(out, idx, axis=ax)
    return out.reshape(-1)


def direct_best_constant(domain: GridDomain, params: HardyParams,
                         seed: int = 0) -> float:
    """Directly estimated best constant of the scale-matched inequality

        (int |u|^p delta^(s-mp))^(1/p) <= A (int |grad^m u|^p delta^s)^(1/p)

    over grid functions vanishing outside the domain (intersected with the
    nonnegative cone when the admissible class demands).  Exact generalized
    eigensolve for p = 2 (capacity._eigen_best_constant, with the weighted
    cell masses on the diagonal), projected multi-start ascent otherwise.
    The value is a lower bound for the true best constant.
    """
    if params.form != "integral-6.24":
        raise HardyError("direct estimates use the integral form")
    if abs(params.q - params.p) > 1e-12:
        raise HardyError("direct estimates require q = p")
    m, p, s = params.m, params.p, params.s
    # Boundary-consistent clamp: midpoint sampling of the singular weight
    # against functions vanishing at the interface overweights the first
    # cell by ~4/3; 3h/4 restores the conforming boundary-cell mass.
    clamp = DIRECT_WEIGHT_CLAMP_CELLS * domain.h
    hN = domain.h**domain.dim
    ops = gradient_form_ops(2**domain.level + 2 * m, domain.dim, m, domain.h)
    E = _embedding_matrix(domain, m)
    w_top = _anchor_weight(domain, m, s, clamp) * hN
    inside_flat = domain.inside.reshape(-1)
    w_low = (np.maximum(domain.distance, clamp).reshape(-1)[inside_flat]
             ** (s - m * p)) * hN

    if abs(p - 2) < 1e-12 and not params.cone:
        A_mat = None
        for mult, op in ops:
            opE = (op @ E).tocsr()
            term = opE.T @ sp.diags(w_top * mult) @ opE
            A_mat = term if A_mat is None else A_mat + term
        A_mat = A_mat.tocsc()
        return _eigen_best_constant(A_mat, np.ones(len(w_low), dtype=bool),
                                    w_low)[0]

    opEs = [(mult, (op @ E).tocsr()) for mult, op in ops]
    best, _ = _ratio_descent(np.zeros(E.shape[1], dtype=bool), params.cone,
                             seed, (None, p, w_low), [(opEs, p, w_top)],
                             max_iters=400)
    return best


# -- Case E: positive weight exponents by a change of dependent variable ----------


def _case_a_lower_order_constant(decomp: WhitneyDecomposition,
                                 params: HardyParams, beta: float,
                                 grid_level: int, seed: int,
                                 cap_cache: dict) -> float:
    """Constant A~(beta) of the lower-order sum bound at weight -beta:

        sum_{k<m} (int |grad^k u|^p delta^(-beta-(m-k)p))^(1/p)
            <= A~(beta) (int |grad^m u|^p delta^(-beta))^(1/p)

    assembled with the one-term machinery per gradient order, but with the
    Whitney summation step replaced by its exact measured form on this
    decomposition: the per-point covering multiplicity

        W_k(x) = sum_{Q : x in R_Q} coef_Q(k) * delta(x)^beta

    whose maximum certifies the summed inequality without the generic
    packing constant (the feasibility exponent is extracted from measured
    constants, so looseness here would push s0 below grid scale).
    """
    dom = decomp.domain
    dim, m, p = dom.dim, params.m, params.p
    clamp = 0.5 * dom.h
    delta_b = np.where(dom.inside, np.maximum(dom.distance, clamp), 0.0) ** beta

    if "percube" not in cap_cache:
        reps, cls = _constraint_classes(decomp, grid_level, params.cone)
        per_class = [[ratio_best_constant(cs, grid_level, dim, (k, p),
                                          [(m, p)], seed)[0]
                      for k in range(m)] for cs in reps]
        cap_cache["percube"] = [per_class[c] for c in cls]
    percube = cap_cache["percube"]

    total = 0.0
    for k in range(m):
        t_k = beta + (m - k) * p
        w_field = np.zeros(dom.shape)
        finite = True
        for i in range(decomp.n_cubes):
            c_q = percube[i][k]
            if not math.isfinite(c_q):
                finite = False
                break
            d_q = max(decomp.min_distance(i), clamp)
            coef = d_q ** (-t_k) * (c_q * decomp.rq_side[i] ** (m - k)) ** p
            w_field[decomp.rq_slice(i)] += coef * delta_b[decomp.rq_slice(i)]
        if not finite:
            return math.inf
        total += float(w_field.max()) ** (1.0 / p)
    return total


def _commutator_norm(decomp: WhitneyDecomposition, params: HardyParams,
                     beta: float, seed: int, n_probes: int = 12) -> float:
    """Measured operator constant A'' of the change-of-variable defect:

        || |grad^m (u delta^g)| - delta^g |grad^m u| ||_{L^p(delta^-beta)}
            <= A'' * (2 beta / p) * sum_{k<m} ||grad^k u||_{L^p(delta^(-beta-(m-k)p))}

    with g = -2 beta / p, maximized over random bump probes.
    """
    from .norms import DiscreteFunction, WeightSpec, gradient_seminorm, \
        gradient_magnitude, _weight_on_anchors
    dom = decomp.domain
    m, p = params.m, params.p
    rng = np.random.default_rng(seed + 7)
    gexp = -2.0 * beta / p
    gamma = 2.0 * beta / p
    clamp = 0.5 * dom.h
    dreg = np.maximum(dom.distance, clamp)
    worst = 0.0
    grids = dom.center_grid()
    for _ in range(n_probes):
        c = rng.uniform(0.25, 0.75, size=dom.dim)
        w = rng.uniform(0.08, 0.3)
        r2 = sum((g - cc) ** 2 for g, cc in zip(grids, c)) / w**2
        u_vals = np.exp(-np.minimum(r2, 50.0)) * dom.inside
        u = DiscreteFunction(dom, u_vals)
        v = DiscreteFunction(dom, u_vals * dreg**gexp)
        mag_v, widx = gradient_magnitude(v, m)
        mag_u, _ = gradient_magnitude(u, m)
        danch = _weight_on_anchors(dreg, widx)
        wanch = _weight_on_anchors(dreg**(-beta), widx)
        hN = dom.h**dom.dim
        defect = np.abs(mag_v - danch**gexp * mag_u)
        lhs = float((defect**p * wanch).sum() * hN) ** (1.0 / p)
        rhs = 0.0
        for k in range(m):
            wk = WeightSpec(exponent=-(beta + (m - k) * p), clamp=clamp)
            rhs += gradient_seminorm(u, k, p, wk)
        if rhs > 1e-300 and gamma > 0:
            worst = max(worst, lhs / (gamma * rhs))
    return worst


def case_e_shift(decomp: WhitneyDecomposition, params: HardyParams,
                 grid_level: int = 4, seed: int = 0,
                 beta_max: float = 2.0) -> HardyBoundReport:
    """Largest positive weight exponent s0 reachable from the negative-s
    bounds by the dependent-variable change u -> u * delta^(-2 beta / p).

    Feasibility of a candidate beta is the dominance condition
    beta * A''(beta) * A~(beta) <= p/4, whose left side collapses to a
    positive power of beta only for p > 1; for p = 1 no positive s0 is
    claimed.  Requires a uniform capacity floor b > 0 at index (m, m-1).
    """
    dom = decomp.domain
    p = params.p
    t_check, _ = weight_exponents(params, dom.dim)
    if params.q < p:
        raise HardyError("case E requires q >= p")
    field = per_cube_capacity_field(decomp, params, grid_level, seed)
    usable = ~field.saturated
    b = float(field.lam[usable].min()) if usable.any() else 0.0
    flags = []
    report_params = params.to_record()
    packing = packing_constant(dom.dim)
    if b <= 0:
        raise HardyError("hypothesis-violated: capacity floor b > 0 fails")
    if p <= 1.0:
        return HardyBoundReport(
            constant_A=math.inf, per_cube=[], summation_constant=0.0,
            case="E", form=params.form, direct_estimate=None, sound=True,
            factors={"capacity_floor_b": b, "feasibility": "degenerate at p=1"},
            capacity_floor=b, flags=["no-positive-s0"],
            params=report_params, s0=0.0)

    cap_cache: dict = {}

    def feasible(beta):
        a_tilde = _case_a_lower_order_constant(
            decomp, params, beta, grid_level, seed, cap_cache)
        if not math.isfinite(a_tilde):
            return False, a_tilde, math.inf
        a_dd = _commutator_norm(decomp, params, beta, seed)
        return beta * a_dd * a_tilde <= p / 4.0, a_tilde, a_dd

    lo, hi = 0.0, beta_max
    ok_hi, at_hi, add_hi = feasible(hi)
    if ok_hi:
        beta_star, a_tilde, a_dd = hi, at_hi, add_hi
    else:
        ok_tiny, a_tilde, a_dd = feasible(1e-3)
        if not ok_tiny:
            raise HardyError("no-positive-s0: dominance fails down to grid scale")
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            ok, at_mid, add_mid = feasible(mid)
            if ok:
                lo, a_tilde, a_dd = mid, at_mid, add_mid
            else:
                hi = mid
        beta_star = lo
    constant = 2.0 * a_tilde
    summation = packing / (1.0 - 2.0 ** (-beta_star))
    return HardyBoundReport(
        constant_A=float(constant), per_cube=[],
        summation_constant=summation, case="E", form=params.form,
        direct_estimate=None, sound=True,
        factors={"capacity_floor_b": b, "A_tilde": a_tilde,
                 "A_doubleprime": a_dd, "beta": beta_star,
                 "packing_constant": packing},
        capacity_floor=b, flags=flags, params=report_params,
        s0=float(beta_star))


# -- Corollary-style hypothesis gates ----------------------------------------------


COROLLARY_CASES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x")


def _projection_condition(decomp: WhitneyDecomposition, grid_level: int,
                          r_dim: int) -> float:
    """Smallest (over cubes) side of the largest r-dimensional cube inside
    the coordinate-axis projections of the rescaled complement.

    The value is invariant under the cube symmetry group (axis permutations
    permute the projections, flips keep the largest full sub-cube), so one
    cube per congruence class stands for its class."""
    dom = decomp.domain
    from itertools import combinations
    worst = math.inf
    for cs in _constraint_classes(decomp, grid_level, cone=False)[0]:
        K = cs.K
        best_here = 0.0
        if r_dim == 0:
            best_here = 1.0 if K.any() else 0.0
        else:
            for keep in combinations(range(dom.dim), r_dim):
                drop = tuple(a for a in range(dom.dim) if a not in keep)
                proj = K.any(axis=drop) if drop else K
                side = _largest_cube_side(proj)
                best_here = max(best_here, side / K.shape[0])
        worst = min(worst, best_here)
    return 0.0 if worst is math.inf else worst


def _largest_cube_side(mask: np.ndarray) -> int:
    """Side (cells) of the largest axis-aligned full cube inside a mask."""
    if not mask.any():
        return 0
    from scipy import ndimage
    side = 1
    while True:
        size = side + 1
        if size > min(mask.shape):
            return side
        hit = ndimage.minimum_filter(mask.astype(np.uint8), size=size,
                                     mode="constant", cval=0)
        if hit.any():
            side = size
        else:
            return side


def _boundary_in_hyperplane(domain: GridDomain) -> bool:
    """True when all boundary cells lie in a common hyperplane (SVD rank)."""
    from .dimension import boundary_cells_padded

    cells = boundary_cells_padded(domain)
    pts = np.argwhere(cells).astype(float)
    if len(pts) < 2:
        return True
    pts -= pts.mean(axis=0)
    svals = np.linalg.svd(pts, compute_uv=False)
    return bool(svals[-1] < 1e-9 * max(svals[0], 1.0))


def corollary_619_check(domain: GridDomain, decomp: WhitneyDecomposition,
                        case_id: str, params: HardyParams,
                        grid_level: int = 4, seed: int = 0,
                        b_threshold: float = 1e-4,
                        r_dim: int | None = None,
                        geometric_b: float = 0.05,
                        asserted_selfsimilar: bool = False):
    """Hypothesis gate + bound instantiation for the one-term corollary cases.

    Returns (hypotheses_ok, report_or_None, details).  Capacity lower bounds
    are grid gamma-capacity proxies for the Sobolev capacities (equivalence
    constants unvalidated, recorded in the report); the projection condition
    is checked against coordinate hyperplanes only; cases ix/x additionally
    require the caller-asserted self-similarity flag plus the signature gate.
    """
    if case_id not in COROLLARY_CASES:
        raise HardyError(f"unknown corollary case {case_id!r}")
    details = {"case": case_id}
    failures = []
    dim = domain.dim
    p = params.p

    cone_cases = ("iii", "iv", "vii", "viii")
    cone = case_id in cone_cases
    m_eff = 2 if cone else params.m
    cap_m = {"i": 1, "ii": 1, "iii": 2, "iv": 2}.get(case_id, m_eff)
    p0_cases = ("ii", "iv", "vi", "viii", "x")
    use_p0 = case_id in p0_cases
    if use_p0 and (params.p0 is None or not (1.0 <= params.p0 < p)):
        failures.append("p0 missing or outside [1, p)")
    pcap = params.p0 if use_p0 else p

    # capacity floor over cubes (cases i-iv and the global-capacity gate)
    if case_id in ("i", "ii", "iii", "iv") and not failures:
        probe = HardyParams(m=cap_m, k=cap_m - 1, p=pcap, case="A", s=-1.0,
                            cone=cone)
        cfield = per_cube_capacity_field(decomp, probe, grid_level, seed)
        usable = ~cfield.saturated
        b = float(cfield.lam[usable].min()) if usable.any() else 0.0
        details["capacity_floor"] = b
        if not (b > b_threshold):
            failures.append(
                f"capacity lower bound fails: min grid capacity {b:.3g} <= "
                f"threshold {b_threshold:.3g}")

    if case_id in ("v", "vi", "vii", "viii"):
        if r_dim is None:
            failures.append("projection cases need r_dim")
        else:
            gate = {"v": p > dim - r_dim, "vi": (params.p0 or 0) > dim - r_dim,
                    "vii": 2 * p > dim - r_dim,
                    "viii": 2 * (params.p0 or 0) > dim - r_dim}[case_id]
            if not gate:
                failures.append("exponent vs N-r condition fails")
            b_geo = _projection_condition(decomp, grid_level, r_dim)
            details["projection_b"] = b_geo
            if not (b_geo >= geometric_b):
                failures.append(
                    f"projection condition fails: min r-cube side {b_geo:.3g} "
                    f"< {geometric_b:.3g}")

    if case_id in ("ix", "x"):
        from .dimension import selfsimilarity_signature
        if not asserted_selfsimilar:
            failures.append("self-similarity not asserted by caller")
        disc, flagged = selfsimilarity_signature(decomp)
        details["signature_discrepancy"] = disc
        if flagged:
            failures.append(
                f"self-similarity signature gate fails ({len(flagged)} pairs)")
        if _boundary_in_hyperplane(domain):
            failures.append("boundary is contained in a hyperplane")
        probe = HardyParams(m=params.m, k=params.m - 1, p=pcap, case="A",
                            s=-1.0, cone=False)
        cfield = per_cube_capacity_field(decomp, probe, grid_level, seed)
        usable = ~cfield.saturated
        b = float(cfield.lam[usable].min()) if usable.any() else 0.0
        details["capacity_floor"] = b
        if not (b > b_threshold):
            failures.append("global capacity proxy vanishes")

    dim_loc_cases = ("ii", "iv", "vi", "viii", "x")
    if case_id in dim_loc_cases and not failures:
        from .dimension import DimensionError, dim_loc
        dl = params.dim_loc_value
        if dl is None:
            try:
                dl = dim_loc(decomp).value
            except DimensionError as exc:
                details["failures"] = [f"dim_loc not estimable: {exc}"]
                return False, None, details
        details["dim_loc"] = dl
        bound = (p / params.p0 - 1.0) * (dim - dl)
        details["s_bound"] = bound
        if not (params.s < bound):
            failures.append(
                f"s = {params.s} >= (p/p0-1)(N-dim_loc) = {bound:.6g}")
        if not (dl < dim):
            failures.append("dim_loc < N fails")
    else:
        # s-range clauses for the s0-gated cases
        if case_id in ("i", "iii", "v", "vii", "ix") and params.s >= 0:
            if case_id == "ix":
                failures.append("case ix requires s < 0")
            elif p <= 1.0:
                failures.append("s >= 0 requires p > 1")

    if failures:
        details["failures"] = failures
        return False, None, details

    # instantiate the one-term bound
    inst = HardyParams(
        m=m_eff, k=m_eff - 1, p=p, p1=p, q=params.q, s=params.s,
        case=("B" if (case_id in dim_loc_cases) else "A"),
        p0=params.p0, cone=cone, form="integral-6.24",
        dim_loc_value=details.get("dim_loc"))
    if inst.case == "A" and params.s >= 0:
        # route through the positive-exponent shift
        e_params = HardyParams(m=m_eff, k=m_eff - 1, p=p, q=params.q,
                               s=params.s, case="E", cone=cone)
        report = case_e_shift(decomp, e_params, grid_level, seed)
        if not (report.s0 and params.s < report.s0):
            details["failures"] = [
                f"s = {params.s} not below computed s0 = {report.s0}"]
            return False, None, details
        details["s0"] = report.s0
        return True, report, details
    try:
        report = constructive_bound(decomp, inst, grid_level=grid_level,
                                    seed=seed)
    except HardyError as exc:
        details["failures"] = [str(exc)]
        return False, None, details
    return True, report, details
