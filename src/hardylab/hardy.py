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
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np
import scipy.sparse as sp
from scipy import ndimage

from .grids import GridDomain
from .norms import (WEIGHT_FLOOR_CELLS, DiscreteFunction, distance_weight,
                    gradient_magnitude, gradient_seminorm, multi_indices,
                    multinomial)
from .whitney import WhitneyDecomposition, packing_constant
from .dimension import (DimensionError, boundary_cells_padded, dim_loc,
                        selfsimilarity_signature)
from .capacity import (
    CapacityError,
    ConstraintSet,
    check_grid_level,
    default_theta_a0,
    _eigen_best_constant,
    _pencil_best_constants,
    _ratio_descent,
    _with_transposes,
    gamma_capacities,
    difference_operator,
    holder_ratio_best_constant,
    norm_equivalence_constant,
    ratio_best_constant,
    theta_capacity,
)

CASES = ("A", "B", "C", "D", "E")
FORMS = ("holder-6.23", "integral-6.24")
# distance floor, in cells, of the direct estimate's weights: midpoint
# sampling of the singular weight against functions vanishing at the
# interface overweights the first cell by ~4/3; 3h/4 restores the
# conforming boundary-cell mass
DIRECT_WEIGHT_CLAMP_CELLS = 0.75
# upper end of the case-E bisection for the weight shift beta
CASE_E_BETA_MAX = 2.0


class HardyError(ValueError):
    """Violated Hardy-inequality precondition or hypothesis."""


@dataclass
class HardyParams:
    """Parameter block for the constructive bounds.

    cone=True restricts the admissible class to the nonnegative cone on top
    of the zero-extension (compact-support proxy).  p1, q default to p; k
    defaults to m-1 (one-term right-hand side).  p0 is required for cases B
    and D; A0 (theta cases) defaults to twice the unconstrained Poincaré
    constant of the capacity grid and is echoed in reports.  An A0 given
    to another case would be echoed but read by no solve, so it is
    rejected.
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
        if self.A0 is not None and not self.theta_case():
            raise HardyError("A0 is read by the theta cases C and D only")
        if self.p < 1:
            raise HardyError("p must be >= 1")
        for name in ("p1", "q"):
            if not getattr(self, name) > 0:
                raise HardyError(f"{name} must be positive")

    @property
    def r(self) -> float:
        """[p, p1] = max(p, p1)."""
        return max(self.p, self.p1)

    def theta_case(self) -> bool:
        return self.case in ("C", "D")

    def one_term(self) -> bool:
        """k = m-1: both right-hand terms are grad^m norms, and the one-term
        route, which reads no p1, is the tighter one."""
        return self.k == self.m - 1

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


# cubes whose zero sets one gather of the class map builds
CLASS_CHUNK_CUBES = 256


def _constraint_classes(decomp: WhitneyDecomposition, grid_level: int,
                        cone: bool) -> tuple[list, np.ndarray]:
    """Congruence classes of the rescaled zero sets of all cubes.

    Cube i's zero set holds the unit-lattice cells whose centers map into
    complement cells (or beyond the box, under collar padding).  The rescale
    maps are axis-aligned, so one gather builds the zero sets of a chunk of
    CLASS_CHUNK_CUBES cubes.  The masks are then looked up in cube order: a
    mask whose bytes are not yet mapped opens a class, and the bytes of all
    its images under the cube's symmetries (_cube_images) map to it, so
    every later mask of the class is one dict lookup.  Returns (reps, cls):
    reps[c] is the ConstraintSet of the first cube of class c (classes
    numbered in order of first cube) and cls[i] the class of cube i.
    """
    dom = decomp.domain
    n_cubes, n = decomp.n_cubes, 2**dom.level
    m_cells = 2**grid_level
    unit = (np.arange(m_cells) + 0.5) / m_cells
    idx = np.floor((unit * decomp.rq_side[:, None, None]
                    + decomp.rq_origin[:, :, None]) / dom.h).astype(np.int64)
    class_of: dict[bytes, int] = {}
    cls = np.empty(n_cubes, dtype=np.int64)
    reps = []
    for c0 in range(0, n_cubes, CLASS_CHUNK_CUBES):
        chunk = idx[c0:c0 + CLASS_CHUNK_CUBES]
        axes = [chunk[:, a].reshape((len(chunk),) + (1,) * a + (m_cells,)
                                    + (1,) * (dom.dim - 1 - a))
                for a in range(dom.dim)]
        # replicate padding continues the domain beyond the box, which the
        # clipped index reads; under collar padding beyond the box is
        # complement
        K = ~dom.inside[tuple(np.clip(ix, 0, n - 1) for ix in axes)]
        if dom.pad_mode == "collar":
            for ix in axes:
                K |= (ix < 0) | (ix >= n)
        for i, mask in enumerate(K, c0):
            c = class_of.get(mask.tobytes())
            if c is None:
                c = len(reps)
                reps.append(ConstraintSet(mask.copy(), cone))
                for img in _cube_images(mask):
                    class_of[img.tobytes()] = c
            cls[i] = c
    return reps, cls


def _cube_images(K: np.ndarray):
    """The images of K under the symmetries of the cube, the N! transposes
    of its axes each with the 2^N sets of flips (repeats included)."""
    flips = [tuple(slice(None, None, step) for step in steps)
             for steps in product((1, -1), repeat=K.ndim)]
    for perm in permutations(range(K.ndim)):
        base = K.transpose(perm)
        for flip in flips:
            yield base[flip]


THETA_C2_FLOOR_FRACTION = 1e-6


def per_cube_capacity_field(decomp: WhitneyDecomposition, params: HardyParams,
                            grid_level: int, seed: int) -> CubeCapacities:
    """Capacities of the rescaled complements, one solve per congruence
    class of cubes (_constraint_classes), spread to the cubes by class.

    Reported Lambda(x) follows the case: gamma capacity at exponent p (A),
    p0 (B), theta capacity at p (C), p0 (D).  Alongside the reported
    fields, chain constants for the assembly are solved with the numerator
    at exponent q (they coincide with the reported solve when q matches,
    the common case).  Theta best constants are clamped below at a small
    fraction of A0, which keeps the capacity weights finite and only
    weakens the per-cube inequality.  Classes are solved in order of their
    first cube, the gamma classes that are eigensolves together in one
    block (capacity.gamma_capacities), then the chain constants; records
    is per cube, and congruent cubes share their class's record.
    """
    check_grid_level(grid_level, params.m)
    dom = decomp.domain
    pcap = params.capacity_exponent()
    theta = params.theta_case()
    holder = params.form == "holder-6.23"
    single = params.one_term()
    if theta:
        if not single or abs(params.p1 - params.p) > 1e-12:
            raise HardyError(
                "theta cases are assembled in the merged one-term shape: "
                "need k = m-1 and p1 = p")
        if holder:
            raise HardyError("theta cases support the integral form only")
    p1_eff = pcap if single else params.p1
    A0 = params.A0
    if theta and A0 is None:
        A0 = default_theta_a0(dom.dim, params.k, p1_eff, grid_level)
    c2_floor = THETA_C2_FLOOR_FRACTION * A0 if theta else 0.0

    # chain denominators; theta moves the first term up, scaled by A0
    a0 = A0 if theta else 0.0
    den_terms = [(params.m, pcap)] if single and not theta else [
        (params.k + 1, p1_eff), (params.m, pcap)]

    def chain(cs: ConstraintSet, rep):
        if holder:
            return holder_ratio_best_constant(
                cs, grid_level, dom.dim, params.h_order, params.lam,
                den_terms, seed)[0]
        if abs(params.q - pcap) < 1e-12:
            return rep.best_constant
        return ratio_best_constant(cs, grid_level, dom.dim, (0, params.q),
                                   den_terms, seed, a0)[0]

    reps, cls = _constraint_classes(decomp, grid_level, params.cone)
    if theta:
        results = [theta_capacity(cs, params.m, params.k, pcap, p1_eff, A0,
                                  grid_level, dom.dim, seed) for cs in reps]
    else:
        results = gamma_capacities(reps, params.m, params.k, pcap, p1_eff,
                                   grid_level, dom.dim, seed)
    chains = [chain(cs, rep) for cs, rep in zip(reps, results)]
    if theta:
        rep_best = [max(r.best_constant if math.isfinite(r.best_constant)
                        else 0.0, c2_floor) for r in results]
        chain_best = [max(c if math.isfinite(c) else 0.0, c2_floor)
                      for c in chains]
        lam = np.asarray([rb ** (-pcap) for rb in rep_best])[cls]
        degenerate = np.zeros(len(cls), dtype=bool)
    else:
        rep_best = [r.best_constant for r in results]
        chain_best = chains
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


def _norm_equivalence_constants(decomp: WhitneyDecomposition,
                                cubes: np.ndarray, params: HardyParams,
                                p: float, grid_level: int, seed: int):
    """Per-cube constants of the norm-equivalence lemma for the two-term
    route (capacity.norm_equivalence_constant, raised to at least 1), and
    the mask of cubes where the lemma could not be measured and 1 stands in.

    The lemma's subcube is the cube's image in the unit image of R_Q.  The
    solve rounds its side and corner to whole capacity-grid cells, so it
    runs once per distinct rounded (side, corner)."""
    side_q = decomp.sides()[cubes]
    side_r = decomp.rq_side[cubes]
    corner = (decomp.coords[cubes] * side_q[:, None]
              - decomp.rq_origin[cubes]) / side_r[:, None]
    frac = side_q / side_r
    keys = np.rint(np.column_stack([frac, corner]) * 2**grid_level)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    const = np.ones(len(first))
    failed = np.zeros(len(first), dtype=bool)
    for u, i in enumerate(first):
        try:
            const[u] = max(norm_equivalence_constant(
                corner[i], frac[i], params.m, params.k, p, params.p1,
                grid_level, decomp.domain.dim, seed), 1.0)
        except CapacityError:
            failed[u] = True
    return const[inverse], failed[inverse]


def constructive_bound(decomp: WhitneyDecomposition, params: HardyParams,
                       grid_level: int, seed: int,
                       f: LsWeightFunction | None = None,
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
    ``saturated-cubes:<n>``, ``capacity-degenerate``, in the theta cases
    ``theta-floor:<n>`` for the contributing cubes whose best constant sits
    on the floor THETA_C2_FLOOR_FRACTION * A0, and in the two-term route
    ``norm-equivalence-fallback:<n>`` for the contributing cubes whose
    norm-equivalence constant could not be measured (1 stands in).
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

    field = per_cube_capacity_field(decomp, params, grid_level, seed)
    pcap = params.capacity_exponent()
    theta = params.theta_case()
    single = params.one_term()
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

    # per-cube factors over the contributing cubes, multiplied in the
    # order of the per-cube inequality
    cubes = np.flatnonzero(contributing)
    side_r = decomp.rq_side[cubes]
    d_q = decomp.dist_min[cubes]
    d_max = decomp.dist_max[cubes]
    if holder:
        # supremum-type left side: no volume factor, quotient rescaling
        base = (d_q if t >= 0 else d_max) ** (-t) \
            * side_r ** (-(params.h_order + params.lam))
    else:
        base = (d_q if t >= 0 else d_max) ** (-t / q) * side_r ** (dim / q)
    h_defect = np.ones(len(cubes))
    if params.case in ("B", "D"):
        expo = (params.s + a_offset) * pm / (params.p - pm)
        h_defect = decomp.rq_distance_integrals(expo)[cubes] \
            ** ((params.p - pm) / (params.p * pm))
    chain = field.chain_best[cubes]
    # capacity-weight pairing: Lambda^(1/p) times the chain constant
    alpha = np.zeros(len(cubes))
    if theta:
        cmf = (field.A0 + chain) / field.rep_best[cubes]
    else:
        lam_pow = field.rep_best[cubes] ** (-pcap / params.p)
        if single:
            cmf = lam_pow * chain
        else:
            a614, fallback = _norm_equivalence_constants(
                decomp, cubes, params, pm, field.grid_level, seed)
            if fallback.any():
                flags.append(f"norm-equivalence-fallback:{int(fallback.sum())}")
            w1 = (d_q if s1 >= 0 else d_max) ** (-s1 / params.p1)
            alpha = base * lam_pow * chain * a614 \
                * side_r ** (params.k + 1 - dim / params.p1) * w1
            cmf = lam_pow * chain * (1.0 + a614)
    beta = base * cmf * side_r ** (params.m - dim / pm) * h_defect
    alpha_sup = float(np.max(alpha, initial=0.0))
    K_sup = float(np.max(beta**params.p * decomp.diams()[cubes] ** sigma,
                         initial=0.0))

    levels = decomp.levels.tolist()
    lam, lam1 = field.lam.tolist(), field.lam1.tolist()
    f_vals = f.values.tolist() if f is not None else None
    assembled = iter(zip(chain.tolist(), alpha.tolist(), beta.tolist(),
                         h_defect.tolist()))
    per_cube = []
    for i, ok in enumerate(contributing.tolist()):
        row = {"cube": i, "level": levels[i], "lambda": lam[i],
               "lambda1": lam1[i]}
        if not ok:
            row["skipped"] = ("saturated" if field.saturated[i]
                              else "degenerate")
        else:
            row.update(zip(("chain_constant", "alpha", "beta",
                            "holder_defect"), next(assembled)))
            if f_vals is not None:
                row["f"] = f_vals[i]
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
        "clamp": WEIGHT_FLOOR_CELLS * dom.h,
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


def _inside_op(domain: GridDomain, alpha: tuple[int, ...]) -> sp.csr_matrix:
    """D^alpha of the inside-cell values (C order) zero-extended by |alpha|
    cells on every side, one row per anchor of the padded lattice: the
    padded-lattice operator restricted to the inside cells' columns, built
    from the 1-D chains sliced to the box, so no padded, raster-sized
    operator is made or cached."""
    m = sum(alpha)
    n = 2**domain.level
    op = difference_operator(n + 2 * m, alpha, domain.h, slice(m, m + n))
    return op[:, np.flatnonzero(domain.inside)]


def _inside_ops(domain: GridDomain, m: int):
    """[(multinomial weight, _inside_op)] for the order-m gradient."""
    return [(multinomial(alpha), _inside_op(domain, alpha))
            for alpha in multi_indices(domain.dim, m)]


def _top_weight(domain: GridDomain, s: float, m: int) -> np.ndarray:
    """delta^s times the cell volume at every anchor of the padded lattice;
    a padded anchor reads the weight of the nearest cell of the box."""
    n = 2**domain.level
    pad_idx = np.clip(np.arange(n + 2 * m) - m, 0, n - 1)
    return (distance_weight(domain, s, [pad_idx] * domain.dim,
                            DIRECT_WEIGHT_CLAMP_CELLS).reshape(-1)
            * domain.h**domain.dim)


def _direct_pencil(domain: GridDomain, m: int, s: float) -> sp.csc_matrix:
    """The direct estimate's p = 2 form: sum over alpha of
    D_alpha^T diag(multinomial(alpha) w_top) D_alpha, each D_alpha built,
    added and dropped before the next.  The sum stays in scipy's CSC form,
    which the 2-D shift-invert factors without a copy."""
    w_top = _top_weight(domain, s, m)
    A_mat = None
    for alpha in multi_indices(domain.dim, m):
        op = _inside_op(domain, alpha)
        term = op.T @ sp.diags(w_top * multinomial(alpha)) @ op
        del op
        A_mat = term if A_mat is None else A_mat + term
        del term
    return A_mat


def direct_best_constant(domain: GridDomain, params: HardyParams,
                         seed: int = 0) -> float:
    """Directly estimated best constant of the scale-matched inequality

        (int |u|^p delta^(s-mp))^(1/p) <= A (int |grad^m u|^p delta^s)^(1/p)

    over grid functions vanishing outside the domain (intersected with the
    nonnegative cone when the admissible class demands).  The value is a
    lower bound for the best constant of this lattice problem only, not
    for the continuum constant: for s < 0 the lattice value converges, as
    the level grows, to a limit above the continuum one (at m = 1, p = 2,
    s = -1 about 1.50 on the convex rasters, whose continuum constant
    2/(1-s) is 1).

    For p = 2 without the cone it is a generalized eigensolve with the
    weighted cell masses on the diagonal.  In 1-D and 2-D that is
    capacity._eigen_best_constant, symmetric-mode shift-invert at every
    size.  In 3-D the shift-invert factor fills badly, so
    for m = 1 capacity._pencil_best_constants runs the block eigensolver
    with one column, LOBPCG preconditioned by a V-cycle over dyadic
    aggregation of the inside cells, and returns the Rayleigh quotient of
    its vector (cube-minus-compact L5, 32 488 DOFs: 0.15 s against 0.46 s
    for Jacobi-preconditioned LOBPCG and 4.1 s for symmetric-mode
    shift-invert, 2-core x86 VM); an unconverged run, and every m >= 2
    estimate, is solved by shift-invert.  In 2-D the V-cycle is the slower
    one (square L6 at s = -1: 0.100 s against 0.056 s).  Other p, and the
    cone, use projected multi-start ascent.

    The p = 2 pencil is assembled one difference operator at a time
    (_direct_pencil), and its solve holds only the form A, the weights of
    the inside cells and, in 3-D, their coordinates for the V-cycle: no
    difference operator, padded-lattice weight or cached raster-sized
    operator outlives the assembly (cube-minus-compact L6, 259 968 DOFs:
    a 65 MiB tracemalloc peak, set by the V-cycle's build).  The ascent
    holds the operators and their transposes throughout.
    """
    if params.form != "integral-6.24":
        raise HardyError("direct estimates use the integral form")
    if abs(params.q - params.p) > 1e-12:
        raise HardyError("direct estimates require q = p")
    m, p, s = params.m, params.p, params.s
    w_low = (distance_weight(domain, s - m * p, None,
                             DIRECT_WEIGHT_CLAMP_CELLS)[domain.inside]
             * domain.h**domain.dim)

    if abs(p - 2) < 1e-12 and not params.cone:
        A_mat = _direct_pencil(domain, m, s)
        if domain.dim >= 3:
            A_mat = A_mat.tocsr()
            return _pencil_best_constants(
                A_mat, w_low, np.ones((1, len(w_low)), dtype=bool),
                np.argwhere(domain.inside), m)[0][0]
        return _eigen_best_constant(A_mat, np.ones(len(w_low), dtype=bool),
                                    w_low)[0]

    best, _ = _ratio_descent(np.zeros(len(w_low), dtype=bool), params.cone,
                             seed, (None, p, w_low),
                             [(_with_transposes(_inside_ops(domain, m)), p,
                               _top_weight(domain, s, m))],
                             max_iters=400)
    return best


# -- Case E: positive weight exponents by a change of dependent variable ----------


def _case_a_lower_order_constant(decomp: WhitneyDecomposition,
                                 params: HardyParams, beta: float,
                                 percube: np.ndarray) -> float:
    """Constant A~(beta) of the lower-order sum bound at weight -beta:

        sum_{k<m} (int |grad^k u|^p delta^(-beta-(m-k)p))^(1/p)
            <= A~(beta) (int |grad^m u|^p delta^(-beta))^(1/p)

    assembled with the one-term machinery per gradient order, but with the
    Whitney summation step replaced by its exact measured form on this
    decomposition: the per-point covering multiplicity

        W_k(x) = sum_{Q : x in R_Q} coef_Q(k) * delta(x)^beta

    (one WhitneyDecomposition.rq_scatter per order), whose maximum
    certifies the summed inequality without the generic packing constant
    (the feasibility exponent is extracted from measured constants, so
    looseness here would push s0 below grid scale).  percube[:, k] is each
    cube's beta-independent constant of ||grad^k u|| <= C ||grad^m u|| on
    its rescaled complement class.
    """
    m, p = params.m, params.p
    # delta is 0 outside, and inside distances and dist_min are >= h/2
    delta_b = decomp.domain.distance ** beta

    if not np.isfinite(percube).all():
        return math.inf

    d_q = decomp.dist_min
    total = 0.0
    for k in range(m):
        t_k = beta + (m - k) * p
        coef = d_q ** (-t_k) * (percube[:, k] * decomp.rq_side ** (m - k)) ** p
        w_field = decomp.rq_scatter(coef) * delta_b
        total += float(w_field.max()) ** (1.0 / p)
    return total


def _commutator_norm(decomp: WhitneyDecomposition, params: HardyParams,
                     beta: float, seed: int) -> float:
    """Measured operator constant A'' of the change-of-variable defect:

        || |grad^m (u delta^g)| - delta^g |grad^m u| ||_{L^p(delta^-beta)}
            <= A'' * (2 beta / p) * sum_{k<m} ||grad^k u||_{L^p(delta^(-beta-(m-k)p))}

    with g = -2 beta / p, maximized over 12 seeded random bump probes.
    """
    dom = decomp.domain
    m, p = params.m, params.p
    rng = np.random.default_rng(seed + 7)
    gexp = -2.0 * beta / p
    gamma = 2.0 * beta / p
    dgexp = distance_weight(dom, gexp, None)
    worst = 0.0
    grids = dom.center_grid()
    for _ in range(12):
        c = rng.uniform(0.25, 0.75, size=dom.dim)
        w = rng.uniform(0.08, 0.3)
        r2 = sum((g - cc) ** 2 for g, cc in zip(grids, c)) / w**2
        u_vals = np.exp(-np.minimum(r2, 50.0)) * dom.inside
        u = DiscreteFunction(dom, u_vals)
        v = DiscreteFunction(dom, u_vals * dgexp)
        mag_v, widx = gradient_magnitude(v, m)
        mag_u, _ = gradient_magnitude(u, m)
        wanch = distance_weight(dom, -beta, widx)
        hN = dom.h**dom.dim
        defect = np.abs(mag_v - distance_weight(dom, gexp, widx) * mag_u)
        lhs = float((defect**p * wanch).sum() * hN) ** (1.0 / p)
        rhs = 0.0
        for k in range(m):
            rhs += gradient_seminorm(u, k, p, -(beta + (m - k) * p))
        if rhs > 1e-300 and gamma > 0:
            worst = max(worst, lhs / (gamma * rhs))
    return worst


def _capacity_floor(decomp: WhitneyDecomposition, m: int, p: float,
                    cone: bool, grid_level: int, seed: int) -> float:
    """Uniform capacity floor b: the smallest gamma capacity at (m, m-1, p)
    over the cubes whose rescaled complement class is not saturated, 0 when
    every class is saturated.  One gamma_capacities call over the
    congruence classes, as in per_cube_capacity_field, and no chain
    constants."""
    check_grid_level(grid_level, m)
    reps, cls = _constraint_classes(decomp, grid_level, cone)
    results = gamma_capacities(reps, m, m - 1, p, p, grid_level,
                               decomp.domain.dim, seed)
    lam = np.asarray([r.capacity for r in results], dtype=float)[cls]
    usable = ~np.array([r.note == "saturated" for r in results])[cls]
    return float(lam[usable].min()) if usable.any() else 0.0


def case_e_shift(decomp: WhitneyDecomposition, params: HardyParams,
                 grid_level: int, seed: int) -> HardyBoundReport:
    """Largest positive weight exponent s0 reachable from the negative-s
    bounds by the dependent-variable change u -> u * delta^(-2 beta / p).

    Feasibility of a candidate beta is the dominance condition
    beta * A''(beta) * A~(beta) <= p/4, whose left side collapses to a
    positive power of beta only for p > 1; for p = 1 no positive s0 is
    claimed.  Requires a uniform capacity floor b > 0 at index (m, m-1).
    beta is bisected on (0, CASE_E_BETA_MAX].
    """
    dom = decomp.domain
    p = params.p
    t_check, _ = weight_exponents(params, dom.dim)
    if params.q < p:
        raise HardyError("case E requires q >= p")
    b = _capacity_floor(decomp, params.m, p, params.cone, grid_level, seed)
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

    reps, cls = _constraint_classes(decomp, grid_level, params.cone)
    percube = np.array([[ratio_best_constant(cs, grid_level, dom.dim, (k, p),
                                             [(params.m, p)], seed)[0]
                         for k in range(params.m)] for cs in reps])[cls]

    def feasible(beta):
        a_tilde = _case_a_lower_order_constant(decomp, params, beta, percube)
        if not math.isfinite(a_tilde):
            return False, a_tilde, math.inf
        a_dd = _commutator_norm(decomp, params, beta, seed)
        return beta * a_dd * a_tilde <= p / 4.0, a_tilde, a_dd

    lo, hi = 0.0, CASE_E_BETA_MAX
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
# capacity floor b the capacity-gated cases i-iv, ix and x must exceed
COROLLARY_B_THRESHOLD = 1e-4
# smallest r-cube side the projection cases v-viii accept
PROJECTION_MIN_SIDE = 0.05


def _projection_condition(decomp: WhitneyDecomposition, grid_level: int,
                          r_dim: int) -> float:
    """Smallest (over cubes) side of the largest r-dimensional cube inside
    the coordinate-axis projections of the rescaled complement.

    The value is invariant under the cube symmetry group (axis permutations
    permute the projections, flips keep the largest full sub-cube), so one
    cube per congruence class stands for its class."""
    dom = decomp.domain
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
    cells = boundary_cells_padded(domain)
    pts = np.argwhere(cells).astype(float)
    if len(pts) < 2:
        return True
    pts -= pts.mean(axis=0)
    svals = np.linalg.svd(pts, compute_uv=False)
    return bool(svals[-1] < 1e-9 * max(svals[0], 1.0))


def corollary_619_check(domain: GridDomain, decomp: WhitneyDecomposition,
                        case_id: str, params: HardyParams,
                        grid_level: int, seed: int, r_dim: int | None,
                        asserted_selfsimilar: bool):
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
            if not (b_geo >= PROJECTION_MIN_SIDE):
                failures.append(
                    f"projection condition fails: min r-cube side {b_geo:.3g} "
                    f"< {PROJECTION_MIN_SIDE:.3g}")

    if case_id in ("ix", "x"):
        if not asserted_selfsimilar:
            failures.append("self-similarity not asserted by caller")
        disc, flagged = selfsimilarity_signature(decomp)
        details["signature_discrepancy"] = disc
        if flagged:
            failures.append(
                f"self-similarity signature gate fails ({len(flagged)} pairs)")
        if _boundary_in_hyperplane(domain):
            failures.append("boundary is contained in a hyperplane")

    # capacity floor over cubes (cases i-iv and the global-capacity gate of
    # ix/x), solved only while no hypothesis has failed
    if case_id in ("i", "ii", "iii", "iv", "ix", "x") and not failures:
        b = _capacity_floor(decomp, cap_m, pcap, cone, grid_level, seed)
        details["capacity_floor"] = b
        if not (b > COROLLARY_B_THRESHOLD):
            failures.append(
                "global capacity proxy vanishes" if case_id in ("ix", "x")
                else f"capacity lower bound fails: min grid capacity {b:.3g} "
                f"<= threshold {COROLLARY_B_THRESHOLD:.3g}")

    dim_loc_cases = ("ii", "iv", "vi", "viii", "x")
    if case_id in dim_loc_cases and not failures:
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
