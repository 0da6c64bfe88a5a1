"""Whole-array geometry kernels, the bounding-box distance transform and
G_s tables, the box counts, the self-similarity signature, the
constraint-class map and its cube symmetry images, the window-local cone
split and its convolution back, the array assembly of the constructive
bound, the ratio-core Hölder and Poincaré solves and the ratio-term matvec
handles, pinned to the per-edge, per-cube, per-image and full-grid loops,
the hand-written objectives and the scipy products they replace (kept here
as oracles)."""

import importlib.util
import math
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from hardylab.capacity import (CapacityError, ConstraintSet, _Matvec,
                               _holder_operator, _poly_basis, _project,
                               _sum_terms, _unit_term, _with_transposes,
                               gamma_capacity, gradient_form_ops,
                               gradient_norm_grad, holder_ratio_best_constant,
                               lp_norm_grad, norm_equivalence_constant,
                               poincare_constant, ratio_best_constant,
                               theta_capacity)
from hardylab.cone import (ALPHA_ENLARGE, BETA_ENLARGE, ConeSplit,
                           MajorantResult, _convolve_back, _deconvolve,
                           _enlarged_boxes, _iterated_kernel, _kernel_spectrum,
                           cone_split, make_probe, overlap_count)
from hardylab.norms import (DiscreteFunction, distance_weight,
                            gradient_magnitude, gradient_seminorm)
from hardylab.grids import (DomainSpec, GridDomain, bounding_box, rasterize,
                            _koch_polygon, _points_in_polygon)
from hardylab.hardy import (HardyParams, _case_sigma, _constraint_classes,
                            _cube_images, _inside_ops, _largest_cube_side,
                            _projection_condition, constructive_bound,
                            direct_best_constant, per_cube_capacity_field,
                            weight_exponents)
from hardylab.whitney import (WhitneyError, WhitneyDecomposition,
                              _box_sums, _coarsest_levels, _prefix_sums,
                              box_scatter, check_decomposition, decompose,
                              intersection_cutoff, packing_constant)
from oracles import equidistributed


# -- oracles: the loops the kernels replace --------------------------------------


def edge_loop_polygon(x, y, verts):
    """Even-odd crossing test, one pass over the grid per polygon edge."""
    inside = np.zeros_like(x, dtype=bool)
    m = len(verts)
    for i in range(m):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % m]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xint)
    return inside


def cube_slice(dec, i):
    m = 2 ** (dec.domain.level - int(dec.levels[i]))
    return tuple(slice(c * m, (c + 1) * m) for c in dec.coords[i])


def cube_side(dec, i):
    return 2.0 ** (-int(dec.levels[i]))


def cube_diam(dec, i):
    return math.sqrt(dec.domain.dim) * cube_side(dec, i)


def loop_owner(dec):
    owner = np.full(dec.domain.shape, -1, dtype=np.int64)
    for i in range(dec.n_cubes):
        sl = cube_slice(dec, i)
        assert (owner[sl] == -1).all()
        owner[sl] = i
    return owner


def loop_enlarged(dec):
    from scipy import ndimage

    dom = dec.domain
    h = dom.h
    _, feat = ndimage.distance_transform_edt(
        dom.padded_inside(), sampling=h, return_indices=True)
    centers = np.zeros((dec.n_cubes, dom.dim))
    sides = np.zeros(dec.n_cubes)
    for i in range(dec.n_cubes):
        sl = cube_slice(dec, i)
        block = dom.distance[sl]
        local = np.unravel_index(int(np.argmin(block)), block.shape)
        cell = tuple(s.start + off for s, off in zip(sl, local))
        near = tuple(int(feat[a][tuple(c + 1 for c in cell)])
                     for a in range(dom.dim))
        x0 = np.array([(near[a] - 1 + 0.5) * h for a in range(dom.dim)])
        side_q = 2.0 ** (-int(dec.levels[i]))
        lo = np.array([c * side_q for c in dec.coords[i]], dtype=float)
        reach = np.maximum(np.abs(lo - x0), np.abs(lo + side_q - x0)).max()
        centers[i] = x0
        sides[i] = 2.0 * reach
    return centers, sides


def loop_rq_range(dec, i):
    """Per axis, the first and last cell whose center lies in closed R_Q."""
    h = dec.domain.h
    lo = dec.rq_center[i] - dec.rq_side[i] / 2.0
    hi = dec.rq_center[i] + dec.rq_side[i] / 2.0
    eps = 1e-9 * h
    return [(int(math.ceil((lo[a] + eps) / h - 0.5)),
             int(math.floor((hi[a] - eps) / h - 0.5)))
            for a in range(dec.domain.dim)]


def loop_rq_slice(dec, i):
    n = 2**dec.domain.level
    return tuple(slice(max(i0, 0), min(i1, n - 1) + 1)
                 for i0, i1 in loop_rq_range(dec, i))


def loop_touching_pairs(dec, owner):
    n = 2**dec.domain.level
    pairs = set()
    for i in range(dec.n_cubes):
        ext = tuple(slice(max(s.start - 1, 0), min(s.stop + 1, n))
                    for s in cube_slice(dec, i))
        for j in np.unique(owner[ext]):
            j = int(j)
            if j >= 0 and j != i:
                pairs.add((min(i, j), max(i, j)))
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def loop_coarsest(dec, owner):
    """Per cube, the coarsest level owning a cell of its R_Q slice."""
    coarsest = []
    for i in range(dec.n_cubes):
        ids = np.unique(owner[loop_rq_slice(dec, i)])
        coarsest.append(int(dec.levels[ids[ids >= 0]].min()))
    return coarsest


def loop_check(dec, owner, pairs):
    dom = dec.domain
    h = dom.h
    root_n = math.sqrt(dom.dim)
    lower_ok = upper_ok = rq_ok = True
    for i in range(dec.n_cubes):
        side = 2.0 ** (-int(dec.levels[i]))
        dmin = float(dom.distance[cube_slice(dec, i)].min())
        lower_ok &= not dmin < root_n * (side - h) - 1e-9 * h
        upper_ok &= not dmin > 4.0 * root_n * side + 1e-9 * h
        rq_ok &= not (dec.rq_side[i]
                      > 10.0 * cube_diam(dec, i) + 2.0 * root_n * h + 1e-9 * h)
    worst_ratio = 0.0
    for i, j in pairs:
        di, dj = cube_diam(dec, int(i)), cube_diam(dec, int(j))
        worst_ratio = max(worst_ratio, di / dj, dj / di)
    worst_nbr = 0.0
    for i in range(dec.n_cubes):
        ids = np.unique(owner[loop_rq_slice(dec, i)])
        for j in ids[ids >= 0]:
            worst_nbr = max(worst_nbr,
                            cube_diam(dec, int(j)) / cube_diam(dec, i))
    return {
        "cover_exact": bool(((owner >= 0) == dom.inside).all()),
        "lower_bound_ok": lower_ok,
        "upper_bound_ok": upper_ok,
        "ratio_ok": worst_ratio <= 4.0 + 1e-12,
        "worst_touch_ratio": worst_ratio,
        "enlarged_side_ok": rq_ok,
        "neighbor_cutoff_ok": worst_nbr <= intersection_cutoff(dom.dim) + 1e-12,
        "worst_neighbor_ratio": worst_nbr,
        "n_cubes": dec.n_cubes,
    }


# -- scanline polygon fill ---------------------------------------------------------


@pytest.mark.parametrize("iterations", range(5))
@pytest.mark.parametrize("level", range(6, 10))
def test_scanline_matches_edge_loop_koch(iterations, level):
    n = 2**level
    centers = (np.arange(n) + 0.5) / n
    x, y = np.meshgrid(centers, centers, indexing="ij")
    verts = _koch_polygon(iterations)
    mask = _points_in_polygon(centers, centers, verts)
    assert np.array_equal(mask, edge_loop_polygon(x, y, verts))
    spec = DomainSpec(kind="koch-polygon", dim=2, level=level,
                      iterations=iterations)
    assert np.array_equal(rasterize(spec).inside, mask)


def test_scanline_horizontal_edges_and_vertex_on_row():
    n = 64
    centers = (np.arange(n) + 0.5) / n

    def row(j):
        return centers[j]  # a cell-centre ordinate

    # horizontal edges on and off centre rows, vertices on centre rows
    # (both as extrema and as pass-through points) and a reflex notch
    verts = np.array([
        [0.1, row(5)], [0.9, row(5)], [0.8, row(20)], [0.95, row(30)],
        [0.7, 0.6], [0.5, row(30)], [0.3, 0.6], [0.3, row(45)],
        [0.6, row(45)], [0.6, 0.9], [0.05, 0.9], [0.2, row(20)],
    ])
    x, y = np.meshgrid(centers, centers, indexing="ij")
    mask = _points_in_polygon(centers, centers, verts)
    assert np.array_equal(mask, edge_loop_polygon(x, y, verts))
    assert mask.any() and not mask.all()


# -- summed-area box sums ----------------------------------------------------------


@pytest.mark.parametrize("kind,dim,level,iters,clipped", [
    ("cantor-complement", 1, 8, 3, False),
    ("interval", 1, 8, 0, True),
    ("lshape", 2, 6, 0, True),
    ("koch-polygon", 2, 7, 3, False),
    ("cube-minus-compact", 3, 4, 0, True),
])
def test_box_sums_match_slice_sums(kind, dim, level, iters, clipped):
    dec = decompose(rasterize(DomainSpec(kind=kind, dim=dim, level=level,
                                         iterations=iters)))
    dom = dec.domain
    slices = [loop_rq_slice(dec, i) for i in range(dec.n_cubes)]
    ranges = np.array([loop_rq_range(dec, i) for i in range(dec.n_cubes)])
    assert np.array_equal(dec.rq_first, ranges[:, :, 0])
    assert np.array_equal(dec.rq_last, ranges[:, :, 1])
    assert np.array_equal(dec.rq_start, [[s.start for s in sl] for sl in slices])
    assert np.array_equal(dec.rq_stop, [[s.stop for s in sl] for sl in slices])
    # whether some enlarged cubes reach past the box and are clipped
    assert bool(((ranges[:, :, 0] < 0)
                 | (ranges[:, :, 1] > 2**level - 1)).any()) == clipped
    rng = np.random.default_rng(level)
    weight = rng.random(dom.shape) * dom.inside
    sums = dec.rq_sums(weight)
    oracle = np.array([weight[sl].sum() for sl in slices])
    assert np.allclose(sums, oracle, rtol=1e-12, atol=0.0)
    counts = dec.rq_sums(dom.inside)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, [dom.inside[sl].sum() for sl in slices])


# -- corner scatter ------------------------------------------------------------------


def assert_scatter_matches_slice_adds(shape, slices, scatter, rng):
    """scatter(values) of random integer and float values, one per box,
    against adding each value to its box slice in turn: integer counts
    exactly, floats to 1e-15 of the largest.  Returns (counts, values, the
    float field)."""
    counts = rng.integers(0, 5, size=len(slices))
    oracle = np.zeros(shape, dtype=np.int64)
    for sl, c in zip(slices, counts):
        oracle[sl] += c
    got = scatter(counts)
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle)
    values = rng.random(len(slices)) * 10.0 ** rng.uniform(-3, 3, len(slices))
    oracle = np.zeros(shape)
    for sl, v in zip(slices, values):
        oracle[sl] += v
    got = scatter(values)
    assert got.dtype == np.float64
    assert np.abs(got - oracle).max() <= 1e-15 * oracle.max()
    return counts, values, got


@pytest.mark.parametrize("kind,dim,level,iters,clipped", [
    ("halfspace", 2, 6, 0, True),
    ("lshape", 2, 6, 0, True),
    ("koch-polygon", 2, 7, 3, False),
    ("cube-minus-compact", 3, 4, 0, True),
])
def test_rq_scatter_matches_slice_adds(kind, dim, level, iters, clipped):
    dec = decompose(rasterize(DomainSpec(kind=kind, dim=dim, level=level,
                                         iterations=iters)))
    dom = dec.domain
    slices = [loop_rq_slice(dec, i) for i in range(dec.n_cubes)]
    # whether some enlarged cubes reach past the box and are clipped
    assert bool((dec.rq_first < 0).any()
                or (dec.rq_last >= 2**level).any()) == clipped
    rng = np.random.default_rng(level + dim)
    counts, values, got = assert_scatter_matches_slice_adds(
        dom.shape, slices, dec.rq_scatter, rng)
    # adjoint of the box sums
    g = rng.random(dom.shape)
    assert math.isclose(float((got * g).sum()),
                        float((values * dec.rq_sums(g)).sum()), rel_tol=1e-13)
    g_int = rng.integers(0, 3, size=dom.shape)
    assert int((dec.rq_scatter(counts) * g_int).sum()) \
        == int((counts * dec.rq_sums(g_int)).sum())


@pytest.mark.parametrize("kind,dim,level", [
    ("square", 2, 6),
    ("halfspace", 2, 6),
    ("cube-minus-compact", 3, 4),
])
def test_box_scatter_matches_slice_adds_on_cone_windows(kind, dim, level):
    """The cone split's 4/3 and 16/9 windows and the anchor windows of its
    top-order sums, clipped ones included, through box_scatter; the overlap
    count against the slice-add loop."""
    dec = decompose(rasterize(DomainSpec(kind=kind, dim=dim, level=level)))
    dom = dec.domain
    rng = np.random.default_rng(level + dim)
    for enlarge in (ALPHA_ENLARGE, BETA_ENLARGE):
        clipped = _clipped(dec, enlarge)
        assert clipped or enlarge == ALPHA_ENLARGE
        lo, hi = _enlarged_boxes(dom, dec, enlarge)
        slices = [loop_enlarged_slice(dom, dec, i, enlarge)
                  for i in range(dec.n_cubes)]
        assert_scatter_matches_slice_adds(
            dom.shape, slices, lambda v: box_scatter(dom.shape, lo, hi, v), rng)
        assert overlap_count(dom, dec, enlarge) \
            == loop_overlap_count(dom, dec, enlarge)
    lo, hi = _enlarged_boxes(dom, dec, ALPHA_ENLARGE)
    anchors_clipped = False
    for m in (1, 2):
        shape = gradient_magnitude(
            DiscreteFunction(dom, np.zeros(dom.shape)), m)[0].shape
        slices = [loop_anchor_window(
            loop_enlarged_slice(dom, dec, i, ALPHA_ENLARGE), m, shape)
            for i in range(dec.n_cubes)]
        anchors_clipped |= (hi + 2 * m > np.array(shape)).any()
        assert_scatter_matches_slice_adds(
            shape, slices,
            lambda v: box_scatter(shape, lo, np.minimum(hi + 2 * m, shape), v),
            rng)
    assert anchors_clipped


# -- decomposition structures ------------------------------------------------------


def _frame():
    inside = np.zeros((32, 32), dtype=bool)
    inside[1:-1, 1:-1] = True
    return GridDomain(dim=2, level=5, inside=inside)


@pytest.mark.parametrize("make", [
    lambda: rasterize(DomainSpec(kind="halfspace", dim=2, level=7)),
    lambda: rasterize(DomainSpec(kind="lshape", dim=2, level=7)),
    lambda: rasterize(DomainSpec(kind="koch-polygon", dim=2, level=7,
                                 iterations=3)),
    lambda: rasterize(DomainSpec(kind="koch-polygon", dim=2, level=10,
                                 iterations=4)),
    lambda: rasterize(DomainSpec(kind="cantor-complement", dim=1, level=9,
                                 iterations=4)),
    lambda: rasterize(DomainSpec(kind="cube-minus-compact", dim=3, level=4)),
    lambda: rasterize(DomainSpec(kind="cube-minus-compact", dim=2, level=6,
                                 radius=0.0)),
    _frame,
], ids=["halfspace", "lshape", "koch", "koch10", "cantor",
        "cube-minus-compact-3d", "point", "frame"])
def test_structures_match_loops(make):
    dec = decompose(make())
    owner = loop_owner(dec)
    assert np.array_equal(dec.owner, owner)
    centers, sides = loop_enlarged(dec)
    assert np.array_equal(dec.rq_center, centers)
    assert np.array_equal(dec.rq_side, sides)
    pairs = loop_touching_pairs(dec, owner)
    assert np.array_equal(dec.touching_pairs(), pairs)
    assert dec.touching_pairs().dtype == np.int64
    assert check_decomposition(dec) == loop_check(dec, owner, pairs)
    assert np.array_equal(_coarsest_levels(dec), loop_coarsest(dec, owner))
    blocks = [dec.domain.distance[cube_slice(dec, i)]
              for i in range(dec.n_cubes)]
    assert np.array_equal(dec.dist_min, [b.min() for b in blocks])
    assert np.array_equal(dec.dist_max, [b.max() for b in blocks])


def loop_box_counts(dec, bcells):
    """dimension._box_counts as a per-cube loop: the boundary cells of each
    R_Q rescaled onto the unit cube, one np.unique of box keys per scale."""
    from hardylab.dimension import (MAX_BOX_SCALES, MIN_BOX_CELLS,
                                    _padded_rq_ranges)

    h = dec.domain.h
    start, stop = _padded_rq_ranges(dec)
    sups = {}
    for i in range(dec.n_cubes):
        side = float(dec.rq_side[i])
        jmax = int(math.floor(math.log2(max(side / h / MIN_BOX_CELLS, 1.0))))
        jmax = min(jmax, MAX_BOX_SCALES)
        if jmax < 1 or (stop[i] <= start[i]).any():
            continue
        idx = np.argwhere(bcells[tuple(map(slice, start[i], stop[i]))])
        if len(idx) == 0:
            continue
        unit = (((idx + start[i]) - 1 + 0.5) * h - dec.rq_origin[i]) / side
        unit = np.clip(unit, 0.0, 1.0 - 1e-12)
        for j in range(1, jmax + 1):
            boxes = np.floor(unit * 2**j).astype(np.int64)
            count = len({tuple(b) for b in boxes.tolist()})
            sups[j] = max(sups.get(j, 0.0), float(count))
    return sups


KERNEL_CORPUS = [
    DomainSpec(kind="koch-polygon", dim=2, level=9, iterations=4),
    DomainSpec(kind="koch-polygon", dim=2, level=10, iterations=4),
    DomainSpec(kind="lshape", dim=2, level=9),
    DomainSpec(kind="halfspace", dim=2, level=8),
    DomainSpec(kind="halfspace", dim=3, level=5),
    DomainSpec(kind="cantor-complement", dim=1, level=12, iterations=5),
    DomainSpec(kind="interval", dim=1, level=10),
    DomainSpec(kind="cube-minus-compact", dim=3, level=5),
]
KERNEL_IDS = ["koch9", "koch10", "lshape9", "halfspace8", "halfspace3d5",
              "cantor12", "interval10", "cube-minus-compact-3d5"]


@pytest.fixture(scope="module", params=KERNEL_CORPUS, ids=KERNEL_IDS)
def corpus_decomp(request):
    return decompose(rasterize(request.param))


def test_box_counts_match_loop(corpus_decomp):
    from hardylab.dimension import _box_counts, boundary_cells_padded

    bcells = boundary_cells_padded(corpus_decomp.domain)
    got = _box_counts(corpus_decomp, bcells)
    assert got  # every corpus raster has a counted scale
    assert got == loop_box_counts(corpus_decomp, bcells)


def test_distance_integrals_match_weight_field(corpus_decomp):
    # the powers written into the table against the zero-extended weight
    # field summed by rq_sums, bit for bit
    dom = corpus_decomp.domain
    for s in (0.0, 0.25, 0.79, 2.0):
        weight = np.zeros(dom.shape)
        weight[dom.inside] = dom.distance[dom.inside] ** (-s)
        want = corpus_decomp.rq_sums(weight) * dom.h**dom.dim
        got = corpus_decomp.rq_distance_integrals(s)
        assert got.tobytes() == want.tobytes()


def full_raster_distance_integrals(dec, s):
    """rq_distance_integrals with its long-double table on the whole
    (n+1)^N lattice and the unclamped R_Q bounds."""
    dom = dec.domain
    table = np.zeros(tuple(n + 1 for n in dom.shape), dtype=np.longdouble)
    table[(slice(1, None),) * dom.dim][dom.inside] = \
        dom.distance[dom.inside] ** (-s)
    total = _box_sums(_prefix_sums(table), dec.rq_start, dec.rq_stop)
    return total.astype(np.float64) * dom.h**dom.dim


@pytest.mark.parametrize("spec", [
    DomainSpec(kind="koch-polygon", dim=2, level=9, iterations=4),
    DomainSpec(kind="lshape", dim=2, level=9),
    DomainSpec(kind="halfspace", dim=2, level=8),
    DomainSpec(kind="cube-minus-compact", dim=3, level=4),
], ids=["koch9", "lshape9", "halfspace8", "cube-minus-compact-3d4"])
def test_distance_integrals_match_full_raster_table(spec):
    dec = decompose(rasterize(spec))
    for s in (0.0, 0.5, 1.0, 1.26, 1.9):
        got = dec.rq_distance_integrals(s)
        assert got.tobytes() == full_raster_distance_integrals(dec, s).tobytes()


def test_gs_tables_cover_the_inside_box_only(monkeypatch):
    # every long-double table dim_loc cumulates is the inside's bounding
    # box plus one, not the (n+1)^2 lattice
    import hardylab.whitney as whitney
    from hardylab.dimension import dim_loc

    dec = decompose(rasterize(
        DomainSpec(kind="koch-polygon", dim=2, level=9, iterations=4)))
    lo, hi = bounding_box(dec.domain.inside, 0)
    assert np.prod(hi - lo) < 0.5 * dec.domain.inside.size
    shapes = []
    prefix_sums = whitney._prefix_sums

    def recorded(table):
        if table.dtype == np.longdouble:
            shapes.append(table.shape)
        return prefix_sums(table)

    monkeypatch.setattr(whitney, "_prefix_sums", recorded)
    dim_loc(dec)
    assert len(shapes) == len(dec.gs_tables) > 2
    assert all(shape == tuple(hi - lo + 1) for shape in shapes)


def loop_signature(dec):
    """selfsimilarity_signature as a per-cube loop: a center meshgrid per
    eligible cube and one occupancy sum per annulus."""
    from hardylab.dimension import (SIGNATURE_ANNULI,
                                    SIGNATURE_FLAG_THRESHOLD,
                                    SIGNATURE_MIN_RADIUS_CELLS)

    dom = dec.domain
    h = dom.h
    n = 2**dom.level
    padded_out = ~dom.padded_inside()
    sigs, ids = [], []
    for i in range(dec.n_cubes):
        radius = 0.5 * float(dec.rq_side[i])
        if radius / h < SIGNATURE_MIN_RADIUS_CELLS:
            continue
        center = dec.rq_center[i]
        if (center - radius < -h).any() or (center + radius > 1.0 + h).any():
            continue
        start = [max(int(a) + 1, 0) for a in dec.rq_first[i]]
        stop = [min(int(b) + 1, n + 1) + 1 for b in dec.rq_last[i]]
        block = padded_out[tuple(map(slice, start, stop))]
        if block.size == 0:
            continue
        axes = [((np.arange(a, b) - 1 + 0.5) * h - center[ax]) / radius
                for ax, (a, b) in enumerate(zip(start, stop))]
        grids = np.meshgrid(*axes, indexing="ij")
        r2 = sum(g * g for g in grids)
        sig = []
        for j in range(1, SIGNATURE_ANNULI + 1):
            shell = ((r2 <= (j / SIGNATURE_ANNULI) ** 2)
                     & (r2 > ((j - 1) / SIGNATURE_ANNULI) ** 2))
            tot = int(shell.sum())
            hit = int((shell & block).sum())
            sig.append(math.log2((hit + 1.0) / (tot + 1.0)))
        sigs.append(sig)
        ids.append(i)
    if len(sigs) < 2:
        return 0.0, []
    diff = [[max(abs(x - y) for x, y in zip(sa, sb)) for sb in sigs]
            for sa in sigs]
    worst = max(max(row) for row in diff)
    if worst <= SIGNATURE_FLAG_THRESHOLD:
        return worst, []
    flagged = [(ids[a], ids[b], diff[a][b]) for a in range(len(sigs))
               for b in range(a + 1, len(sigs))
               if diff[a][b] > SIGNATURE_FLAG_THRESHOLD]
    return worst, flagged[:100]


@pytest.mark.parametrize("spec", [
    DomainSpec(kind="koch-polygon", dim=2, level=9, iterations=4),
    DomainSpec(kind="koch-polygon", dim=2, level=10, iterations=4),
    DomainSpec(kind="lshape", dim=2, level=9),
], ids=["koch9", "koch10", "lshape9"])
def test_signature_matches_loop(spec):
    from hardylab.dimension import selfsimilarity_signature

    dec = decompose(rasterize(spec))
    disc, flagged = selfsimilarity_signature(dec)
    want_disc, want_flagged = loop_signature(dec)
    assert flagged  # radii of 32 cells and more: the signature is not empty
    assert disc == want_disc
    assert flagged == want_flagged


@pytest.mark.parametrize("spec", [
    DomainSpec(kind="square", dim=2, level=6),
    DomainSpec(kind="koch-polygon", dim=2, level=8, iterations=4),
    DomainSpec(kind="cube-minus-compact", dim=3, level=4),
], ids=["square6", "koch8", "cube-minus-compact-3d-4"])
def test_one_distance_transform_per_raster(monkeypatch, spec):
    # rasterize keeps the feature map of its transform, and decompose and
    # dim_loc read it and the distances instead of transforming again
    from scipy import ndimage

    from hardylab.dimension import DimensionError, dim_loc

    calls = []
    edt = ndimage.distance_transform_edt

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return edt(*args, **kwargs)

    monkeypatch.setattr(ndimage, "distance_transform_edt", counted)
    dec = decompose(rasterize(spec))
    try:
        dim_loc(dec)
    except DimensionError:
        pass  # too few levels to fit; g_s(0) has run
    assert len(calls) == 1
    monkeypatch.undo()
    # against an oracle with a feature transform of its own
    centers, sides = loop_enlarged(dec)
    assert np.array_equal(dec.rq_center, centers)
    assert np.array_equal(dec.rq_side, sides)
    h = dec.domain.h
    eps = 1e-9 * h
    first = [[math.ceil((c - s / 2.0 + eps) / h - 0.5) for c in row]
             for row, s in zip(centers, sides)]
    last = [[math.floor((c + s / 2.0 - eps) / h - 0.5) for c in row]
            for row, s in zip(centers, sides)]
    assert np.array_equal(dec.rq_first, first)
    assert np.array_equal(dec.rq_last, last)


def full_grid_transform(dom):
    """distance and nearest from one transform of the whole padded grid."""
    from scipy import ndimage

    dist, nearest = ndimage.distance_transform_edt(
        dom.padded_inside(), sampling=dom.h, return_indices=True)
    core = dist[(slice(1, -1),) * dom.dim]
    adjusted = np.maximum(core - 0.5 * dom.h, 0.5 * dom.h)
    return np.where(dom.inside, adjusted, 0.0), nearest


def assert_transform_matches_full_grid(dom):
    distance, nearest = full_grid_transform(dom)
    assert dom.distance.dtype == distance.dtype
    assert dom.distance.tobytes() == distance.tobytes()
    assert dom.nearest.dtype == nearest.dtype == np.int32
    assert dom.nearest.shape == nearest.shape
    assert dom.nearest.tobytes() == nearest.tobytes()


@pytest.mark.parametrize("spec", [
    DomainSpec(kind="koch-polygon", dim=2, level=9, iterations=4),
    DomainSpec(kind="koch-polygon", dim=2, level=10, iterations=4),
    DomainSpec(kind="lshape", dim=2, level=9),
    DomainSpec(kind="square", dim=2, level=6),
    DomainSpec(kind="cantor-complement", dim=1, level=12, iterations=5),
    DomainSpec(kind="halfspace", dim=2, level=6),
], ids=["koch9", "koch10", "lshape9", "square6", "cantor12", "halfspace6"])
def test_boxed_transform_matches_full_grid(spec):
    dom = rasterize(spec)
    assert dom.pad_mode == ("replicate" if spec.kind == "halfspace"
                            else "collar")
    assert_transform_matches_full_grid(dom)


def _raw_masks():
    n = 16
    empty = np.zeros((n, n), dtype=bool)
    corner = empty.copy()
    corner[0, 0] = True
    one_edge = empty.copy()
    one_edge[0:5, 3:11] = True  # touches the low edge of axis 0 only
    return {"empty": empty, "corner": corner,
            "full": np.ones((n, n), dtype=bool), "one-edge": one_edge}


@pytest.mark.parametrize("name", sorted(_raw_masks()))
def test_boxed_transform_matches_full_grid_raw_masks(name):
    mask = _raw_masks()[name]
    modes = ["collar"] + (["replicate"] if not mask.all() else [])
    for pad_mode in modes:
        dom = GridDomain(dim=2, level=4, inside=mask.copy(), pad_mode=pad_mode)
        assert_transform_matches_full_grid(dom)


@pytest.mark.parametrize("dim", [2, 3])
def test_boxed_transform_matches_full_grid_random_masks(dim):
    # random cells inside a random sub-box, so most grown boxes are proper
    rng = np.random.default_rng(dim)
    n = 16
    for _ in range(20):
        lo = rng.integers(0, n, size=dim)
        hi = np.minimum(lo + rng.integers(1, n, size=dim), n)
        mask = np.zeros((n,) * dim, dtype=bool)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        mask[box] = rng.random(tuple(hi - lo)) < rng.uniform(0.2, 0.9)
        for pad_mode in ("collar", "replicate"):
            dom = GridDomain(dim=dim, level=4, inside=mask.copy(),
                             pad_mode=pad_mode)
            assert_transform_matches_full_grid(dom)


def test_overlapping_cubes_rejected():
    dom = rasterize(DomainSpec(kind="square", dim=2, level=4))
    levels = np.array([1, 2], dtype=np.int64)
    coords = np.array([[0, 0], [1, 1]], dtype=np.int64)
    with pytest.raises(WhitneyError):
        WhitneyDecomposition(dom, levels, coords)


# -- constraint classes ------------------------------------------------------------


def loop_cube_constraint(dec, i, grid_level, cone):
    """Zero set of cube i's rescaled admissible class, built cube by cube."""
    dom = dec.domain
    m_cells = 2**grid_level
    origin = dec.rq_center[i] - dec.rq_side[i] / 2.0
    axes = [(np.arange(m_cells) + 0.5) / m_cells for _ in range(dom.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    unit = np.stack([g.reshape(-1) for g in grids], axis=1)
    phys = unit * float(dec.rq_side[i]) + origin
    n = 2**dom.level
    idx = np.floor(phys / dom.h).astype(np.int64)
    out_of_box = ((idx < 0) | (idx >= n)).any(axis=1)
    idx_cl = np.clip(idx, 0, n - 1)
    outside = ~dom.inside[tuple(idx_cl[:, a] for a in range(dom.dim))]
    if dom.pad_mode == "replicate":
        rep = dom.inside[tuple(idx_cl[:, a] for a in range(dom.dim))]
        K = np.where(out_of_box, ~rep, outside)
    else:
        K = out_of_box | outside
    return ConstraintSet(K.reshape((m_cells,) * dom.dim), cone)


def loop_classes(dec, grid_level, cone):
    """Classes keyed by canonical key, cube by cube, in first-cube order."""
    index: dict[bytes, int] = {}
    reps, cls = [], []
    for i in range(dec.n_cubes):
        cs = loop_cube_constraint(dec, i, grid_level, cone)
        key = loop_canonical_key(cs.K)
        if key not in index:
            index[key] = len(reps)
            reps.append(cs)
        cls.append(index[key])
    return reps, np.array(cls, dtype=np.int64)


def loop_projection_condition(dec, grid_level, r_dim):
    from itertools import combinations

    dim = dec.domain.dim
    worst = math.inf
    for i in range(dec.n_cubes):
        K = loop_cube_constraint(dec, i, grid_level, False).K
        best = 1.0 if r_dim == 0 and K.any() else 0.0
        for keep in combinations(range(dim), r_dim) if r_dim else ():
            drop = tuple(a for a in range(dim) if a not in keep)
            proj = K.any(axis=drop) if drop else K
            best = max(best, _largest_cube_side(proj) / K.shape[0])
        worst = min(worst, best)
    return 0.0 if worst is math.inf else worst


CLASS_DOMAINS = {
    "halfspace-2d": dict(kind="halfspace", dim=2, level=6),
    "halfspace-3d": dict(kind="halfspace", dim=3, level=4),
    "square": dict(kind="square", dim=2, level=6),
    "lshape": dict(kind="lshape", dim=2, level=6),
    "interval": dict(kind="interval", dim=1, level=8),
    "cantor": dict(kind="cantor-complement", dim=1, level=9, iterations=4),
    "koch": dict(kind="koch-polygon", dim=2, level=8, iterations=4),
    "cube-minus-compact-3d": dict(kind="cube-minus-compact", dim=3, level=5),
}


@pytest.fixture(scope="module")
def class_decomps():
    return {name: decompose(rasterize(DomainSpec(**spec)))
            for name, spec in CLASS_DOMAINS.items()}


@pytest.mark.parametrize("cone", [False, True])
@pytest.mark.parametrize("grid_level", [3, 4])
@pytest.mark.parametrize("name", list(CLASS_DOMAINS))
def test_constraint_classes_match_loop(class_decomps, name, grid_level, cone):
    dec = class_decomps[name]
    reps, cls = _constraint_classes(dec, grid_level, cone)
    oracle_reps, oracle_cls = loop_classes(dec, grid_level, cone)
    assert np.array_equal(cls, oracle_cls)
    assert len(reps) == len(oracle_reps)
    for got, want in zip(reps, oracle_reps):
        assert got.cone == want.cone
        assert got.K.shape == want.K.shape
        assert got.K.tobytes() == want.K.tobytes()
    # classes are numbered in order of their first cube
    firsts = [int(np.argmax(cls == c)) for c in range(len(reps))]
    assert firsts == sorted(firsts)


def test_class_map_memory_bound():
    # the zero sets are gathered a chunk of cubes at a time: on the 648
    # cubes of cube-minus-compact L4 at capacity grid 4 (4096 cells each)
    # the traced peak read 2.93 MiB, against 3.38 MiB for one gather of the
    # whole (cubes, cells) stack and 8.35 MiB with its np.unique
    import tracemalloc

    dec = decompose(rasterize(DomainSpec(kind="cube-minus-compact", dim=3,
                                         level=4)))
    tracemalloc.start()
    try:
        _constraint_classes(dec, 4, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 2**20, peak


@pytest.mark.parametrize("name", ["halfspace-2d", "lshape", "koch",
                                  "interval", "halfspace-3d",
                                  "cube-minus-compact-3d"])
def test_projection_condition_per_class_matches_per_cube(class_decomps, name):
    dec = class_decomps[name]
    for r_dim in range(dec.domain.dim + 1):
        assert (_projection_condition(dec, 3, r_dim)
                == loop_projection_condition(dec, 3, r_dim))


# -- cube symmetry images ---------------------------------------------------------


def loop_canonical_key(K):
    """Least byte string over the 2^d d! transposed and flipped images,
    each materialised."""
    best = None
    for perm in permutations(range(K.ndim)):
        base = np.transpose(K, perm)
        for flips in product((False, True), repeat=K.ndim):
            arr = base
            for ax, f in enumerate(flips):
                if f:
                    arr = np.flip(arr, axis=ax)
            b = np.ascontiguousarray(arr).tobytes()
            if best is None or b < best:
                best = b
    return best + str(K.shape).encode()


@pytest.mark.parametrize("shape", [(16,), (9,), (8, 8), (6, 10), (4, 4, 4),
                                   (5, 3, 4)])
def test_canonical_keys_match_image_loop(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    masks = [rng.random(shape) < q for q in (0.1, 0.5, 0.9)]
    masks.append(np.zeros(shape, dtype=bool))
    masks.append(np.ones(shape, dtype=bool))
    slab = np.zeros(shape, dtype=bool)
    slab[-1] = True
    masks += [slab, np.flip(slab, axis=0)]
    if len(shape) > 1 and shape[0] == shape[1]:
        masks.append(np.swapaxes(slab, 0, 1))
    # the least of a mask's _cube_images is the key of the image loop
    tail = str(shape).encode()
    want = [loop_canonical_key(K) for K in masks]
    assert [min(img.tobytes() for img in _cube_images(K)) + tail
            for K in masks] == want
    assert (len(list(_cube_images(slab)))
            == math.factorial(len(shape)) * 2 ** len(shape))
    # images of one mask share its key
    assert loop_canonical_key(slab) == loop_canonical_key(np.flip(slab, 0))


# -- window-local cone split -------------------------------------------------------


def loop_cutoff(dom, center, side):
    """The tensor-product smoothstep cutoff of the cube (center, side) on
    the whole grid: 1 on the cube, 0 off its 4/3 enlargement."""
    out = np.ones(dom.shape)
    for a in range(dom.dim):
        rel = np.abs(dom.cell_centers() - center[a]) / (side / 2.0)
        t = np.clip((ALPHA_ENLARGE - rel) / (ALPHA_ENLARGE - 1.0), 0.0, 1.0)
        shape = [1] * dom.dim
        shape[a] = len(rel)
        out = out * (t * t * (3.0 - 2.0 * t)).reshape(shape)
    return out


def loop_local_majorant(u_q, m, p, cube_side, cube_center):
    """local_majorant with every step on the whole grid and the kernel
    spectrum rebuilt per call."""
    dom = u_q.domain
    vals = u_q.values
    if not vals.any():
        return MajorantResult(np.zeros_like(vals), 1.0, 0.0, 1.0, None)
    margin_cells = max(int((BETA_ENLARGE - ALPHA_ENLARGE) * cube_side
                           / (2.0 * dom.h)), 1)
    radius = max(margin_cells // max(m, 1), 1)
    ker1d = _iterated_kernel(m, radius)
    shape = vals.shape
    pad = len(ker1d)
    fshape = [int(2 ** math.ceil(math.log2(s + 2 * pad))) for s in shape]
    K = np.zeros(fshape)
    kernel_nd = ker1d
    for _ in range(dom.dim - 1):
        kernel_nd = np.multiply.outer(kernel_nd, ker1d)
    K[tuple(slice(0, len(ker1d)) for _ in shape)] = kernel_nd
    K = np.roll(K, [-(len(ker1d) // 2)] * dom.dim, axis=tuple(range(dom.dim)))
    Kf = np.fft.rfftn(K)
    U = np.zeros(fshape)
    U[tuple(slice(0, s) for s in shape)] = vals
    Uf = np.fft.rfftn(U)
    tau = dom.h**2
    denom = np.abs(Kf) ** 2 + tau
    cond = float((np.abs(Kf).max() ** 2 + tau) / (np.abs(Kf).min() ** 2 + tau))
    Ff = np.conj(Kf) * Uf / denom
    axes = tuple(range(dom.dim))
    f_src = np.fft.irfftn(Ff, s=fshape, axes=axes)
    f_plus = np.maximum(f_src, 0.0)
    v_raw = np.fft.irfftn(np.fft.rfftn(f_plus) * Kf, s=fshape, axes=axes)
    v = np.maximum(v_raw[tuple(slice(0, s) for s in shape)], 0.0)
    v = loop_cutoff(dom, cube_center, cube_side * ALPHA_ENLARGE) * v
    defect = np.maximum(vals - v, 0.0)
    defect_norm = float((defect**p).sum() * dom.h**dom.dim) ** (1.0 / p)
    v = v + defect

    def sobolev(f):
        return sum(gradient_seminorm(f, k, p, 0.0) for k in range(m + 1))

    norm_u = sobolev(u_q)
    norm_v = sobolev(DiscreteFunction(dom, v))
    factor = norm_v / norm_u if norm_u > 0 else 1.0
    # the split oracle takes its seminorms from gradient_seminorm
    return MajorantResult(v, factor, defect_norm, cond, None)


def loop_cube_center(dec, i):
    return (dec.coords[i].astype(float) + 0.5) * cube_side(dec, i)


def loop_enlarged_slice(dom, dec, i, enlarge):
    """Cells meeting cube i enlarged by the given factor, clipped to the
    grid, axis by axis."""
    n = 2**dom.level
    center, side = loop_cube_center(dec, i), cube_side(dec, i) * enlarge
    return tuple(slice(max(int(math.floor((c - side / 2.0) / dom.h)), 0),
                       min(int(math.ceil((c + side / 2.0) / dom.h)), n))
                 for c in center)


def loop_anchor_window(sl43, pad, shape):
    """The anchors of the differences of order pad reading the cells of a
    4/3 window, on an anchor grid of the given shape."""
    return tuple(slice(max(a.start, 0), min(a.stop + 2 * pad, shape[ax]))
                 for ax, a in enumerate(sl43))


def loop_overlap_count(dom, dec, enlarge):
    count = np.zeros(dom.shape, dtype=np.int32)
    for i in range(dec.n_cubes):
        count[loop_enlarged_slice(dom, dec, i, enlarge)] += 1
    return int(count.max())


def loop_cone_split(u, decomp, m, p, s):
    """cone_split with the cutoffs, the accumulation and the seminorms of
    every cube on the whole grid (hypothesis test left out)."""
    dom = u.domain
    v = np.zeros(dom.shape)
    per_cube = []
    sup_rho = sup_a0 = 0.0
    hN = dom.h**dom.dim
    mag, widx = gradient_magnitude(u, m)
    g_top = mag**p * distance_weight(dom, s, widx) * hN
    low_field = (np.abs(u.values) ** p
                 * distance_weight(dom, s - m * p, None) * hN)
    mult_top = np.zeros(g_top.shape, dtype=np.int32)
    mult_low = np.zeros(dom.shape, dtype=np.int32)
    for i in range(decomp.n_cubes):
        side = cube_side(decomp, i)
        center = loop_cube_center(decomp, i)
        u_q_vals = loop_cutoff(dom, center, side) * u.values
        if not u_q_vals.any():
            continue
        u_q = DiscreteFunction(dom, u_q_vals)
        res = loop_local_majorant(u_q, m, p, side, center)
        v += res.values
        sl43 = loop_enlarged_slice(dom, decomp, i, ALPHA_ENLARGE)
        awin = loop_anchor_window(sl43, m, g_top.shape)
        mult_low[sl43] += 1
        mult_top[awin] += 1
        num = sum(gradient_seminorm(DiscreteFunction(dom, res.values), k, p,
                                    s) ** p for k in range(m + 1))
        denom = float(low_field[sl43].sum()) + float(g_top[awin].sum())
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
    u1.values = np.maximum(u1.values, 0.0)
    u2 = DiscreteFunction(dom, np.where(dom.inside, u1.values - u.values, 0.0))
    overlap = loop_overlap_count(dom, decomp, BETA_ENLARGE)
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


SPLIT_RTOL = 1e-14   # the windowed sums add the same terms in another order
# the convolution back runs on the window's reach by 1-D passes, the oracle
# on the whole torus by FFT: the parts differ by rounding only
SPLIT_PART_RTOL = 4e-15


def assert_rel(got, want, what):
    assert got == want or abs(got - want) <= SPLIT_RTOL * max(abs(got),
                                                              abs(want)), what


def assert_split_matches_loop(u, dec, m, p, s):
    got = cone_split(u, dec, m, p, s)
    want = loop_cone_split(u, dec, m, p, s)
    scale = float(np.abs(u.values).max())
    for part in ("u1", "u2"):
        diff = np.abs(getattr(got, part).values - getattr(want, part).values)
        assert diff.max() <= SPLIT_PART_RTOL * scale, part
    assert_rel(got.norm_factor, want.norm_factor, "norm_factor")
    assert got.factors.keys() == want.factors.keys()
    for key, val in want.factors.items():
        assert_rel(got.factors[key], val, key)
    assert ([r["cube"] for r in got.per_cube_log]
            == [r["cube"] for r in want.per_cube_log])
    for g, w in zip(got.per_cube_log, want.per_cube_log):
        assert g.keys() == w.keys()
        for key in w:
            if key == "defect":
                # block - v cancels: bound its move by the cube's majorant
                assert (abs(g[key] - w[key])
                        <= SPLIT_RTOL * w["majorant_norm"]), (w["cube"], key)
            else:
                assert_rel(g[key], w[key], (w["cube"], key))
    return got


def whole_torus_convolve(f, ker1d):
    """G*f on the whole grid of f by FFT, G the tensor kernel of ker1d
    centred at the origin (circular convolution)."""
    dim = f.ndim
    K = np.zeros(f.shape)
    kernel_nd = ker1d
    for _ in range(dim - 1):
        kernel_nd = np.multiply.outer(kernel_nd, ker1d)
    K[(slice(0, len(ker1d)),) * dim] = kernel_nd
    axes = tuple(range(dim))
    K = np.roll(K, [-(len(ker1d) // 2)] * dim, axis=axes)
    return np.fft.irfftn(np.fft.rfftn(f) * np.fft.rfftn(K), s=f.shape,
                         axes=axes)


def gather_reach(f, window, taps):
    """f on the cells G*f_+ reads on the box slice window, G centred as in
    whole_torus_convolve: the window grown by taps - 1 - taps // 2 cells
    below and taps // 2 above, modulo the grid of f."""
    return f[np.ix_(*[np.arange(sl.start - (taps - 1 - taps // 2),
                                sl.stop + taps // 2) % n
                      for sl, n in zip(window, f.shape)])]


def edge_windows(dim, n):
    """Box slices of an n^dim grid at its low edge, its high edge, in its
    middle and over all of it, then one mixing the first three by axis."""
    edges = [(0, 5), (n - 6, n), (3, n - 4), (0, n)]
    windows = [tuple(slice(*e) for _ in range(dim)) for e in edges]
    windows.append(tuple(slice(*edges[a % 3]) for a in range(dim)))
    return windows


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_convolve_back_matches_whole_torus(dim, n, m):
    # the window's reach wraps at the low edge, the high edge, and both
    # (the whole grid) of the torus; a middle window does not wrap.  An
    # even, lopsided kernel pins the centring the symmetric ones hide.
    rng = np.random.default_rng(10 * dim + m)
    f_src = rng.standard_normal((n,) * dim)
    scale = float(f_src.max())
    for ker1d in (_iterated_kernel(m, 2), rng.random(2 * m + 2)):
        want = whole_torus_convolve(np.maximum(f_src, 0.0), ker1d)
        for window in edge_windows(dim, n):
            got = _convolve_back(gather_reach(f_src, window, len(ker1d)),
                                 ker1d)
            assert got.shape == want[window].shape and (got >= 0).all()
            assert (np.abs(got - want[window]).max()
                    <= SPLIT_PART_RTOL * scale)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_pruned_deconvolution_matches_whole_grid(dim, n, m):
    # the pruned transforms give the whole-grid irfftn on the reach, bit
    # for bit, for windows whose reach wraps at either edge of the FFT grid
    # or at none; an even, lopsided kernel tells below from above
    rng = np.random.default_rng(100 * dim + m)
    for ker1d in (_iterated_kernel(m, 2), rng.random(2 * m + 2)):
        taps = len(ker1d)
        fshape = (int(2 ** math.ceil(math.log2(n + 2 * taps))),) * dim
        Kf_conj, denom, _ = _kernel_spectrum(ker1d, dim, fshape, 1.0 / n**2)
        for window in edge_windows(dim, n):
            block = rng.standard_normal(tuple(sl.stop - sl.start
                                              for sl in window))
            U = np.zeros(fshape)
            U[window] = block
            Uf = np.fft.rfftn(U)
            want = gather_reach(np.fft.irfftn(Kf_conj * Uf / denom,
                                              s=fshape,
                                              axes=tuple(range(dim))),
                                window, taps)
            got = _deconvolve(block, window, fshape, Kf_conj, denom, taps)
            assert np.array_equal(got, want), (window, taps)


def _clipped(dec, enlarge):
    """Whether some cube's enlarged window reaches past the box; checks the
    windows against the cube-by-cube rule on the way."""
    dom = dec.domain
    n = 2**dom.level
    lo, hi = _enlarged_boxes(dom, dec, enlarge)
    assert [tuple(map(slice, a, b)) for a, b in zip(lo.tolist(), hi.tolist())] \
        == [loop_enlarged_slice(dom, dec, i, enlarge)
            for i in range(dec.n_cubes)]
    for i in range(dec.n_cubes):
        center = loop_cube_center(dec, i)
        half = cube_side(dec, i) * enlarge / 2.0
        if ((np.floor((center - half) / dom.h) < 0).any()
                or (np.ceil((center + half) / dom.h) > n).any()):
            return True
    return False


@pytest.fixture(scope="module")
def square6_split():
    dom = rasterize(DomainSpec(kind="square", dim=2, level=6))
    dec = decompose(dom)
    assert _clipped(dec, BETA_ENLARGE)
    return dom, dec


@pytest.mark.parametrize("s", [0.0, -1.0])
@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("m", [1, 2])
def test_windowed_split_matches_loop_square(square6_split, m, p, s):
    dom, dec = square6_split
    assert_split_matches_loop(make_probe(dom, 3), dec, m, p, s)


@pytest.mark.parametrize("kind,dim,level,m", [
    ("halfspace", 2, 6, 2),
    ("cube-minus-compact", 3, 4, 1),
])
def test_windowed_split_matches_loop_domains(monkeypatch, kind, dim, level,
                                             m):
    from hardylab import cone
    dom = rasterize(DomainSpec(kind=kind, dim=dim, level=level))
    dec = decompose(dom)
    assert _clipped(dec, BETA_ENLARGE)
    # bumps cut 2 cells from the boundary reach the clipped windows
    monkeypatch.setattr(cone, "PROBE_MARGIN_CELLS", 2)
    u = make_probe(dom, 7)
    split = assert_split_matches_loop(u, dec, m, 2.0, 0.0)
    assert split.per_cube_log


def _benchmark_probe(seed):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    dom = rasterize(DomainSpec.from_json(wl.LSHAPE7))
    vals = wl._probe_values(dom.inside, dom.distance, dom.h, seed)
    return dom, DiscreteFunction(dom, vals)


@pytest.mark.parametrize("m,p,s", [(2, 2.0, 0.0), (1, 1.5, -1.0)])
def test_windowed_split_matches_loop_benchmark_probe(m, p, s):
    dom, u = _benchmark_probe(1)
    assert_split_matches_loop(u, decompose(dom), m, p, s)


# -- constructive-bound assembly -------------------------------------------------


def loop_constructive_bound(decomp, params, field, f, seed):
    """The cube-by-cube assembly of constructive_bound: (constant_A,
    factors, flags, per_cube), with the norm-equivalence fallback counted
    cube by cube."""
    dom = decomp.domain
    dim = dom.dim
    t, s1 = weight_exponents(params, dim)
    sigma, a_offset = _case_sigma(params, dim)
    holder = params.form == "holder-6.23"
    r, q = params.r, params.q
    pcap = params.capacity_exponent()
    theta = params.theta_case()
    single = params.k == params.m - 1
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
        h_integrals = decomp.rq_distance_integrals(expo)

    a614_cache = {}
    fallback = 0
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
        d_q = max(float(decomp.dist_min[i]), clamp)
        d_max = max(float(decomp.dist_max[i]), clamp)
        if holder:
            base = (d_q if t >= 0 else d_max) ** (-t) \
                * side_r ** (-(params.h_order + params.lam))
        else:
            base = (d_q if t >= 0 else d_max) ** (-t / q) * side_r ** (dim / q)
        h_defect = 1.0
        if h_integrals is not None:
            h_defect = float(h_integrals[i]) \
                ** ((params.p - pm) / (params.p * pm))
        if theta:
            alpha_i = 0.0
            cmf = (field.A0 + field.chain_best[i]) / field.rep_best[i]
        else:
            lam_pow = field.rep_best[i] ** (-pcap / params.p)
            if single:
                alpha_i = 0.0
                cmf = lam_pow * field.chain_best[i]
            else:
                origin = decomp.rq_center[i] - decomp.rq_side[i] / 2.0
                corner = (np.array([c * cube_side(decomp, i)
                                    for c in decomp.coords[i]])
                          - origin) / side_r
                frac = cube_side(decomp, i) / side_r
                ckey = (round(frac, 6),) + tuple(np.round(corner, 6))
                if ckey not in a614_cache:
                    try:
                        a614 = norm_equivalence_constant(
                            corner, frac, params.m, params.k, pm, params.p1,
                            field.grid_level, dim, seed)
                        failed = False
                    except CapacityError:
                        a614, failed = 1.0, True
                    a614_cache[ckey] = (max(a614, 1.0), failed)
                a614, failed = a614_cache[ckey]
                fallback += failed
                w1 = (d_q if s1 >= 0 else d_max) ** (-s1 / params.p1)
                alpha_i = base * lam_pow * field.chain_best[i] * a614 \
                    * side_r ** (params.k + 1 - dim / params.p1) * w1
                cmf = lam_pow * field.chain_best[i] * (1.0 + a614)
        beta_i = base * cmf * side_r ** (params.m - dim / pm) * h_defect
        alpha_sup = max(alpha_sup, alpha_i)
        K_sup = max(K_sup, beta_i**params.p * cube_diam(decomp, i) ** sigma)
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
    if fallback:
        flags.append(f"norm-equivalence-fallback:{fallback}")

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
        "alpha_sup": alpha_sup, "dilation_packing_K": K_sup,
        "summation_factor": summation, "quasinorm_factor": quasi,
        "capacity_floor": lam_floor,
        "constant_weighted_form": constant_weighted,
        "constant_flat_form": constant_flat,
    }
    return float(constant_A), factors, flags, per_cube


ASSEMBLY_RTOL = 1e-15   # numpy and Python powers differ in the last bit

# (domain, params, capacity grid level, with the cube weight f)
BOUND_CASES = {
    "square6-A": (dict(kind="square", dim=2, level=6),
                  dict(m=1, s=-1.0, case="A"), 4, False),
    "lshape6-A": (dict(kind="lshape", dim=2, level=6),
                  dict(m=1, s=-1.0, case="A"), 4, False),
    "square6-B": (dict(kind="square", dim=2, level=6),
                  dict(m=1, s=0.3, case="B", p0=1.0, dim_loc_value=1.0), 3,
                  False),
    "square6-C": (dict(kind="square", dim=2, level=6),
                  dict(m=1, s=-1.0, case="C", A0=0.1), 4, False),
    "interval8-D": (dict(kind="interval", dim=1, level=8),
                    dict(m=2, s=-1.0, case="D", p0=1.5, A0=0.1,
                         dim_loc_value=0.0), 4, False),
    "square6-A-two-term": (dict(kind="square", dim=2, level=6),
                           dict(m=2, k=0, s=-1.0, case="A"), 4, False),
    "interval8-holder": (dict(kind="interval", dim=1, level=8),
                         dict(m=1, s=-1.0, lam=0.4, form="holder-6.23",
                              case="A"), 4, False),
    "interval8-f": (dict(kind="interval", dim=1, level=8),
                    dict(m=1, q=1.9, s=-1.0, case="A"), 4, True),
}


@pytest.mark.parametrize("name", list(BOUND_CASES))
def test_array_assembly_matches_loop(monkeypatch, name):
    from hardylab import hardy
    spec, overrides, grid_level, with_f = BOUND_CASES[name]
    dec = decompose(rasterize(DomainSpec(**spec)))
    params = HardyParams(**dict(dict(p=2.0), **overrides))
    fields = []

    def kept(*args):
        fields.append(per_cube_capacity_field(*args))
        return fields[-1]

    # the loop assembles from the field the bound solved
    monkeypatch.setattr(hardy, "per_cube_capacity_field", kept)
    f = equidistributed(dec.n_cubes, params) if with_f else None
    rep = constructive_bound(dec, params, grid_level, 0, f=f)
    (field,) = fields
    constant_A, factors, flags, per_cube = loop_constructive_bound(
        dec, params, field, f, seed=0)
    assert rep.constant_A == constant_A
    for key, val in factors.items():
        assert rep.factors[key] == val, key
    assert rep.flags == flags
    assert [row.keys() for row in rep.per_cube] \
        == [row.keys() for row in per_cube]
    for got, want in zip(rep.per_cube, per_cube):
        for key, val in want.items():
            assert got[key] == val or (
                abs(got[key] - val) <= ASSEMBLY_RTOL * abs(val)), (
                got["cube"], key)
    contributing = sum("beta" in row for row in per_cube)
    if name == "square6-B":
        # k = m-1 with p1 = p != p0 takes the one-term route of the field:
        # no norm-equivalence lemma, no quasinorm split, no alpha term
        assert not any(flag.startswith("norm-equivalence-fallback")
                       for flag in rep.flags)
        assert rep.factors["quasinorm_factor"] == 1.0
        assert rep.factors["alpha_sup"] == 0.0
    if name == "square6-A-two-term":
        assert not any(flag.startswith("norm-equivalence-fallback")
                       for flag in rep.flags)
        assert contributing and factors["alpha_sup"] > 0


# -- Hölder and Poincaré solves on the ratio core ----------------------------------


def loop_ascent(objective, n_dofs, zero_flat, cone, seed, starts_extra=(),
                max_iters=300):
    """The projected normalized ascent on a hand-written objective(u) ->
    (value, gradient), as it ran before the ratio core served every
    solve."""
    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(n_dofs) for _ in range(8)]
    starts += [np.asarray(s, dtype=float) for s in starts_extra]
    best_val, best_res = 0.0, 0.0
    for u0 in starts:
        u = _project(u0.copy(), zero_flat, cone)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            continue
        u /= nrm
        val, grad = objective(u)
        step = 0.5
        res = math.inf
        for _ in range(max_iters):
            g = _project(grad, zero_flat, False)
            g -= np.dot(g, u) * u
            if cone:
                g = np.where((u <= 0) & (g < 0), 0.0, g)
            res = float(np.linalg.norm(g))
            if res <= 1e-10 * max(1.0, abs(val)):
                break
            improved = False
            while step > 1e-12:
                cand = _project(u + step * g, zero_flat, cone)
                nc = np.linalg.norm(cand)
                if nc > 0:
                    cand /= nc
                    cval, cgrad = objective(cand)
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


def loop_holder_best_constant(cs, grid_level, dim, h_order, lam, den_terms,
                              seed):
    """The Hölder chain solve with its own argmax over difference pairs
    (one slice pair per order and offset, among the anchors of the
    (m_cells - h_order)^dim corner window, where every order-h_order
    difference is defined) and its own subgradient."""
    m_cells = 2**grid_level
    h_c = 1.0 / m_cells
    shape = (m_cells,) * dim
    window = (slice(0, m_cells - h_order),) * dim
    zero = cs.zero_mask(shape).reshape(-1)
    num_ops = _with_transposes(gradient_form_ops(m_cells, dim, h_order))
    dens = [_unit_term(m_cells, dim, o, q) for o, q in den_terms]
    shifts = []
    for off in product(range(-2, 3), repeat=dim):
        d2 = sum(o * o for o in off)
        if 0 < d2 <= 4:
            shifts.append((off, (math.sqrt(d2) * h_c) ** lam))

    def quotient(u):
        best = (0.0, None, 0, 0, 1.0, 1.0)
        for _, op, opT in num_ops:
            F = (op @ u).reshape(shape)[window]
            for off, dist_pow in shifts:
                dst_sl, src_sl = [], []
                for ax, o in enumerate(off):
                    nn = F.shape[ax]
                    dst_sl.append(slice(max(0, -o), nn - max(0, o)))
                    src_sl.append(slice(max(0, o), nn - max(0, -o)))
                diff = F[tuple(dst_sl)] - F[tuple(src_sl)]
                if diff.size == 0:
                    continue
                idx = np.argmax(np.abs(diff))
                val = diff.reshape(-1)[idx] / dist_pow
                if abs(val) > best[0]:
                    loc = np.unravel_index(idx, diff.shape)
                    x_idx = np.ravel_multi_index(
                        tuple(l + s.start for l, s in zip(loc, dst_sl)), shape)
                    y_idx = np.ravel_multi_index(
                        tuple(l + s.start for l, s in zip(loc, src_sl)), shape)
                    best = (abs(val), opT, int(x_idx), int(y_idx),
                            math.copysign(1.0, val), dist_pow)
        return best

    def objective(u):
        val, opT, xi, yi, sign, dist_pow = quotient(u)
        if opT is None:
            return 0.0, np.zeros_like(u)
        e = np.zeros(opT.shape[1])
        e[xi] = sign / dist_pow
        e[yi] = -sign / dist_pow
        gnum = opT @ e
        den, gden = _sum_terms(u, dens)
        if den <= 1e-300:
            return math.inf, gnum
        ratio = val / den
        return ratio, gnum / den - ratio * gden / den

    return loop_ascent(objective, m_cells**dim, zero, cs.cone, seed,
                       list(_poly_basis(m_cells, dim, 2).T), max_iters=200)


def loop_poincare_constant(dim, order, p, p1, grid_level, seed):
    """The p != 2 Poincaré constant with its own projected objective."""
    m_cells = 2**grid_level
    hN = (1.0 / m_cells) ** dim
    Qb, _ = np.linalg.qr(_poly_basis(m_cells, dim, order - 1))
    ops = _with_transposes(gradient_form_ops(m_cells, dim, order))

    def objective(u):
        w = u - Qb @ (Qb.T @ u)
        num, gnum_w = lp_norm_grad(w, p, hN)
        gnum = gnum_w - Qb @ (Qb.T @ gnum_w)
        den, gden = gradient_norm_grad(u, ops, p1, hN)
        if den <= 1e-300:
            return 0.0, gnum
        val = num / den
        return val, gnum / den - val * gden / den

    n = m_cells**dim
    return loop_ascent(objective, n, np.zeros(n, dtype=bool), False, seed)[0]


RATIO_CORE_RTOL = 1e-13  # stacked-row products round differently


def _holder_set(dim, grid_level, cone):
    m_cells = 2**grid_level
    K = np.zeros((m_cells,) * dim, dtype=bool)
    K[:2] = True
    return ConstraintSet(K, cone)


# every (grid, order, denominator, cone) combination, lambda in turn
HOLDER_CASES = [
    (dim, level, h_order, (0.25, 0.4, 0.5)[i % 3], den_terms, cone)
    for i, ((dim, level), h_order, den_terms, cone) in enumerate(product(
        [(1, 4), (2, 3), (2, 4)], [0, 1], [[(1, 2.0)], [(1, 1.5), (2, 2.0)]],
        [False, True]))
]


@pytest.mark.parametrize("dim,grid_level,h_order,lam,den_terms,cone",
                         HOLDER_CASES)
def test_holder_ratio_matches_loop(dim, grid_level, h_order, lam, den_terms,
                                   cone):
    cs = _holder_set(dim, grid_level, cone)
    best, _, solver = holder_ratio_best_constant(
        cs, grid_level, dim, h_order, lam, den_terms, seed=3)
    want, _ = loop_holder_best_constant(
        cs, grid_level, dim, h_order, lam, den_terms, seed=3)
    assert solver == "descent"
    assert 0 < best < math.inf
    assert abs(best - want) <= RATIO_CORE_RTOL * want, (best, want)


@pytest.mark.parametrize("dim,order,grid_level,p", [
    (1, 1, 4, 1.5), (1, 2, 4, 3.0), (2, 1, 3, 3.0), (2, 2, 3, 1.5),
    (3, 1, 2, 1.5), (3, 1, 2, 3.0), (3, 2, 2, 1.5)])
def test_poincare_ratio_matches_loop(dim, order, grid_level, p):
    got = poincare_constant(dim, order, p, p, grid_level)
    want = loop_poincare_constant(dim, order, p, p, grid_level, seed=0)
    assert 0 < got < math.inf
    assert abs(got - want) <= RATIO_CORE_RTOL * want, (got, want)


# -- ratio-term matvec handles against scipy's own products -----------------------


def _same_bits(got, want):
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _handle_operators():
    for dim, order, level in product([1, 2, 3], [1, 2, 3], [2, 3, 4]):
        for _, op in gradient_form_ops(2**level, dim, order):
            yield f"form-{dim}d-o{order}-l{level}", op
    for dim, level, h_order, lam in [(1, 4, 0, 0.5), (1, 4, 1, 0.25),
                                     (2, 3, 1, 0.4), (2, 4, 0, 0.25)]:
        yield (f"holder-{dim}d-l{level}-h{h_order}",
               _holder_operator(2**level, dim, h_order, lam))
    for spec, m in [(dict(kind="lshape", dim=2, level=5), 1),
                    (dict(kind="lshape", dim=2, level=5), 2),
                    (dict(kind="cube-minus-compact", dim=3, level=4), 1)]:
        dom = rasterize(DomainSpec(**spec))
        for _, op in _inside_ops(dom, m):
            yield f"inside-{spec['kind']}-m{m}", op


def test_matvec_handles_are_the_scipy_kernel():
    # a handle's product is scipy's `op @ x` (`op.T @ x` for the transpose)
    # bit for bit, signed zeros included; a scipy release that changes its
    # private kernel fails here first
    rng = np.random.default_rng(18)
    seen = 0
    for name, op in _handle_operators():
        (_, fwd, bwd), = _with_transposes([(1, op)])
        assert fwd.shape == op.shape and bwd.shape == op.T.shape, name
        for side, handle, ref in ((0, fwd, op), (1, bwd, op.T)):
            n = op.shape[1 - side]
            holey = rng.standard_normal(n)
            holey[::3] = 0.0
            holey[1::5] = -0.0
            for x in (rng.standard_normal(n), holey, np.zeros(n), -holey):
                assert _same_bits(handle @ x, ref @ x), (name, side)
        seen += 1
    assert seen > 100
    with pytest.raises(ValueError):
        _Matvec(op, transpose=False) @ np.zeros(op.shape[1] + 1)


def _scipy_triples(ops):
    """The (mult, op, op.T) triples of sparse products that ran before the
    handles."""
    return [(mult, op, op.T) for mult, op in ops]


def _square6_class(cone):
    dom = rasterize(DomainSpec(kind="square", dim=2, level=6))
    reps, _ = _constraint_classes(decompose(dom), 3, cone)
    # the class with the fewest zero cells that is not saturated
    return min((cs for cs in reps if not cs.K.all()), key=lambda cs: cs.K.sum())


ASCENT_CASES = {
    # square L6 case B (p0 = 1) at capacity grid 3, as in bound-2d
    "square6B-gamma-p1": lambda: gamma_capacity(
        _square6_class(False), 1, 0, 1.0, 1.0, 3, 2, seed=1),
    "square6B-chain-q2": lambda: ratio_best_constant(
        _square6_class(False), 3, 2, (0, 2.0), [(1, 1.0)], seed=1),
    "square6-cone": lambda: gamma_capacity(
        _square6_class(True), 1, 0, 2.0, 2.0, 3, 2, seed=1),
    "holder-inf": lambda: holder_ratio_best_constant(
        _square6_class(False), 3, 2, 1, 0.25, [(1, 2.0)], seed=1),
    "theta-a0": lambda: theta_capacity(
        _square6_class(False), 1, 0, 1.5, 1.5, 0.01, 3, 2, seed=1),
    "direct-lshape4-p1.5": lambda: direct_best_constant(
        rasterize(DomainSpec(kind="lshape", dim=2, level=4)),
        HardyParams(m=1, p=1.5, q=1.5, s=-1.0), seed=1),
}


@pytest.mark.parametrize("name", sorted(ASCENT_CASES))
def test_ascents_on_handles_match_scipy_products(monkeypatch, name):
    from hardylab import capacity, hardy
    descent = capacity._ratio_descent

    def run():
        out = []

        def recorded(*args, **kwargs):
            out.append(descent(*args, **kwargs))
            return out[-1]

        with monkeypatch.context() as mp:
            mp.setattr(capacity, "_ratio_descent", recorded)
            mp.setattr(hardy, "_ratio_descent", recorded)
            ASCENT_CASES[name]()
        return out

    on_handles = run()
    with monkeypatch.context() as mp:
        mp.setattr(capacity, "_with_transposes", _scipy_triples)
        mp.setattr(hardy, "_with_transposes", _scipy_triples)
        on_scipy = run()
    assert len(on_handles) == 1 and on_handles[0][0] > 0
    assert on_handles == on_scipy
