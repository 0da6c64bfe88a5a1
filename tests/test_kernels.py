"""Whole-array geometry kernels and the constraint-class map pinned to the
per-edge and per-cube loops they replace (the loops are kept here as
oracles)."""

import math

import numpy as np
import pytest

from hardylab.capacity import ConstraintSet
from hardylab.grids import (DomainSpec, GridDomain, distance_transform,
                            rasterize, _koch_polygon, _points_in_polygon)
from hardylab.hardy import (_constraint_classes, _largest_cube_side,
                           _projection_condition)
from hardylab.whitney import (WhitneyError, WhitneyDecomposition,
                              check_decomposition, decompose,
                              intersection_cutoff)


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


def loop_rq_slice(dec, i):
    dom = dec.domain
    h, n = dom.h, 2**dom.level
    lo = dec.rq_center[i] - dec.rq_side[i] / 2.0
    hi = dec.rq_center[i] + dec.rq_side[i] / 2.0
    eps = 1e-9 * h
    out = []
    for a in range(dom.dim):
        i0 = max(int(math.ceil((lo[a] + eps) / h - 0.5)), 0)
        i1 = min(int(math.floor((hi[a] - eps) / h - 0.5)), n - 1)
        out.append(slice(i0, i1 + 1))
    return tuple(out)


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
                      > 10.0 * dec.diam(i) + 2.0 * root_n * h + 1e-9 * h)
    worst_ratio = 0.0
    for i, j in pairs:
        di, dj = dec.diam(int(i)), dec.diam(int(j))
        worst_ratio = max(worst_ratio, di / dj, dj / di)
    worst_nbr = 0.0
    for i in range(dec.n_cubes):
        ids = np.unique(owner[loop_rq_slice(dec, i)])
        for j in ids[ids >= 0]:
            worst_nbr = max(worst_nbr, dec.diam(int(j)) / dec.diam(i))
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
    # whether some enlarged cubes reach past the box and are clipped
    h, eps = dom.h, 1e-9 * dom.h
    lo = np.ceil((dec.rq_center - dec.rq_side[:, None] / 2 + eps) / h - 0.5)
    hi = np.floor((dec.rq_center + dec.rq_side[:, None] / 2 - eps) / h - 0.5)
    assert bool(((lo < 0) | (hi > 2**level - 1)).any()) == clipped
    rng = np.random.default_rng(level)
    weight = rng.random(dom.shape) * dom.inside
    sums = dec.rq_sums(weight)
    oracle = np.array([weight[sl].sum() for sl in slices])
    assert np.allclose(sums, oracle, rtol=1e-12, atol=0.0)
    counts = dec.rq_sums(dom.inside)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, [dom.inside[sl].sum() for sl in slices])
    for i in range(0, dec.n_cubes, 5):
        assert dec.rq_slice(i) == slices[i]


# -- decomposition structures ------------------------------------------------------


def _frame():
    inside = np.zeros((32, 32), dtype=bool)
    inside[1:-1, 1:-1] = True
    return distance_transform(GridDomain(dim=2, level=5, inside=inside))


@pytest.mark.parametrize("make", [
    lambda: rasterize(DomainSpec(kind="halfspace", dim=2, level=7)),
    lambda: rasterize(DomainSpec(kind="lshape", dim=2, level=7)),
    lambda: rasterize(DomainSpec(kind="koch-polygon", dim=2, level=7,
                                 iterations=3)),
    lambda: rasterize(DomainSpec(kind="cantor-complement", dim=1, level=9,
                                 iterations=4)),
    lambda: rasterize(DomainSpec(kind="cube-minus-compact", dim=3, level=4)),
    lambda: rasterize(DomainSpec(kind="cube-minus-compact", dim=2, level=6,
                                 radius=0.0)),
    _frame,
], ids=["halfspace", "lshape", "koch", "cantor", "cube-minus-compact-3d",
        "point", "frame"])
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
    for i in range(0, dec.n_cubes, 3):
        assert dec.min_distance(i) == dec.domain.distance[cube_slice(dec, i)].min()
        assert dec.max_distance(i) == dec.domain.distance[cube_slice(dec, i)].max()
        ids = np.unique(owner[loop_rq_slice(dec, i)])
        assert np.array_equal(dec.neighbors(i), ids[ids >= 0])


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
    rmap = dec.rescale_map(i)
    axes = [(np.arange(m_cells) + 0.5) / m_cells for _ in range(dom.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    unit = np.stack([g.reshape(-1) for g in grids], axis=1)
    phys = rmap.from_unit(unit)
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
    K = K.reshape((m_cells,) * dom.dim)
    kind = "zero-on-compact-and-nonnegative" if cone else "zero-on-compact"
    return ConstraintSet(kind, K)


def loop_classes(dec, grid_level, cone):
    """Classes keyed by canonical_key, cube by cube, in first-cube order."""
    index: dict[bytes, int] = {}
    reps, cls = [], []
    for i in range(dec.n_cubes):
        cs = loop_cube_constraint(dec, i, grid_level, cone)
        key = cs.canonical_key()
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
        assert got.kind == want.kind
        assert got.K.shape == want.K.shape
        assert got.K.tobytes() == want.K.tobytes()
    # classes are numbered in order of their first cube
    firsts = [int(np.argmax(cls == c)) for c in range(len(reps))]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("name", ["halfspace-2d", "lshape", "koch",
                                  "interval", "halfspace-3d",
                                  "cube-minus-compact-3d"])
def test_projection_condition_per_class_matches_per_cube(class_decomps, name):
    dec = class_decomps[name]
    for r_dim in range(dec.domain.dim + 1):
        assert (_projection_condition(dec, 3, r_dim)
                == loop_projection_condition(dec, 3, r_dim))
