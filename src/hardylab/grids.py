"""Rasterized open sets on dyadic grids with exact boundary distance fields.

Domains live in the unit box [0,1]^N sampled at cell centers, padded by an
implicit one-cell outside collar so the complement is never empty and the
distance field is well defined everywhere.  Cell (i_1,...,i_N) has center
((i_1+0.5)h, ..., (i_N+0.5)h) with h = 2^-level; arrays are indexed in the
same order (C layout).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

KINDS = (
    "halfspace",
    "interval",
    "square",
    "lshape",
    "cube-minus-compact",
    "koch-polygon",
    "cantor-complement",
    "raw-mask",
)


class DomainError(ValueError):
    """Invalid domain specification or raster input."""


# Largest raster a spec may ask for: (2^level)^dim cells.  2^24 admits 2-D
# level 12 and 3-D level 8; every raster is a few float arrays of this size.
MAX_CELLS = 2**24


@dataclass(frozen=True)
class DomainSpec:
    """Parametric description of a raster domain.

    kind : one of KINDS
    dim : ambient dimension N in {1,2,3}
    level : dyadic refinement level L (grid has 2^L cells per side)
    iterations : generator iterations for koch-polygon / cantor-complement
    ratio : end-interval ratio for cantor-complement, in (0, 1/2)
    radius : ball radius for cube-minus-compact (0 removes one center cell)
    path : mask file for raw-mask
    """

    kind: str
    dim: int
    level: int
    iterations: int = 0
    ratio: float = 1.0 / 3.0
    radius: float = 0.125
    path: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.dim not in (1, 2, 3):
            raise DomainError("dim must be 1, 2 or 3")
        if not (4 <= self.level <= 14):
            raise DomainError("level must lie in [4, 14]")
        if (2**self.level) ** self.dim > MAX_CELLS:
            raise DomainError(
                f"{self.dim}-D level {self.level} needs "
                f"{(2**self.level) ** self.dim} cells, over the budget of "
                f"{MAX_CELLS}")
        if self.iterations < 0:
            raise DomainError("iterations must be >= 0")
        if self.kind == "cantor-complement" and not (0.0 < self.ratio < 0.5):
            raise DomainError("ratio must lie in (0, 1/2)")
        if self.kind == "interval" and self.dim != 1:
            raise DomainError("interval requires dim=1")
        if self.kind == "square" and self.dim != 2:
            raise DomainError("square requires dim=2")
        if self.kind == "lshape" and self.dim != 2:
            raise DomainError("lshape requires dim=2")
        if self.kind == "koch-polygon" and self.dim != 2:
            raise DomainError("koch-polygon requires dim=2")
        if self.kind == "cantor-complement" and self.dim != 1:
            raise DomainError("cantor-complement requires dim=1")
        if self.kind == "cube-minus-compact" and self.dim == 1:
            raise DomainError("cube-minus-compact requires dim>=2")
        if self.kind == "raw-mask" and not self.path:
            raise DomainError("raw-mask requires path")

    @staticmethod
    def from_json(doc) -> "DomainSpec":
        """Build a spec from a JSON document (dict, JSON text, or file path)."""
        if isinstance(doc, str):
            text = doc
            if not doc.lstrip().startswith("{"):
                with open(doc) as fh:
                    text = fh.read()
            doc = json.loads(text)
        if not isinstance(doc, dict):
            raise DomainError("domain spec document must be a JSON object")
        known = {"kind", "dim", "level", "iterations", "ratio", "radius", "path"}
        extra = set(doc) - known
        if extra:
            raise DomainError(f"unknown domain spec fields: {sorted(extra)}")
        try:
            return DomainSpec(**doc)
        except TypeError as exc:
            raise DomainError(str(exc)) from None


@dataclass
class GridDomain:
    """Raster of an open set with its boundary distance field.

    inside : bool array, shape (2^level,)*dim; cell center in the domain
    distance : float array, same shape; Euclidean distance from each inside
        cell center to the nearest outside cell center (collar included),
        in units of the box side.  Zero on outside cells.
    """

    dim: int
    level: int
    inside: np.ndarray
    distance: np.ndarray | None = None
    complement_nonempty: bool = True
    spec: DomainSpec | None = field(default=None, repr=False)
    pad_mode: str = "collar"

    def __post_init__(self):
        n = 2 ** self.level
        if self.inside.shape != (n,) * self.dim:
            raise DomainError("inside mask shape does not match level")
        self.inside = np.ascontiguousarray(self.inside, dtype=bool)
        if self.pad_mode not in ("collar", "replicate"):
            raise DomainError("pad_mode must be 'collar' or 'replicate'")
        if self.pad_mode == "replicate" and not (~self.inside).any():
            raise DomainError("replicate padding needs outside cells in the box")
        # With the collar the complement is never empty; with replication the
        # box itself must contain outside cells (checked above).
        self.complement_nonempty = True

    def padded_inside(self) -> np.ndarray:
        """Inside mask with the one-cell boundary ring: an outside collar for
        bounded domains, edge replication for unbounded model domains."""
        if self.pad_mode == "replicate":
            return np.pad(self.inside, 1, mode="edge")
        return np.pad(self.inside, 1, mode="constant", constant_values=False)

    @property
    def h(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def shape(self):
        return self.inside.shape

    def cell_centers(self, axis: int) -> np.ndarray:
        n = 2 ** self.level
        return (np.arange(n) + 0.5) * self.h

    def center_grid(self) -> list[np.ndarray]:
        """Meshgrid (ij indexing) of cell-center coordinates."""
        axes = [self.cell_centers(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def with_distance(self) -> "GridDomain":
        return distance_transform(self)


def rasterize(spec: DomainSpec) -> GridDomain:
    """Rasterize a domain spec: inside flags at cell centers plus distance.

    Polygons are filled by scanline crossings (see _points_in_polygon), so
    their cost grows with the edge-row crossings plus the cells, not with
    edges times cells.
    """
    n = 2 ** spec.level
    h = 2.0 ** (-spec.level)
    centers = [(np.arange(n) + 0.5) * h for _ in range(spec.dim)]
    grids = np.meshgrid(*centers, indexing="ij")

    if spec.kind == "halfspace":
        inside = grids[spec.dim - 1] > 0.5
    elif spec.kind in ("interval", "square"):
        inside = np.ones((n,) * spec.dim, dtype=bool)
    elif spec.kind == "lshape":
        x, y = grids
        inside = ~((x > 0.5) & (y < 0.5))
    elif spec.kind == "cube-minus-compact":
        center = 0.5
        r2 = sum((g - center) ** 2 for g in grids)
        if spec.radius <= 0.0:
            inside = np.ones((n,) * spec.dim, dtype=bool)
            idx = np.unravel_index(np.argmin(r2), r2.shape)
            inside[idx] = False
        else:
            inside = r2 > spec.radius**2
    elif spec.kind == "koch-polygon":
        verts = _koch_polygon(spec.iterations)
        inside = _points_in_polygon(centers[0], centers[1], verts)
    elif spec.kind == "cantor-complement":
        intervals = _cantor_intervals(spec.iterations, spec.ratio)
        x = grids[0]
        covered = np.zeros_like(x, dtype=bool)
        for a, b in intervals:
            covered |= (x >= a) & (x <= b)
        inside = ~covered
    elif spec.kind == "raw-mask":
        inside = read_ndgrid(spec.path, expect_dim=spec.dim, expect_level=spec.level)
    else:  # pragma: no cover - guarded by DomainSpec
        raise DomainError(spec.kind)

    unbounded = spec.kind in ("halfspace", "cube-minus-compact")
    pad_mode = "replicate" if unbounded else "collar"
    dom = GridDomain(dim=spec.dim, level=spec.level, inside=inside, spec=spec,
                     pad_mode=pad_mode)
    return distance_transform(dom)


def distance_transform(domain: GridDomain) -> GridDomain:
    """Euclidean distance from inside cell centers to the outside region.

    Computed as the exact center-to-center Euclidean transform (two-pass
    dimensional reduction) minus half a cell width, which is the exact
    offset to the cell interface for flat axis-aligned boundaries and stays
    within half a cell of it in general; the result is floored at half a
    cell width, so boundary-adjacent centers measure h/2.  The raster is
    padded with its one-cell boundary ring before the transform.  Idempotent
    (recomputes from the inside flags).
    """
    padded = domain.padded_inside()
    dist = ndimage.distance_transform_edt(padded, sampling=domain.h)
    crop = tuple(slice(1, -1) for _ in range(domain.dim))
    core = dist[crop]
    adjusted = np.maximum(core - 0.5 * domain.h, 0.5 * domain.h)
    domain.distance = np.ascontiguousarray(
        np.where(domain.inside, adjusted, 0.0))
    return domain


def brute_force_distance(domain: GridDomain) -> np.ndarray:
    """O(n^2) all-pairs distance oracle (testing only; includes the ring).

    Scans every outside cell center for every inside cell and applies the
    same interface offset as distance_transform.
    """
    h = domain.h
    padded = domain.padded_inside()
    coords = np.argwhere(~padded) - 1  # ring coords go to -1 / n
    out = np.zeros_like(domain.distance)
    inside_idx = np.argwhere(domain.inside)
    for idx in inside_idx:
        d2 = ((coords - idx) ** 2).sum(axis=1).min()
        out[tuple(idx)] = max(math.sqrt(float(d2)) * h - 0.5 * h, 0.5 * h)
    return out


def coarsen_inside(inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-level coarsening: (value where all 2^N children agree, agreement mask)."""
    dim = inside.ndim
    view = inside
    for ax in range(dim):
        n = view.shape[ax]
        view = view.reshape(view.shape[:ax] + (n // 2, 2) + view.shape[ax + 1 :])
        view = np.moveaxis(view, ax + 1, -1)
    flat = view.reshape(view.shape[:dim] + (-1,))
    agree = flat.all(axis=-1) | (~flat).all(axis=-1)
    value = flat.all(axis=-1)
    return value, agree


# -- built-in corpus geometry ------------------------------------------------


def _cantor_intervals(iterations: int, ratio: float) -> list[tuple[float, float]]:
    intervals = [(0.0, 1.0)]
    for _ in range(iterations):
        nxt = []
        for a, b in intervals:
            w = (b - a) * ratio
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        intervals = nxt
    return intervals


def _koch_polygon(iterations: int) -> np.ndarray:
    """Koch snowflake polygon (CCW) fitted inside the unit box."""
    c = np.array([0.5, 0.54])
    r = 0.30
    angles = [math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3]
    verts = [c + r * np.array([math.cos(a), math.sin(a)]) for a in angles]
    pts = np.array(verts)
    rot = np.array(
        [[math.cos(-math.pi / 3), -math.sin(-math.pi / 3)],
         [math.sin(-math.pi / 3), math.cos(-math.pi / 3)]]
    )
    for _ in range(iterations):
        out = []
        m = len(pts)
        for i in range(m):
            p1 = pts[i]
            p2 = pts[(i + 1) % m]
            d = p2 - p1
            a = p1 + d / 3.0
            b = p1 + 2.0 * d / 3.0
            peak = a + rot @ (b - a)
            out.extend([p1, a, peak, b])
        pts = np.array(out)
    return pts


def _points_in_polygon(xs: np.ndarray, ys: np.ndarray,
                       verts: np.ndarray) -> np.ndarray:
    """Even-odd crossing test on the grid of points (xs[i], ys[j]).

    xs and ys are ascending 1-D coordinates; the result has shape
    (len(xs), len(ys)).  Each row y = ys[j] is crossed by the edges with
    min(y1, y2) <= y < max(y1, y2) (half-open, so horizontal edges never
    cross and a vertex on a row counts once), at

        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1).

    A point lies inside when an odd number of its row's crossings lie
    strictly to its right.  The rows an edge crosses are one searchsorted
    range, and the points left of a crossing are one searchsorted prefix of
    xs, so the cost is O(crossings + cells) with no loop over edges.
    """
    x1, y1 = verts[:, 0], verts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    lo = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    hi = np.searchsorted(ys, np.maximum(y1, y2), side="left")
    count = hi - lo
    edge = np.repeat(np.arange(len(verts)), count)
    row = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) \
        + lo[edge]
    xa, ya = x1[edge], y1[edge]
    xint = xa + (ys[row] - ya) * (x2[edge] - xa) / (y2[edge] - ya)
    # crossing flips the points xs[i] < xint, i.e. i < left
    left = np.searchsorted(xs, xint, side="left")
    nx = len(xs)
    flips = np.bincount(row * (nx + 1) + left,
                        minlength=len(ys) * (nx + 1)).reshape(len(ys), nx + 1)
    # flips strictly right of point i: suffix sum from i + 1
    right = np.cumsum(flips[:, :0:-1], axis=1)[:, ::-1]
    return np.ascontiguousarray((right % 2 == 1).T)


# -- raw grid / function file formats ----------------------------------------


def read_ndgrid(path, expect_dim=None, expect_level=None) -> np.ndarray:
    """Read an NDGRID v1 mask: header "NDGRID v1 <N> <L>" then 0/1 chars."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "NDGRID" or header[1] != "v1":
            raise DomainError(f"{path}: bad NDGRID header")
        ndim, level = int(header[2]), int(header[3])
        if expect_dim is not None and ndim != expect_dim:
            raise DomainError(f"{path}: mask dim {ndim} != spec dim {expect_dim}")
        if expect_level is not None and level != expect_level:
            raise DomainError(f"{path}: mask level {level} != spec level {expect_level}")
        body = fh.read()
    bits = [ch for ch in body if not ch.isspace()]
    n = 2**level
    if len(bits) != n**ndim:
        raise DomainError(f"{path}: expected {n ** ndim} cells, got {len(bits)}")
    if set(bits) - {"0", "1"}:
        raise DomainError(f"{path}: mask may contain only '0'/'1'")
    flat = np.array([ch == "1" for ch in bits], dtype=bool)
    return flat.reshape((n,) * ndim)


def write_ndgrid(path, inside: np.ndarray) -> None:
    level = int(round(math.log2(inside.shape[0])))
    with open(path, "w") as fh:
        fh.write(f"NDGRID v1 {inside.ndim} {level}\n")
        flat = inside.reshape(-1)
        for off in range(0, flat.size, 128):
            fh.write("".join("1" if b else "0" for b in flat[off : off + 128]))
            fh.write("\n")


def read_ndfn(path) -> np.ndarray:
    """Read an NDFN v1 function: header "NDFN v1 <N> <L>" then reals."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "NDFN" or header[1] != "v1":
            raise DomainError(f"{path}: bad NDFN header")
        ndim, level = int(header[2]), int(header[3])
        vals = np.array([float(tok) for tok in fh.read().split()])
    n = 2**level
    if vals.size != n**ndim:
        raise DomainError(f"{path}: expected {n ** ndim} values, got {vals.size}")
    return vals.reshape((n,) * ndim)


def ndfn_text(values: np.ndarray) -> str:
    level = int(round(math.log2(values.shape[0])))
    lines = [f"NDFN v1 {values.ndim} {level}"]
    flat = values.reshape(-1)
    for off in range(0, flat.size, 8):
        lines.append(" ".join(repr(float(v)) for v in flat[off : off + 8]))
    return "\n".join(lines) + "\n"


def write_ndfn(path, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(ndfn_text(values))
