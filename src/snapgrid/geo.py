"""Metric tile grids over city regions.

A city region (bounding box or polygon ring) is partitioned into square
tiles of a fixed metric size, ``TILE_SIZE_M`` (1000 m). All geometry runs on a
local equirectangular projection anchored at the southwest corner of the
region's bounding box: one degree of latitude is treated as 111,320 m
and one degree of longitude as 111,320 m scaled by the cosine of the
anchor latitude. At city scale the projection error is negligible, and
the mapping is invertible, which keeps tile centers exact. It is written
once, :func:`project` and :func:`unproject`, for floats and arrays alike.

Tiles are numbered ``row * n_cols + col``, row-major, and are half-open in
both axes: a point whose projected coordinate falls exactly on a shared
tile edge belongs to the tile on the higher-index side (floor convention);
:func:`locate_points` is that rule, and :func:`locate` is it for one point.
Points on a polygon boundary count as inside. Polygon membership of a tile
is decided by its center, not by area overlap. A grid whose last tile's
centre would lie past a pole or the antimeridian is refused.

The grid is anchored to the region itself rather than to any web-map
tiling scheme; zoom-level tile conventions from map servers do not
apply here.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import SnapGridError

METERS_PER_DEG_LAT = 111_320.0
# the tile edge of every grid the pipeline builds
TILE_SIZE_M = 1000.0

# Tolerance (in tiles) when counting rows/columns, so a region constructed
# to span an exact number of tiles does not gain a spurious extra row from
# floating-point noise in the projection round trip.
_CEIL_EPS = 1e-9


def check_point(lat, lon) -> tuple[float, float]:
    """``(lat, lon)`` as floats; ValueError unless both are real numbers, finite and in range."""
    for v in (lat, lon):  # the exact types first: the ABC test is slow
        if not (type(v) is float or type(v) is int or isinstance(v, numbers.Real) and not isinstance(v, bool)):
            raise ValueError(f"coordinates must be real numbers, got ({lat!r}, {lon!r})")
    lat, lon = float(lat), float(lon)
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError(f"coordinates must be finite, got ({lat}, {lon})")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} outside [-180, 180]")
    return lat, lon


def project(lat, lon, origin_lat, origin_lon):
    """``(x, y)``, the metres east and north of the origin, of ``(lat, lon)``: floats or arrays alike.

    Operators only, so that both take the same operations in the same order and agree to the bit.
    """
    x = (lon - origin_lon) * METERS_PER_DEG_LAT * math.cos(math.radians(origin_lat))
    return x, (lat - origin_lat) * METERS_PER_DEG_LAT


def unproject(x, y, origin_lat, origin_lon):
    """Inverse of :func:`project`: the ``(lat, lon)`` ``x`` metres east and ``y`` metres north of the origin."""
    return origin_lat + y / METERS_PER_DEG_LAT, origin_lon + x / (METERS_PER_DEG_LAT * math.cos(math.radians(origin_lat)))


def _normalize_ring(ring: Sequence[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """The ``(lat, lon)`` vertices, each checked, without a closing duplicate; SnapGridError unless 3 are distinct."""
    pts = [check_point(lat, lon) for lat, lon in ring]
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    distinct = set(pts)
    if len(pts) < 3 or len(distinct) < 3:
        raise SnapGridError(f"polygon ring needs >=3 distinct vertices, got {len(distinct)}")
    return tuple(pts)


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_cross(p1, p2, p3, p4) -> bool:
    """Proper or improper intersection of segments p1p2 and p3p4 (no shared endpoints)."""
    d1 = _orient(p3[0], p3[1], p4[0], p4[1], p1[0], p1[1])
    d2 = _orient(p3[0], p3[1], p4[0], p4[1], p2[0], p2[1])
    d3 = _orient(p1[0], p1[1], p2[0], p2[1], p3[0], p3[1])
    d4 = _orient(p1[0], p1[1], p2[0], p2[1], p4[0], p4[1])
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True

    def on_segment(a, b, c):
        return (
            _orient(a[0], a[1], b[0], b[1], c[0], c[1]) == 0
            and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    return (
        on_segment(p1, p2, p3)
        or on_segment(p1, p2, p4)
        or on_segment(p3, p4, p1)
        or on_segment(p3, p4, p2)
    )


def _check_simple(vertices: tuple[tuple[float, float], ...]) -> None:
    """Reject self-intersecting rings. Adjacent edges share a vertex and are skipped."""
    n = len(vertices)
    edges = [(vertices[i][::-1], vertices[(i + 1) % n][::-1]) for i in range(n)]  # (lon, lat) ends
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_cross(edges[i][0], edges[i][1], edges[j][0], edges[j][1]):
                raise SnapGridError(f"polygon ring self-intersects (edges {i} and {j})")


def _point_on_ring(px: float, py: float, vertices: tuple[tuple[float, float], ...]) -> bool:
    n = len(vertices)
    for i in range(n):
        (ay, ax), (by, bx) = vertices[i], vertices[(i + 1) % n]
        cross = _orient(ax, ay, bx, by, px, py)
        scale = max(abs(ax - bx), abs(ay - by), 1e-12)
        if abs(cross) <= 1e-12 * scale:
            if min(ax, bx) - 1e-12 <= px <= max(ax, bx) + 1e-12 and min(ay, by) - 1e-12 <= py <= max(ay, by) + 1e-12:
                return True
    return False


def _point_in_ring(px: float, py: float, vertices: tuple[tuple[float, float], ...]) -> bool:
    """Even-odd ray cast; boundary points count as inside."""
    if _point_on_ring(px, py, vertices):
        return True
    inside = False
    n = len(vertices)
    j = n - 1
    for i in range(n):
        (yi, xi), (yj, xj) = vertices[i], vertices[j]
        if (yi > py) != (yj > py):
            x_cross = xj + (py - yj) * (xi - xj) / (yi - yj)
            if px < x_cross:
                inside = not inside
        j = i
    return inside


@dataclass(frozen=True)
class Region:
    """City geometry: a lat/lon bounding box or a simple polygon ring.

    ``bbox`` is (south, west, north, east) in degrees and is always set;
    for polygon regions it is the ring's bounding box.
    """

    bbox: tuple[float, float, float, float]
    polygon: Optional[tuple[tuple[float, float], ...]] = None  # (lat, lon) vertices

    @classmethod
    def from_bbox(cls, south: float, west: float, north: float, east: float) -> "Region":
        # the corners first, so that strings are rejected rather than compared as text
        (s, w), (n, e) = check_point(south, west), check_point(north, east)
        if not s < n:
            raise SnapGridError(f"bbox needs south < north, got {south} / {north}")
        if not w < e:
            raise SnapGridError(f"bbox needs west < east, got {west} / {east}")
        return cls(bbox=(s, w, n, e))

    @classmethod
    def from_polygon(cls, ring: Sequence[tuple[float, float]]) -> "Region":
        """The region inside a simple ring of ``(lat, lon)`` vertices; ValueError for a bad vertex."""
        vertices = _normalize_ring(ring)
        _check_simple(vertices)
        lats, lons = zip(*vertices)
        bbox = (min(lats), min(lons), max(lats), max(lons))
        if not (bbox[0] < bbox[2] and bbox[1] < bbox[3]):
            raise SnapGridError("polygon bounding box is degenerate")
        return cls(bbox=bbox, polygon=vertices)


@dataclass(frozen=True, eq=False)
class TileGrid:
    """A fixed-size metric tile partition of one region.

    ``(origin_lat, origin_lon)`` is the southwest corner of the region's bounding box.
    ``active`` marks tiles whose center lies inside the region; for bbox
    regions every tile is active, and it is a read-only view of one ``True``.
    """

    origin_lat: float
    origin_lon: float
    tile_size_m: float
    n_rows: int
    n_cols: int
    active: np.ndarray = field(repr=False)  # bool, shape (n_rows, n_cols)

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def centers(self, tiles=None) -> tuple[np.ndarray, np.ndarray]:
        """The ``(lat, lon)`` centres of tiles ``tiles``, numbered as :func:`locate_points` numbers them; all by default."""
        row, col = np.divmod(np.arange(self.n_rows * self.n_cols) if tiles is None else tiles, self.n_cols)
        x, y = (col + 0.5) * self.tile_size_m, (row + 0.5) * self.tile_size_m
        return unproject(x, y, self.origin_lat, self.origin_lon)

    def write_csv(self, path) -> None:
        """Export the grid: one row per tile with center coordinates."""
        lat, lon = self.centers()
        row, col = np.divmod(np.arange(lat.size), self.n_cols)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "center_lat", "center_lon", "active"])
            writer.writerows(zip(row.tolist(), col.tolist(), map(repr, lat.tolist()), map(repr, lon.tolist()),
                                 np.where(self.active.ravel(), "true", "false").tolist()))


def build_grid(region: Region, tile_size_m: float = TILE_SIZE_M) -> TileGrid:
    """Tile the region's bounding box with square tiles of ``tile_size_m``.

    Column and row counts are ceilings of the projected bbox extent over
    the tile size, so the grid always covers the bbox. A tile is active
    when its center lies inside the region.
    """
    if tile_size_m <= 0:
        raise ValueError(f"tile_size_m must be positive, got {tile_size_m}")
    south, west, north, east = region.bbox
    width_m, height_m = project(north, east, south, west)
    n_cols = int(math.ceil(width_m / tile_size_m - _CEIL_EPS))
    n_rows = int(math.ceil(height_m / tile_size_m - _CEIL_EPS))
    if n_cols < 1 or n_rows < 1:
        raise SnapGridError(f"region has degenerate extent {width_m} x {height_m} m")

    shape = (n_rows, n_cols)  # a bbox grid allocates no mask, whatever its size
    active = np.broadcast_to(True, shape) if region.polygon is None else np.empty(shape, dtype=bool)
    grid = TileGrid(south, west, float(tile_size_m), n_rows, n_cols, active=active)
    try:
        check_point(*grid.centers(n_rows * n_cols - 1))
    except ValueError as exc:
        raise SnapGridError(f"the last tile's centre lies past a pole or the antimeridian: {exc}")
    if region.polygon is not None:
        lat, lon = grid.centers()
        grid.active.flat[:] = [_point_in_ring(x, y, region.polygon) for x, y in zip(lon.tolist(), lat.tolist())]
    return grid


def locate(lat: float, lon: float, grid: TileGrid) -> int:
    """:func:`locate_points` for one point: its tile, or -1 outside the grid or on an inactive tile."""
    return int(locate_points(np.float64(lat), np.float64(lon), grid))  # numpy scalars: no array per call


def locate_points(lat: np.ndarray, lon: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Each point's tile ``row * n_cols + col``, or -1 outside the grid or on an inactive tile.

    ``lat`` and ``lon`` are float64 arrays, or numpy scalars for one point.
    Floor convention: a projected coordinate exactly on a tile edge belongs
    to the higher-index tile.
    """
    x, y = project(lat, lon, grid.origin_lat, grid.origin_lon)
    col, row = np.floor(x / grid.tile_size_m), np.floor(y / grid.tile_size_m)
    inside = (x >= 0) & (y >= 0) & (col < grid.n_cols) & (row < grid.n_rows)  # NaN is outside too
    row, col = np.where(inside, row, 0).astype(np.int64), np.where(inside, col, 0).astype(np.int64)
    return np.where(inside & grid.active[row, col], row * grid.n_cols + col, -1)  # ravel would copy a broadcast mask
