"""Metric tile grids over city regions.

A city region (bounding box or polygon ring) is partitioned into square
tiles of a fixed metric size, ``TILE_SIZE_M`` (1000 m). All geometry runs on a
local equirectangular projection anchored at the southwest corner of the
region's bounding box: one degree of latitude is treated as 111,320 m
and one degree of longitude as 111,320 m scaled by the cosine of the
anchor latitude. At city scale the projection error is negligible, and
the mapping is invertible, which keeps tile centers exact.

Tiles are half-open in both axes: a point whose projected coordinate
falls exactly on a shared tile edge belongs to the tile on the
higher-index side (floor convention). Points on a polygon boundary count
as inside. Polygon membership of a tile is decided by its center, not by
area overlap.

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

from .errors import InvalidPolygonError, InvalidRegionError

METERS_PER_DEG_LAT = 111_320.0
# the tile edge of every grid the pipeline builds
TILE_SIZE_M = 1000.0

# Tolerance (in tiles) when counting rows/columns, so a region constructed
# to span an exact number of tiles does not gain a spurious extra row from
# floating-point noise in the projection round trip.
_CEIL_EPS = 1e-9


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (self.lat, self.lon)):
            raise ValueError(f"coordinates must be real numbers, got ({self.lat!r}, {self.lon!r})")
        # normalize numpy scalars so serialized output stays plain decimal text
        object.__setattr__(self, "lat", float(self.lat))
        object.__setattr__(self, "lon", float(self.lon))
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"coordinates must be finite, got ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class TileIndex:
    """Zero-based (row, col) address of one grid tile."""

    row: int
    col: int


def project_local(p: GeoPoint, origin: GeoPoint) -> tuple[float, float]:
    """Project ``p`` to local metric coordinates relative to ``origin``.

    Equirectangular: x grows east, y grows north, both in meters.
    """
    y = (p.lat - origin.lat) * METERS_PER_DEG_LAT
    x = (p.lon - origin.lon) * METERS_PER_DEG_LAT * math.cos(math.radians(origin.lat))
    return x, y


def unproject_local(x: float, y: float, origin: GeoPoint) -> GeoPoint:
    """Inverse of :func:`project_local`."""
    lat = origin.lat + y / METERS_PER_DEG_LAT
    lon = origin.lon + x / (METERS_PER_DEG_LAT * math.cos(math.radians(origin.lat)))
    return GeoPoint(lat, lon)


def _normalize_ring(ring: Sequence[GeoPoint]) -> tuple[GeoPoint, ...]:
    """Drop a closing duplicate vertex and check the ring is usable."""
    pts = list(ring)
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    distinct = {(p.lat, p.lon) for p in pts}
    if len(pts) < 3 or len(distinct) < 3:
        raise InvalidPolygonError(f"polygon ring needs >=3 distinct vertices, got {len(distinct)}")
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


def _check_simple(vertices: tuple[GeoPoint, ...]) -> None:
    """Reject self-intersecting rings. Adjacent edges share a vertex and are skipped."""
    n = len(vertices)
    edges = [((vertices[i].lon, vertices[i].lat), (vertices[(i + 1) % n].lon, vertices[(i + 1) % n].lat)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_cross(edges[i][0], edges[i][1], edges[j][0], edges[j][1]):
                raise InvalidPolygonError(f"polygon ring self-intersects (edges {i} and {j})")


def _point_on_ring(px: float, py: float, vertices: tuple[GeoPoint, ...]) -> bool:
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i].lon, vertices[i].lat
        bx, by = vertices[(i + 1) % n].lon, vertices[(i + 1) % n].lat
        cross = _orient(ax, ay, bx, by, px, py)
        scale = max(abs(ax - bx), abs(ay - by), 1e-12)
        if abs(cross) <= 1e-12 * scale:
            if min(ax, bx) - 1e-12 <= px <= max(ax, bx) + 1e-12 and min(ay, by) - 1e-12 <= py <= max(ay, by) + 1e-12:
                return True
    return False


def _point_in_ring(px: float, py: float, vertices: tuple[GeoPoint, ...]) -> bool:
    """Even-odd ray cast; boundary points count as inside."""
    if _point_on_ring(px, py, vertices):
        return True
    inside = False
    n = len(vertices)
    j = n - 1
    for i in range(n):
        xi, yi = vertices[i].lon, vertices[i].lat
        xj, yj = vertices[j].lon, vertices[j].lat
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
    polygon: Optional[tuple[GeoPoint, ...]] = None

    @classmethod
    def from_bbox(cls, south: float, west: float, north: float, east: float) -> "Region":
        # the corners first, so that strings are rejected rather than compared as text
        sw, ne = GeoPoint(south, west), GeoPoint(north, east)
        if not sw.lat < ne.lat:
            raise InvalidRegionError(f"bbox needs south < north, got {south} / {north}")
        if not sw.lon < ne.lon:
            raise InvalidRegionError(f"bbox needs west < east, got {west} / {east}")
        return cls(bbox=(sw.lat, sw.lon, ne.lat, ne.lon))

    @classmethod
    def from_polygon(cls, ring: Sequence[GeoPoint]) -> "Region":
        vertices = _normalize_ring(ring)
        _check_simple(vertices)
        lats = [p.lat for p in vertices]
        lons = [p.lon for p in vertices]
        bbox = (min(lats), min(lons), max(lats), max(lons))
        if not (bbox[0] < bbox[2] and bbox[1] < bbox[3]):
            raise InvalidRegionError("polygon bounding box is degenerate")
        return cls(bbox=bbox, polygon=vertices)

    def contains(self, p: GeoPoint) -> bool:
        """Membership test; bbox edges and polygon boundaries count as inside."""
        south, west, north, east = self.bbox
        if not (south <= p.lat <= north and west <= p.lon <= east):
            return False
        if self.polygon is None:
            return True
        return _point_in_ring(p.lon, p.lat, self.polygon)


@dataclass(frozen=True, eq=False)
class TileGrid:
    """A fixed-size metric tile partition of one region.

    ``origin`` is the southwest corner of the region's bounding box.
    ``active`` marks tiles whose center lies inside the region; for bbox
    regions every tile is active.
    """

    origin: GeoPoint
    tile_size_m: float
    n_rows: int
    n_cols: int
    active: np.ndarray = field(repr=False)  # bool, shape (n_rows, n_cols)
    region: Region = field(repr=False)

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def tile_center(self, idx: TileIndex) -> GeoPoint:
        x = (idx.col + 0.5) * self.tile_size_m
        y = (idx.row + 0.5) * self.tile_size_m
        return unproject_local(x, y, self.origin)

    def active_tiles(self) -> list[TileIndex]:
        """Active tile indices in row-major order."""
        rows, cols = np.nonzero(self.active)
        return [TileIndex(int(r), int(c)) for r, c in zip(rows, cols)]

    def write_csv(self, path) -> None:
        """Export the grid: one row per tile with center coordinates."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "center_lat", "center_lon", "active"])
            for row in range(self.n_rows):
                for col in range(self.n_cols):
                    center = self.tile_center(TileIndex(row, col))
                    writer.writerow([
                        row,
                        col,
                        repr(center.lat),
                        repr(center.lon),
                        "true" if self.active[row, col] else "false",
                    ])


def build_grid(region: Region, tile_size_m: float = TILE_SIZE_M) -> TileGrid:
    """Tile the region's bounding box with square tiles of ``tile_size_m``.

    Column and row counts are ceilings of the projected bbox extent over
    the tile size, so the grid always covers the bbox. A tile is active
    when its center lies inside the region.
    """
    if tile_size_m <= 0:
        raise ValueError(f"tile_size_m must be positive, got {tile_size_m}")
    south, west, north, east = region.bbox
    origin = GeoPoint(south, west)
    width_m, height_m = project_local(GeoPoint(north, east), origin)
    if width_m <= 0 or height_m <= 0:
        raise InvalidRegionError(f"region has degenerate extent {width_m} x {height_m} m")
    n_cols = int(math.ceil(width_m / tile_size_m - _CEIL_EPS))
    n_rows = int(math.ceil(height_m / tile_size_m - _CEIL_EPS))

    if region.polygon is None:
        active = np.ones((n_rows, n_cols), dtype=bool)
    else:
        active = np.zeros((n_rows, n_cols), dtype=bool)
        for row in range(n_rows):
            for col in range(n_cols):
                center = unproject_local((col + 0.5) * tile_size_m, (row + 0.5) * tile_size_m, origin)
                active[row, col] = _point_in_ring(center.lon, center.lat, region.polygon)
    return TileGrid(
        origin=origin,
        tile_size_m=float(tile_size_m),
        n_rows=n_rows,
        n_cols=n_cols,
        active=active,
        region=region,
    )


def locate(p: GeoPoint, grid: TileGrid) -> Optional[TileIndex]:
    """Map a point to its tile, or None when outside the grid or on an inactive tile.

    Floor convention: a projected coordinate exactly on a tile edge
    belongs to the higher-index tile.
    """
    x, y = project_local(p, grid.origin)
    if x < 0 or y < 0:
        return None
    col = int(math.floor(x / grid.tile_size_m))
    row = int(math.floor(y / grid.tile_size_m))
    if row >= grid.n_rows or col >= grid.n_cols:
        return None
    if not grid.active[row, col]:
        return None
    return TileIndex(row, col)


def locate_points(lat: np.ndarray, lon: np.ndarray, grid: TileGrid) -> np.ndarray:
    """:func:`locate` over arrays: each point's tile ``row * n_cols + col``, or -1 where locate gives None.

    The projection repeats :func:`project_local`'s operations in order, the
    cosine a Python float, so each point lands bit for bit where locate puts it.
    """
    y = (np.asarray(lat, dtype=float) - grid.origin.lat) * METERS_PER_DEG_LAT
    x = (np.asarray(lon, dtype=float) - grid.origin.lon) * METERS_PER_DEG_LAT * math.cos(math.radians(grid.origin.lat))
    col, row = np.floor(x / grid.tile_size_m), np.floor(y / grid.tile_size_m)
    inside = (x >= 0) & (y >= 0) & (col < grid.n_cols) & (row < grid.n_rows)  # NaN is outside too
    tile = np.where(inside, row * grid.n_cols + col, 0).astype(np.int64)
    return np.where(inside & grid.active.ravel()[tile], tile, -1)
