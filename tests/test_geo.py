"""Grid geometry: local projection, polygon membership, tiling, and locate()."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snapgrid.errors import SnapGridError
from snapgrid.geo import (
    METERS_PER_DEG_LAT,
    GeoPoint,
    Region,
    TileIndex,
    build_grid,
    locate,
    locate_points,
    project_local,
    unproject,
)

EQUATOR = GeoPoint(0.0, 0.0)


def point_at(x: float, y: float, origin: GeoPoint) -> GeoPoint:
    """The point ``x`` metres east and ``y`` metres north of ``origin``."""
    return GeoPoint(*unproject(x, y, origin.lat, origin.lon))


def bbox_region(width_m: float, height_m: float, origin: GeoPoint = EQUATOR) -> Region:
    """Bounding box whose projected extent is width_m x height_m."""
    north = origin.lat + height_m / METERS_PER_DEG_LAT
    east = origin.lon + width_m / (METERS_PER_DEG_LAT * math.cos(math.radians(origin.lat)))
    return Region.from_bbox(origin.lat, origin.lon, north, east)


# ---------------------------------------------------------------------------
# projection


def test_project_latitude_step():
    # 0.0089866 deg of latitude is almost exactly one kilometre
    x, y = project_local(GeoPoint(0.0089866, 0.0), EQUATOR)
    assert x == 0.0
    assert y == pytest.approx(1000.39, abs=0.01)


def test_project_longitude_shrinks_with_latitude():
    origin = GeoPoint(60.0, 0.0)
    x, y = project_local(GeoPoint(60.0, 0.01), origin)
    # cos(60 deg) halves the metres per degree of longitude
    assert x == pytest.approx(556.6, abs=1e-6)
    assert y == pytest.approx(0.0, abs=1e-9)


def test_project_unproject_round_trip():
    origin = GeoPoint(40.0, -74.0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = GeoPoint(40.0 + rng.uniform(0, 0.1), -74.0 + rng.uniform(0, 0.1))
        x, y = project_local(p, origin)
        back = point_at(x, y, origin)
        assert back.lat == pytest.approx(p.lat, abs=1e-12)
        assert back.lon == pytest.approx(p.lon, abs=1e-12)


def test_geopoint_validates_ranges():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)


@pytest.mark.parametrize("lat, lon", [("1", 1.0), (1.0, "1"), (True, 1.0), (1.0, False), (np.bool_(True), 1.0),
                                      (None, 1.0), (b"1", 1.0)])
def test_geopoint_rejects_what_is_not_a_real_number(lat, lon):
    with pytest.raises(ValueError, match="real numbers"):
        GeoPoint(lat, lon)


def test_geopoint_takes_python_and_numpy_real_scalars():
    assert GeoPoint(np.float32(1.5), np.int64(2)) == GeoPoint(1.5, 2.0)
    assert GeoPoint(1, 2) == GeoPoint(1.0, 2.0)
    assert type(GeoPoint(np.float64(1.5), 2).lat) is float


def test_bbox_constructor_rejects_strings_and_booleans():
    with pytest.raises(ValueError, match="real numbers"):
        Region.from_bbox("0", "0", "0.01", "0.01")
    with pytest.raises(ValueError, match="real numbers"):
        Region.from_bbox("10", 0.0, "9", 0.01)  # as text, "10" < "9"
    with pytest.raises(ValueError, match="real numbers"):
        Region.from_bbox(0.0, False, 0.01, True)
    assert Region.from_bbox(np.float32(0.5), 0, 1, np.int64(1)).bbox == (0.5, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# polygon membership (even-odd rule, boundary counts as inside)

UNIT_SQUARE = (
    GeoPoint(0.0, 0.0),
    GeoPoint(0.0, 1.0),
    GeoPoint(1.0, 1.0),
    GeoPoint(1.0, 0.0),
)


def test_point_in_polygon_interior_and_exterior():
    square = Region.from_polygon(UNIT_SQUARE)
    assert square.contains(GeoPoint(0.5, 0.5))
    assert not square.contains(GeoPoint(1.5, 0.5))
    assert not square.contains(GeoPoint(-0.1, 0.5))


def test_point_in_polygon_boundary_is_inside():
    square = Region.from_polygon(UNIT_SQUARE)
    assert square.contains(GeoPoint(0.0, 0.5))  # edge
    assert square.contains(GeoPoint(1.0, 1.0))  # vertex
    assert square.contains(GeoPoint(0.5, 0.0))  # vertical edge


def test_point_in_polygon_concave():
    # L-shape: the notch at the top right is outside
    ell = Region.from_polygon((
        GeoPoint(0.0, 0.0),
        GeoPoint(0.0, 2.0),
        GeoPoint(1.0, 2.0),
        GeoPoint(1.0, 1.0),
        GeoPoint(2.0, 1.0),
        GeoPoint(2.0, 0.0),
    ))
    assert ell.contains(GeoPoint(0.5, 1.5))
    assert not ell.contains(GeoPoint(1.5, 1.5))
    assert ell.contains(GeoPoint(1.5, 0.5))


def test_self_intersecting_ring_rejected():
    bowtie = (
        GeoPoint(0.0, 0.0),
        GeoPoint(1.0, 1.0),
        GeoPoint(1.0, 0.0),
        GeoPoint(0.0, 1.0),
    )
    with pytest.raises(SnapGridError, match=r"^polygon ring self-intersects \(edges \d+ and \d+\)$"):
        Region.from_polygon(bowtie)


# ---------------------------------------------------------------------------
# tiling


def test_build_grid_exact_multiple():
    grid = build_grid(bbox_region(2000.0, 2000.0), tile_size_m=1000.0)
    assert (grid.n_rows, grid.n_cols) == (2, 2)
    assert grid.n_active == 4  # bbox regions activate everything


def test_build_grid_partial_tile_rounds_up():
    grid = build_grid(bbox_region(1000.0, 2500.0), tile_size_m=1000.0)
    assert (grid.n_rows, grid.n_cols) == (3, 1)


def test_build_grid_degenerate_region():
    region = Region(bbox=(0.0, 0.0, 0.0, 1.0))  # zero height, bypassing from_bbox
    with pytest.raises(SnapGridError, match=r"^region has degenerate extent \S+ x 0\.0 m$"):
        build_grid(region)


def test_bbox_constructor_rejects_inverted_bounds():
    with pytest.raises(SnapGridError, match=r"^bbox needs south < north, got 1\.0 / 0\.0$"):
        Region.from_bbox(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(SnapGridError, match=r"^bbox needs west < east, got 1\.0 / 1\.0$"):
        Region.from_bbox(0.0, 1.0, 1.0, 1.0)


def triangle_region() -> Region:
    """Right triangle with 2.5 km legs; no tile center falls on the hypotenuse."""
    d = 2500.0 / METERS_PER_DEG_LAT
    ring = (GeoPoint(0.0, 0.0), GeoPoint(0.0, d), GeoPoint(d, 0.0))
    return Region.from_polygon(ring)


def test_triangle_active_mask():
    grid = build_grid(triangle_region(), tile_size_m=1000.0)
    assert (grid.n_rows, grid.n_cols) == (3, 3)
    expected = np.array(
        [
            [True, True, False],
            [True, False, False],
            [False, False, False],
        ]
    )
    assert (grid.active == expected).all()
    assert grid.n_active == 3
    assert np.argwhere(grid.active).tolist() == [[0, 0], [0, 1], [1, 0]]


def crossing_number_oracle(lon: float, lat: float, ring) -> bool:
    """Independent even-odd ray cast with boundary included, for cross-checks."""
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        cross = (b.lon - a.lon) * (lat - a.lat) - (b.lat - a.lat) * (lon - a.lon)
        if cross == 0.0:
            if min(a.lon, b.lon) <= lon <= max(a.lon, b.lon) and min(a.lat, b.lat) <= lat <= max(a.lat, b.lat):
                return True
    inside = False
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if (a.lat > lat) != (b.lat > lat):
            x_cross = a.lon + (lat - a.lat) * (b.lon - a.lon) / (b.lat - a.lat)
            if lon < x_cross:
                inside = not inside
    return inside


def test_polygon_mask_matches_independent_ray_cast():
    region = triangle_region()
    grid = build_grid(region, tile_size_m=1000.0)
    for row in range(grid.n_rows):
        for col in range(grid.n_cols):
            center = grid.tile_center(TileIndex(row, col))
            expect = crossing_number_oracle(center.lon, center.lat, region.polygon)
            assert grid.active[row, col] == expect, (row, col)


# ---------------------------------------------------------------------------
# locate


def test_locate_examples():
    grid = build_grid(bbox_region(2000.0, 2000.0), tile_size_m=1000.0)
    p = point_at(1500.0, 500.0, grid.origin)
    assert locate(p, grid) == TileIndex(0, 1)
    # origin corner belongs to tile (0, 0)
    assert locate(grid.origin, grid) == TileIndex(0, 0)


def test_locate_tile_edge_goes_to_higher_index():
    grid = build_grid(bbox_region(2000.0, 2000.0), tile_size_m=1000.0)
    p = point_at(1000.0, 0.0, grid.origin)
    assert locate(p, grid) == TileIndex(0, 1)
    p = point_at(0.0, 1000.0, grid.origin)
    assert locate(p, grid) == TileIndex(1, 0)


def test_locate_outside_grid_is_none():
    grid = build_grid(bbox_region(2000.0, 2000.0), tile_size_m=1000.0)
    assert locate(GeoPoint(-0.001, 0.001), grid) is None
    assert locate(GeoPoint(0.001, -0.001), grid) is None
    # the far north/east edges fall past the last row/column
    assert locate(point_at(2000.0, 500.0, grid.origin), grid) is None
    assert locate(point_at(500.0, 2000.0, grid.origin), grid) is None


def test_locate_inactive_tile_is_none():
    grid = build_grid(triangle_region(), tile_size_m=1000.0)
    dead = grid.tile_center(TileIndex(2, 2))
    assert not grid.active[2, 2]
    assert locate(dead, grid) is None
    alive = grid.tile_center(TileIndex(0, 0))
    assert locate(alive, grid) == TileIndex(0, 0)


def brute_force_locate(p: GeoPoint, grid):
    """Scan every tile's half-open projected bounds; None when no tile matches."""
    x, y = project_local(p, grid.origin)
    s = grid.tile_size_m
    hits = []
    for row in range(grid.n_rows):
        for col in range(grid.n_cols):
            if col * s <= x < (col + 1) * s and row * s <= y < (row + 1) * s:
                hits.append(TileIndex(row, col))
    assert len(hits) <= 1
    if not hits or not grid.active[hits[0].row, hits[0].col]:
        return None
    return hits[0]


def test_locate_matches_brute_force_scan():
    grid = build_grid(triangle_region(), tile_size_m=1000.0)
    rng = np.random.default_rng(11)
    d = 2500.0 / METERS_PER_DEG_LAT
    for _ in range(2000):
        p = GeoPoint(rng.uniform(-0.2 * d, 1.2 * d), rng.uniform(-0.2 * d, 1.2 * d))
        assert locate(p, grid) == brute_force_locate(p, grid)


def test_locate_round_trips_tile_centers():
    grid = build_grid(bbox_region(5000.0, 3000.0, origin=GeoPoint(40.7, -74.0)), 1000.0)
    for row, col in np.argwhere(grid.active).tolist():
        assert locate(grid.tile_center(TileIndex(row, col)), grid) == TileIndex(row, col)


def test_grid_csv_export(tmp_path):
    grid = build_grid(bbox_region(2000.0, 1000.0), tile_size_m=1000.0)
    path = tmp_path / "grid.csv"
    grid.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "row,col,center_lat,center_lon,active"
    assert len(lines) == 1 + grid.n_rows * grid.n_cols
    assert lines[1].endswith("true")


# Points around a 3 x 3 grid: whole and half tiles (exact tile edges and centers), their
# floating-point neighbours, and arbitrary offsets, from two tiles south-west of the
# origin (negative projected coordinates) to past the far edges.
_EDGE_M = st.integers(-2, 8).map(lambda k: 500.0 * k)
_NEAR_EDGE_M = _EDGE_M.flatmap(lambda v: st.sampled_from([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]))
_OFFSET_M = st.one_of(_NEAR_EDGE_M, st.floats(-2000.0, 4000.0))


@given(st.lists(st.tuples(_OFFSET_M, _OFFSET_M), max_size=50),
       st.sampled_from(["bbox", "triangle", "north"]))
def test_locate_points_is_locate(offsets, region):
    # locate_points, which locate calls for one point, against a scan of every tile's bounds;
    # the triangle's inactive tiles locate nowhere; "north" has a cosine well below 1
    grid = build_grid({"bbox": bbox_region(3000.0, 3000.0), "triangle": triangle_region(),
                       "north": bbox_region(3000.0, 3000.0, origin=GeoPoint(59.9, 10.7))}[region], 1000.0)
    points = [point_at(x, y, grid.origin) for x, y in offsets]
    points += [GeoPoint(grid.origin.lat, grid.origin.lon + d) for d in (0.0, 1e-9, -1e-9)]  # on the origin's row
    tiles = locate_points(np.array([p.lat for p in points]), np.array([p.lon for p in points]), grid)
    want = [brute_force_locate(p, grid) for p in points]
    assert [None if t < 0 else TileIndex(t // grid.n_cols, t % grid.n_cols) for t in tiles.tolist()] == want


def test_locate_points_on_exact_tile_edges():
    # at the equator whole kilometres project back exactly: every tile corner, the far edges included
    grid = build_grid(bbox_region(3000.0, 3000.0), 1000.0)
    corners = [(1000.0 * i, 1000.0 * j) for i in range(4) for j in range(4)]
    points = [point_at(x, y, grid.origin) for x, y in corners]
    assert [project_local(p, grid.origin) for p in points] == corners
    tiles = locate_points(np.array([p.lat for p in points]), np.array([p.lon for p in points]), grid)
    assert tiles.tolist() == [-1 if 3 in (i, j) else 3 * j + i for i in range(4) for j in range(4)]
    assert [locate(p, grid) for p in points] == [None if t < 0 else TileIndex(t // 3, t % 3) for t in tiles]


def test_locate_points_of_nothing():
    grid = build_grid(bbox_region(2000.0, 2000.0), 1000.0)
    assert locate_points(np.array([]), np.array([]), grid).tolist() == []
