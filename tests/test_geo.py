"""Grid geometry: local projection, coordinate checks, polygon masks, tiling, and locate_points()."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snapgrid import geo
from snapgrid.errors import SnapGridError
from snapgrid.geo import (
    METERS_PER_DEG_LAT,
    Region,
    build_grid,
    check_point,
    locate,
    locate_points,
    project,
    unproject,
)

EQUATOR = (0.0, 0.0)


def point_at(x: float, y: float, origin: tuple[float, float]) -> tuple[float, float]:
    """The ``(lat, lon)`` ``x`` metres east and ``y`` metres north of ``origin``, a ``(lat, lon)``."""
    return unproject(x, y, *origin)


def origin_of(grid) -> tuple[float, float]:
    return grid.origin_lat, grid.origin_lon


def tile_at(lat: float, lon: float, grid) -> int:
    """:func:`locate_points` of one point: ``row * n_cols + col``, or -1."""
    return int(locate_points(np.array([lat]), np.array([lon]), grid)[0])


def bbox_region(width_m: float, height_m: float, origin: tuple[float, float] = EQUATOR) -> Region:
    """Bounding box whose projected extent is width_m x height_m."""
    lat, lon = origin
    north = lat + height_m / METERS_PER_DEG_LAT
    east = lon + width_m / (METERS_PER_DEG_LAT * math.cos(math.radians(lat)))
    return Region.from_bbox(lat, lon, north, east)


# ---------------------------------------------------------------------------
# projection


def test_project_latitude_step():
    # 0.0089866 deg of latitude is almost exactly one kilometre
    x, y = project(0.0089866, 0.0, *EQUATOR)
    assert x == 0.0
    assert y == pytest.approx(1000.39, abs=0.01)


def test_project_longitude_shrinks_with_latitude():
    x, y = project(60.0, 0.01, 60.0, 0.0)
    # cos(60 deg) halves the metres per degree of longitude
    assert x == pytest.approx(556.6, abs=1e-6)
    assert y == pytest.approx(0.0, abs=1e-9)


def test_project_unproject_round_trip():
    origin = (40.0, -74.0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        lat, lon = 40.0 + rng.uniform(0, 0.1), -74.0 + rng.uniform(0, 0.1)
        x, y = project(lat, lon, *origin)
        back_lat, back_lon = point_at(x, y, origin)
        assert back_lat == pytest.approx(lat, abs=1e-12)
        assert back_lon == pytest.approx(lon, abs=1e-12)


# a polygon vertex is checked as a point, with the same message
def _as_vertex(lat, lon):
    return Region.from_polygon([(lat, lon), (0.0, 1.0), (1.0, 1.0)])


def test_geopoint_validates_ranges():
    for lat, lon, message in ((91.0, 0.0, r"latitude 91\.0 outside"), (0.0, 181.0, r"longitude 181\.0 outside"),
                              (float("nan"), 0.0, "must be finite")):
        for check in (check_point, _as_vertex):
            with pytest.raises(ValueError, match=message):
                check(lat, lon)


@pytest.mark.parametrize("lat, lon", [("1", 1.0), (1.0, "1"), (True, 1.0), (1.0, False), (np.bool_(True), 1.0),
                                      (None, 1.0), (b"1", 1.0)])
def test_geopoint_rejects_what_is_not_a_real_number(lat, lon):
    for check in (check_point, _as_vertex):
        with pytest.raises(ValueError, match="real numbers"):
            check(lat, lon)


def test_geopoint_takes_python_and_numpy_real_scalars():
    assert check_point(np.float32(1.5), np.int64(2)) == (1.5, 2.0)
    assert check_point(1, 2) == (1.0, 2.0)
    assert type(check_point(np.float64(1.5), 2)[0]) is float
    # polygon vertices are kept as plain floats
    square = Region.from_polygon([(np.float64(0.0), 0), (0, np.float32(1.0)), (1, 1), (np.int64(1), 0.0)])
    assert {type(v) for vertex in square.polygon for v in vertex} == {float}


def test_bbox_constructor_rejects_strings_and_booleans():
    with pytest.raises(ValueError, match="real numbers"):
        Region.from_bbox("0", "0", "0.01", "0.01")
    with pytest.raises(ValueError, match="real numbers"):
        Region.from_bbox("10", 0.0, "9", 0.01)  # as text, "10" < "9"
    with pytest.raises(ValueError, match="real numbers"):
        Region.from_bbox(0.0, False, 0.01, True)
    assert Region.from_bbox(np.float32(0.5), 0, 1, np.int64(1)).bbox == (0.5, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# polygon masks (a tile is active when its centre is inside: even-odd rule, boundary counts as inside)

UNIT_SQUARE = ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0))  # (lat, lon) vertices


def polygon_grid(monkeypatch, ring, tile_deg: float):
    """The grid of a polygon at the equator with tiles ``tile_deg`` degrees on a side, their centres exact.

    The tile size is patched for the rest of the test, since the grid's centres and ``locate_points`` read it."""
    monkeypatch.setattr(geo, "TILE_SIZE_M", tile_deg * METERS_PER_DEG_LAT)
    return build_grid(Region.from_polygon(ring))


def test_point_in_polygon_interior_and_exterior(monkeypatch):
    grid = polygon_grid(monkeypatch, UNIT_SQUARE, 0.5)
    assert grid.active.tolist() == [[True, True], [True, True]]
    # inside, and north and south of the square, off the grid
    assert [tile_at(lat, 0.5, grid) for lat in (0.5, 1.5, -0.1)] == [3, -1, -1]


def test_point_in_polygon_boundary_is_inside(monkeypatch):
    # the centres (0.5, 1.5) and (1.5, 0.5) lie on the hypotenuse
    triangle = polygon_grid(monkeypatch, ((0.0, 0.0), (0.0, 2.0), (2.0, 0.0)), 1.0)
    assert triangle.active.tolist() == [[True, True], [True, False]]
    # the centre (1.5, 1.5) is a vertex, which the ray cast alone counts as outside
    kite = polygon_grid(monkeypatch, ((0.0, 0.0), (0.0, 2.0), (1.5, 1.5), (2.0, 0.0)), 1.0)
    assert kite.active.tolist() == [[True, True], [True, True]]


def test_point_in_polygon_concave(monkeypatch):
    # L-shape: the notch at the top right is outside
    ell = polygon_grid(monkeypatch, ((0.0, 0.0), (0.0, 2.0), (1.0, 2.0), (1.0, 1.0), (2.0, 1.0), (2.0, 0.0)), 1.0)
    assert ell.active.tolist() == [[True, True], [True, False]]
    assert np.flatnonzero(ell.active).tolist() == [0, 1, 2]


def test_self_intersecting_ring_rejected():
    bowtie = ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0))
    with pytest.raises(SnapGridError, match=r"^polygon ring self-intersects \(edges \d+ and \d+\)$"):
        Region.from_polygon(bowtie)


# ---------------------------------------------------------------------------
# tiling


def test_build_grid_exact_multiple():
    grid = build_grid(bbox_region(2000.0, 2000.0))
    assert (grid.n_rows, grid.n_cols) == (2, 2)
    assert grid.n_active == 4  # bbox regions activate everything


def test_a_bbox_grid_allocates_no_mask():
    # about 40M tiles: the mask is a read-only view of one True, and locating points reads it without a copy
    region = Region.from_bbox(0.0, 0.0, 40.0, 80.0)
    tracemalloc.start()
    try:
        grid = build_grid(region)
        last = grid.n_rows * grid.n_cols - 1
        tiles = locate_points(*grid.centers(np.array([0, last])), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last > 30_000_000 and peak < 1 << 20
    assert tiles.tolist() == [0, last]
    assert grid.active.shape == (grid.n_rows, grid.n_cols) and not grid.active.flags.writeable


def test_build_grid_partial_tile_rounds_up():
    grid = build_grid(bbox_region(1000.0, 2500.0))
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
    ring = ((0.0, 0.0), (0.0, d), (d, 0.0))
    return Region.from_polygon(ring)


def test_triangle_active_mask():
    grid = build_grid(triangle_region())
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
        (a_lat, a_lon), (b_lat, b_lon) = ring[i], ring[(i + 1) % n]
        cross = (b_lon - a_lon) * (lat - a_lat) - (b_lat - a_lat) * (lon - a_lon)
        if cross == 0.0:
            if min(a_lon, b_lon) <= lon <= max(a_lon, b_lon) and min(a_lat, b_lat) <= lat <= max(a_lat, b_lat):
                return True
    inside = False
    for i in range(n):
        (a_lat, a_lon), (b_lat, b_lon) = ring[i], ring[(i + 1) % n]
        if (a_lat > lat) != (b_lat > lat):
            x_cross = a_lon + (lat - a_lat) * (b_lon - a_lon) / (b_lat - a_lat)
            if lon < x_cross:
                inside = not inside
    return inside


def test_polygon_mask_matches_independent_ray_cast():
    region = triangle_region()
    grid = build_grid(region)
    lat, lon = grid.centers()
    for tile in range(grid.n_rows * grid.n_cols):
        expect = crossing_number_oracle(lon[tile], lat[tile], region.polygon)
        assert grid.active.flat[tile] == expect, tile


# ---------------------------------------------------------------------------
# locate_points: a point's tile is row * n_cols + col, or -1 for none


def test_locate_examples():
    grid = build_grid(bbox_region(2000.0, 2000.0))
    assert tile_at(*point_at(1500.0, 500.0, origin_of(grid)), grid) == 1  # row 0, col 1
    # origin corner belongs to tile (0, 0)
    assert tile_at(*origin_of(grid), grid) == 0


def test_locate_tile_edge_goes_to_higher_index():
    grid = build_grid(bbox_region(2000.0, 2000.0))
    assert tile_at(*point_at(1000.0, 0.0, origin_of(grid)), grid) == 1  # row 0, col 1
    assert tile_at(*point_at(0.0, 1000.0, origin_of(grid)), grid) == 2  # row 1, col 0


def test_locate_outside_grid_is_none():
    grid = build_grid(bbox_region(2000.0, 2000.0))
    assert tile_at(-0.001, 0.001, grid) == -1
    assert tile_at(0.001, -0.001, grid) == -1
    # the far north/east edges fall past the last row/column
    assert tile_at(*point_at(2000.0, 500.0, origin_of(grid)), grid) == -1
    assert tile_at(*point_at(500.0, 2000.0, origin_of(grid)), grid) == -1


def test_locate_inactive_tile_is_none():
    grid = build_grid(triangle_region())
    lat, lon = grid.centers(np.array([8, 0]))  # tiles (2, 2) and (0, 0)
    assert not grid.active[2, 2]
    assert locate_points(lat, lon, grid).tolist() == [-1, 0]


def brute_force_locate(lat: float, lon: float, grid) -> int:
    """Scan every tile's half-open projected bounds; -1 when no active tile matches."""
    x, y = project(lat, lon, *origin_of(grid))
    s = geo.TILE_SIZE_M
    hits = []
    for row in range(grid.n_rows):
        for col in range(grid.n_cols):
            if col * s <= x < (col + 1) * s and row * s <= y < (row + 1) * s:
                hits.append((row, col))
    assert len(hits) <= 1
    if not hits or not grid.active[hits[0]]:
        return -1
    return hits[0][0] * grid.n_cols + hits[0][1]


def test_locate_matches_brute_force_scan():
    grid = build_grid(triangle_region())
    rng = np.random.default_rng(11)
    d = 2500.0 / METERS_PER_DEG_LAT
    lats, lons = rng.uniform(-0.2 * d, 1.2 * d, (2000, 2)).T  # (lat, lon) pairs
    assert locate_points(lats, lons, grid).tolist() == [brute_force_locate(a, b, grid) for a, b in zip(lats, lons)]


def test_locate_round_trips_tile_centers():
    grid = build_grid(bbox_region(5000.0, 3000.0, origin=(40.7, -74.0)))
    tiles = np.flatnonzero(grid.active)
    assert locate_points(*grid.centers(tiles), grid).tolist() == tiles.tolist()


def test_grid_csv_export(tmp_path):
    grid = build_grid(bbox_region(2000.0, 1000.0))
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
                       "north": bbox_region(3000.0, 3000.0, origin=(59.9, 10.7))}[region])
    points = [point_at(x, y, origin_of(grid)) for x, y in offsets]
    points += [(grid.origin_lat, grid.origin_lon + d) for d in (0.0, 1e-9, -1e-9)]  # on the origin's row
    lats, lons = np.array(points).reshape(-1, 2).T
    assert locate_points(lats, lons, grid).tolist() == [brute_force_locate(*p, grid) for p in points]


def test_locate_points_on_exact_tile_edges():
    # at the equator whole kilometres project back exactly: every tile corner, the far edges included
    grid = build_grid(bbox_region(3000.0, 3000.0))
    corners = [(1000.0 * i, 1000.0 * j) for i in range(4) for j in range(4)]
    points = [point_at(x, y, origin_of(grid)) for x, y in corners]
    assert [project(*p, *origin_of(grid)) for p in points] == corners
    tiles = locate_points(*np.array(points).T, grid)
    assert tiles.tolist() == [-1 if 3 in (i, j) else 3 * j + i for i in range(4) for j in range(4)]
    assert [locate(*p, grid) for p in points] == tiles.tolist()  # locate is locate_points for one point


def test_locate_points_of_nothing():
    grid = build_grid(bbox_region(2000.0, 2000.0))
    assert locate_points(np.array([]), np.array([]), grid).tolist() == []
