"""Tour of the metric tile grid: projection, tiling, point lookup, polygon masks.

Run: python demos/grid_tiling.py
"""

import numpy as np

from snapgrid.geo import Region, build_grid, locate_points, project, unproject


def km_ring(anchor_lat, anchor_lon, points_km):
    """Polygon ring of ``(lat, lon)`` vertices from offsets in kilometres east and north of an anchor."""
    return [unproject(1000.0 * x, 1000.0 * y, anchor_lat, anchor_lon) for x, y in points_km]


def show_grid(name, grid):
    print(f"{name}: {grid.n_rows} rows x {grid.n_cols} cols, {grid.n_active} active tiles")
    for row in reversed(range(grid.n_rows)):
        cells = ("#" if grid.active[row, col] else "." for col in range(grid.n_cols))
        print("   " + " ".join(cells))


def main():
    # A 5 km x 3 km box over central London. Tiles are 1 km squares in a
    # local equirectangular projection anchored at the southwest corner.
    south, west = 51.50, -0.14
    north, east = unproject(5000.0, 3000.0, south, west)
    box = Region.from_bbox(south, west, north, east)
    grid = build_grid(box, tile_size_m=1000.0)
    show_grid("bbox city", grid)

    # Point lookup. locate_points() floors the projected coordinates, so a
    # point exactly on a tile edge belongs to the higher-index tile, and
    # anything past the outer east/north edge falls off the grid (-1).
    points = {
        "southwest corner": (south, west),
        "1.5 km east, 0.5 km north": unproject(1500.0, 500.0, south, west),
        "north of the box": (north + 0.01, west),
    }
    lat, lon = np.array(list(points.values())).T
    tiles = locate_points(lat, lon, grid)
    xs, ys = project(lat, lon, grid.origin_lat, grid.origin_lon)
    for label, tile, x, y in zip(points, tiles.tolist(), xs.tolist(), ys.tolist()):
        where = f"tile (row={tile // grid.n_cols}, col={tile % grid.n_cols})" if tile >= 0 else "outside"
        print(f"  {label}: projected ({x:7.1f} m, {y:7.1f} m) -> {where}")

    # A triangular "city" shows the polygon mask: a tile stays active only
    # when its center lies inside the ring (boundary counts as inside).
    triangle = Region.from_polygon(km_ring(51.50, -0.14, [(0, 0), (4.5, 0), (0, 4.5)]))
    tri_grid = build_grid(triangle, tile_size_m=1000.0)
    show_grid("triangle city", tri_grid)
    lat, lon = tri_grid.centers(np.array([0]))
    print(f"  tile (0,0) center: ({lat[0]:.5f}, {lon[0]:.5f})")
    print(f"  locate_points(center) -> tile {locate_points(lat, lon, tri_grid)[0]}")


if __name__ == "__main__":
    main()
