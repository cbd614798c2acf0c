"""Uniform grid spatial index (the paper's n x n grid index).

StructRide partitions the road network into ``n x n`` square cells so that
moving vehicles can be re-indexed in constant time and so that candidate
vehicles / requests around a location can be retrieved with a range query.
The same structure backs two different uses in this reproduction:

* indexing vehicles by their current node (updated as the simulator moves
  them), and
* indexing the source nodes of pending requests inside the shareability
  graph builder (Algorithm 1, line 4).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator

from ..exceptions import NetworkError
from .road_network import RoadNetwork


class GridIndex:
    """A uniform grid over a planar bounding box storing point objects.

    Objects are identified by hashable keys and have an ``(x, y)`` position.
    Insertion, removal and movement cost the size of one cell; range queries
    touch only the cells overlapping the query disk.

    A query's answer is a function of the index's contents, never of the
    insert / move / remove history that produced them: cells are visited in
    ``(cx, cy)`` order and the keys of a cell in ascending order (callers
    truncate and tie-break on the order of the result).  The keys of one
    index must therefore be mutually orderable -- all ints, or all strings.
    """

    def __init__(
        self,
        bounds: tuple[float, float, float, float],
        cells_per_axis: int = 32,
    ) -> None:
        min_x, min_y, max_x, max_y = bounds
        if max_x <= min_x or max_y <= min_y:
            raise NetworkError("grid bounds must have positive extent")
        if cells_per_axis < 1:
            raise NetworkError("cells_per_axis must be at least 1")
        self._min_x = float(min_x)
        self._min_y = float(min_y)
        self._max_x = float(max_x)
        self._max_y = float(max_y)
        self._cells_per_axis = int(cells_per_axis)
        self._cell_width = (self._max_x - self._min_x) / cells_per_axis
        self._cell_height = (self._max_y - self._min_y) / cells_per_axis
        #: Keys per occupied cell, ascending.
        self._cells: dict[tuple[int, int], list] = {}
        #: The occupied cells, ascending: the order queries visit them in.
        self._occupied: list[tuple[int, int]] = []
        self._positions: dict[object, tuple[float, float]] = {}

    @classmethod
    def for_network(cls, network: RoadNetwork, cells_per_axis: int = 32) -> "GridIndex":
        """Create an index covering the bounding box of ``network``."""
        min_x, min_y, max_x, max_y = network.bounding_box()
        # Pad degenerate boxes so a single-node network still indexes.
        if max_x - min_x <= 0:
            max_x = min_x + 1.0
        if max_y - min_y <= 0:
            max_y = min_y + 1.0
        return cls((min_x, min_y, max_x, max_y), cells_per_axis)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def insert(self, key: int, x: float, y: float) -> None:
        """Insert (or move) ``key`` at position ``(x, y)``."""
        if key in self._positions:
            self.remove(key)
        cell = self._cell_of(x, y)
        members = self._cells.get(cell)
        if members is None:
            members = self._cells[cell] = []
            insort(self._occupied, cell)
        insort(members, key)
        self._positions[key] = (float(x), float(y))

    def remove(self, key: int) -> None:
        """Remove ``key`` from the index; missing keys are ignored."""
        position = self._positions.pop(key, None)
        if position is None:
            return
        cell = self._cell_of(*position)
        members = self._cells[cell]
        del members[bisect_left(members, key)]
        if not members:
            del self._cells[cell]
            del self._occupied[bisect_left(self._occupied, cell)]

    def move(self, key: int, x: float, y: float) -> None:
        """Update the position of ``key`` (inserting it if absent)."""
        self.insert(key, x, y)

    def clear(self) -> None:
        """Remove every object."""
        self._cells.clear()
        self._occupied.clear()
        self._positions.clear()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, key: int) -> bool:
        return key in self._positions

    def position(self, key: int) -> tuple[float, float]:
        """Stored position of ``key``."""
        try:
            return self._positions[key]
        except KeyError as exc:
            raise NetworkError(f"key {key!r} is not in the grid index") from exc

    def keys(self) -> Iterator:
        """Iterate over all indexed keys."""
        return iter(self._positions)

    def query_radius(self, x: float, y: float, radius: float) -> list:
        """All keys within Euclidean distance ``radius`` of ``(x, y)``.

        The distance is ``math.hypot``, the one :meth:`k_nearest` uses: a
        sum of squares underflows for subnormal offsets, so the two would
        disagree on which keys a disk holds."""
        if radius < 0:
            raise NetworkError("radius must be non-negative")
        results = []
        hypot = math.hypot
        positions = self._positions
        for members in self._cells_overlapping(x, y, radius):
            for key in members:
                px, py = positions[key]
                if hypot(px - x, py - y) <= radius:
                    results.append(key)
        return results

    def k_nearest(self, x: float, y: float, k: int) -> list[tuple[float, int]]:
        """``(distance, key)`` of every key in a disk around ``(x, y)`` that
        holds at least ``k`` keys (every key when the index holds fewer).

        Whatever lies within the final radius is returned, in query order,
        so the ``k`` nearest keys *and every key as far away as the k-th* are
        among the pairs; the caller sorts and breaks ties as it sees fit.

        The disk starts at twice the radius that would hold ``k`` keys were
        they spread evenly over the bounds and doubles until it holds them:
        a disk that falls short is scanned again in full, one too large only
        returns more pairs, and callers ask where the index is sparse.
        """
        positions = self._positions
        wanted = min(k, len(positions))
        if wanted < 1:
            return []
        area = (self._max_x - self._min_x) * (self._max_y - self._min_y)
        radius = 2 * math.sqrt(wanted * area / (math.pi * len(positions)))
        hypot = math.hypot
        while True:
            found = []
            for members in self._cells_overlapping(x, y, radius):
                for key in members:
                    px, py = positions[key]
                    distance = hypot(px - x, py - y)
                    if distance <= radius:
                        found.append((distance, key))
            if len(found) >= wanted:
                return found
            radius *= 2

    def cell_of_point(self, x: float, y: float) -> tuple[int, int]:
        """Cell coordinates containing ``(x, y)`` (clamped to the grid)."""
        return self._cell_of(x, y)

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        """Planar coordinates of the center of ``cell``."""
        cx, cy = cell
        x = self._min_x + (cx + 0.5) * self._cell_width
        y = self._min_y + (cy + 0.5) * self._cell_height
        return x, y

    def estimated_memory_bytes(self) -> int:
        """Rough memory footprint (for the memory study)."""
        return 120 * len(self._positions) + 80 * len(self._cells)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        cx = int((x - self._min_x) / self._cell_width)
        cy = int((y - self._min_y) / self._cell_height)
        cx = min(max(cx, 0), self._cells_per_axis - 1)
        cy = min(max(cy, 0), self._cells_per_axis - 1)
        return cx, cy

    def _cells_overlapping(self, x: float, y: float, radius: float) -> list[list]:
        """Occupied cells the query box overlaps, column by column."""
        cells = self._cells
        lo_x, lo_y = self._cell_of(x - radius, y - radius)
        hi_x, hi_y = self._cell_of(x + radius, y + radius)
        if (hi_x - lo_x + 1) * (hi_y - lo_y + 1) > len(cells):
            # A box of mostly empty cells: pick the occupied ones out of the
            # ascending list instead.  Ascending (cx, cy) is the order of
            # the nested ranges below, and callers truncate and tie-break on
            # the order of the result.
            occupied = self._occupied
            columns = occupied[
                bisect_left(occupied, (lo_x, lo_y)):bisect_right(occupied, (hi_x, hi_y))
            ]
            return [cells[cell] for cell in columns if lo_y <= cell[1] <= hi_y]
        return [
            cells[cx, cy]
            for cx in range(lo_x, hi_x + 1)
            for cy in range(lo_y, hi_y + 1)
            if (cx, cy) in cells
        ]
