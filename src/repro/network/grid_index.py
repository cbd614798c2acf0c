"""Uniform grid spatial index (the paper's n x n grid index).

StructRide partitions the road network into ``n x n`` square cells so that
moving vehicles can be re-indexed in constant time and so that candidate
vehicles / requests around a location can be retrieved with a range query.
The same structure backs two different uses in this reproduction:

* indexing vehicles by their current node (updated as the simulator moves
  them), and
* indexing the source nodes of pending requests inside the shareability
  graph builder (Algorithm 1, line 4).

Positions are also kept in a flat numpy array, one slot per key, for
:meth:`GridIndex.k_nearest`.  :meth:`GridIndex.query_radius` stays a cell
walk: at the radii dispatch asks (3 to 6 cells, 2 to 6 hits) a numpy pass
measured slower, 0.127 s against 0.075 s per ``chd_ch_cold`` replay.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator

import numpy as np

from ..exceptions import NetworkError
from .road_network import RoadNetwork


class GridIndex:
    """A uniform grid over a planar bounding box storing point objects.

    Objects are identified by hashable keys and have an ``(x, y)`` position.
    Insertion, removal and movement cost the size of one cell; range queries
    touch only the cells overlapping the query disk.

    A query's answer is a function of the index's contents, never of the
    insert / move / remove history that produced them: a range query visits
    cells in ``(cx, cy)`` order and the keys of a cell in ascending order,
    :meth:`k_nearest` sorts by ``(distance, key)`` (callers truncate and
    tie-break on the order of the result).  The keys of one index must
    therefore be mutually orderable -- all ints, or all strings.
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
        #: Key -> slot, slot -> key and slot -> position (row 0 the x, row 1
        #: the y coordinates); the first ``len(self)`` slots are in use.
        self._slots: dict[object, int] = {}
        self._keys: list = []
        self._xy = np.empty((2, 16))

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
        """Insert (or move) ``key`` at position ``(x, y)``; a key already in
        the index keeps its slot, overwritten in place."""
        x, y = float(x), float(y)
        cell, old = self._cell_of(x, y), self._positions.get(key)
        old_cell = None if old is None else self._cell_of(*old)
        if old_cell != cell:
            if old_cell is not None:
                self._leave(old_cell, key)
            members = self._cells.get(cell)
            if members is None:
                members = self._cells[cell] = []
                insort(self._occupied, cell)
            insort(members, key)
        if old is None:
            self._slots[key] = len(self._keys)
            self._keys.append(key)
            if len(self._keys) > self._xy.shape[1]:
                self._xy = np.concatenate((self._xy, self._xy), axis=1)
        self._positions[key] = self._xy[:, self._slots[key]] = (x, y)

    def remove(self, key: int) -> None:
        """Remove ``key`` from the index; missing keys are ignored.  The last
        slot's key moves into the freed slot."""
        position = self._positions.pop(key, None)
        if position is None:
            return
        self._leave(self._cell_of(*position), key)
        slot, moved = self._slots.pop(key), self._keys.pop()
        if slot < len(self._keys):
            self._keys[slot], self._slots[moved] = moved, slot
            self._xy[:, slot] = self._xy[:, len(self._keys)]

    def move(self, key: int, x: float, y: float) -> None:
        """Update the position of ``key`` (inserting it if absent)."""
        self.insert(key, x, y)

    def clear(self) -> None:
        """Remove every object."""
        for key in list(self._positions):
            self.remove(key)

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
        """``(distance, key)`` of the ``k`` nearest keys to ``(x, y)`` and of
        every key as far away as the k-th (of every key when the index holds
        at most ``k``), sorted by ``(distance, key)``.

        One numpy pass over the coordinate array finds the k-th smallest
        squared offset and shortlists every key within a hair of it: a sum of
        squares rounds, and underflows for subnormal offsets, so the band is
        a relative 1e-9 plus an absolute 1e-300.  The shortlist is measured
        again with ``math.hypot``, the distance :meth:`query_radius` uses,
        and cut at the exact k-th distance.
        """
        size = len(self._keys)
        if k < 1 or not size:
            return []
        k = min(k, size)
        dx = self._xy[0, :size] - x
        dy = self._xy[1, :size] - y
        squared = dx * dx + dy * dy
        kth = np.partition(squared, k - 1)[k - 1]
        near = squared <= kth * (1 + 1e-9) + 1e-300
        keys = [self._keys[slot] for slot in np.flatnonzero(near).tolist()]
        found = sorted(zip(map(math.hypot, dx[near].tolist(), dy[near].tolist()), keys))
        reach = found[k - 1][0]
        return [pair for pair in found if pair[0] <= reach]

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

    def _leave(self, cell: tuple[int, int], key: int) -> None:
        members = self._cells[cell]
        del members[bisect_left(members, key)]
        if not members:
            del self._cells[cell]
            del self._occupied[bisect_left(self._occupied, cell)]

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
