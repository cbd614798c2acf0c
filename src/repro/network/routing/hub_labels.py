"""Hub labels over a contraction hierarchy: one store, one join.

A node's forward (backward) label is its CH upward search space, written by
:class:`~repro.network.routing.contraction.UpwardSweep`.  By the CH cover
property the minimum of ``d_f(h) + d_b(h)`` over the hubs ``h`` two labels
share is the shortest-path distance, so a ``cost(u, v)`` query is a join.
:class:`HubLabeling` is the store of both preprocessed backends: the one
every ``hub_label`` oracle over a network shares sweeps every label in full
at set-up (the paper's setup); ``ch``'s private store sweeps a label only as
far as its joins need, with the stopping rule of the stall-on-demand CH
query: advance the lower frontier while a frontier is below the best meeting
distance, then pause.  An unreached hub lies at least a frontier away and
cannot beat the answer, so the distance is the full-label join's bit for bit.
"""

from __future__ import annotations

import math

from .contraction import ContractionHierarchy, UpwardSweep


class HubLabeling:
    """Per-node forward / backward labels and the join that answers a pair."""

    __slots__ = ("hierarchy", "forward", "backward", "paused", "_dist")

    def __init__(self, hierarchy: ContractionHierarchy, *, eager: bool) -> None:
        """An empty store over ``hierarchy``; ``eager`` sweeps every node now."""
        self.hierarchy = hierarchy
        n = hierarchy.csr.num_nodes
        #: ``forward[i]`` -- ``{hub index: distance}``, ``None`` until swept.
        self.forward: list[dict[int, float] | None] = [None] * n
        self.backward: list[dict[int, float] | None] = [None] * n
        #: Sweeps begun and not finished, forward then backward, by node.
        self.paused: tuple[dict[int, UpwardSweep], dict[int, UpwardSweep]] = ({}, {})
        #: Flat tentative-distance scratch per direction, ``inf`` between calls.
        self._dist = ([math.inf] * n, [math.inf] * n)
        if eager:
            for labels, backward in ((self.forward, False), (self.backward, True)):
                dist = self._dist[backward]
                for index in range(n):
                    sweep = UpwardSweep(hierarchy, index, backward=backward)
                    sweep.resume(dist)
                    sweep.advance(dist)
                    sweep.pause(dist)
                    labels[index] = sweep.label

    def query(self, source_index: int, target_index: int) -> tuple[float, int]:
        """``(distance, settled)`` of one pair of dense indices; ``settled``
        counts the label entries walked plus those the call's sweeps added."""
        forward = self.forward[source_index]
        if forward is None:
            forward = self._begin(source_index, False)
        backward = self.backward[target_index]
        if backward is None:
            backward = self._begin(target_index, True)
        # Walk the smaller label, probe the larger.
        walk, other = (backward, forward) if len(backward) < len(forward) else (forward, backward)
        probe = other.get
        best = math.inf
        for hub, near in walk.items():
            far = probe(hub)
            if far is not None and near + far < best:
                best = near + far
        paused = self.paused
        if not (paused[0] or paused[1]):  # an eager store never pauses
            return best, len(walk)
        ahead, behind = paused[0].get(source_index), paused[1].get(target_index)
        if (ahead is None or ahead.floor >= best) and (behind is None or behind.floor >= best):
            return best, len(walk)
        sweeps = [ahead, behind]
        ends, labels = (source_index, target_index), (forward, backward)
        before = len(forward) + len(backward)
        # Advance the lower frontier while one is below ``best`` (a finished
        # direction has none) until it passes twice the other, resuming a
        # sweep once and pausing it after.
        resumed = [False, False]
        while True:
            floors = [math.inf if sweep is None else sweep.floor for sweep in sweeps]
            side = 0 if floors[0] <= floors[1] else 1
            sweep = sweeps[side]
            if sweep is None or floors[side] >= best:
                break
            if not resumed[side]:
                sweep.resume(self._dist[side])
                resumed[side] = True
            best = sweep.advance(self._dist[side], labels[1 - side], best, 2 * floors[1 - side])
        for side, sweep in enumerate(sweeps):
            if sweep is not None and resumed[side]:
                sweep.pause(self._dist[side])
                if math.isinf(sweep.floor):
                    del paused[side][ends[side]]
        return best, len(walk) + len(forward) + len(backward) - before

    def _begin(self, index: int, backward: bool) -> dict[int, float]:
        """Start the sweep from ``index`` (it settles nothing yet)."""
        sweep = self.paused[backward][index] = UpwardSweep(self.hierarchy, index, backward=backward)
        (self.backward if backward else self.forward)[index] = sweep.label
        return sweep.label

    def estimated_memory_bytes(self) -> int:
        """Rough footprint of the labels swept so far and the paused sweeps."""
        swept = [label for label in (*self.forward, *self.backward) if label is not None]
        paused = [sweep for held in self.paused for sweep in held.values()]
        # A dict slot and a float per entry, a dict header per label; a
        # list slot, a tuple and a float per paused frontier entry.
        entries = sum(map(len, swept)) + sum(len(sweep.stalled) for sweep in paused)
        return 72 * entries + 64 * len(swept) + 88 * sum(len(s.heap) for s in paused)
