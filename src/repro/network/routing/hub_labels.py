"""Hub labels over a contraction hierarchy: one store, one join.

The forward label of a node ``s`` is its CH upward search space -- every node
reachable from ``s`` along edges of increasing rank, with the corresponding
upward distance; the backward label of ``t`` mirrors it on the reverse graph.
Search spaces are swept with stall-on-demand pruning: entries whose upward
distance exceeds the true shortest-path distance (witnessed by an edge from a
higher-ranked node) can never be the covering hub of any pair, so dropping
them shrinks the labels without breaking correctness.  The CH cover property
guarantees that for every reachable pair the minimum of
``d_f(h) + d_b(h)`` over *common hubs* ``h`` equals the true shortest-path
distance, so a ``cost(u, v)`` query is a join of two labels: no priority
queue and no graph traversal once both are in the store.

:class:`HubLabeling` is that store for both preprocessed backends.  A label
is a ``{hub index: distance}`` dict kept per node and direction, swept the
first time the node is asked -- or, for the store every ``hub_label`` oracle
over one network shares, for every node at construction (the paper's setup).
"""

from __future__ import annotations

import math

from .contraction import ContractionHierarchy


class HubLabeling:
    """Per-node forward / backward labels and the join that answers a pair."""

    __slots__ = ("hierarchy", "forward", "backward")

    def __init__(self, hierarchy: ContractionHierarchy, *, eager: bool) -> None:
        """An empty store over ``hierarchy``; ``eager`` sweeps every node now."""
        self.hierarchy = hierarchy
        n = hierarchy.csr.num_nodes
        #: ``forward[i]`` -- ``{hub index: distance}``, ``None`` until swept.
        self.forward: list[dict[int, float] | None] = [None] * n
        self.backward: list[dict[int, float] | None] = [None] * n
        if eager:
            for index in range(n):
                self.forward[index] = hierarchy.forward_search_space(index)
                self.backward[index] = hierarchy.backward_search_space(index)

    def query(self, source_index: int, target_index: int) -> tuple[float, int]:
        """``(distance, settled)`` of one pair of dense indices.

        ``settled`` counts the entries of every label the call had to sweep
        (the nodes the sweep settled unstalled) plus the entries it walked.
        """
        work = 0
        forward = self.forward[source_index]
        if forward is None:
            forward = self.forward[source_index] = (
                self.hierarchy.forward_search_space(source_index)
            )
            work += len(forward)
        backward = self.backward[target_index]
        if backward is None:
            backward = self.backward[target_index] = (
                self.hierarchy.backward_search_space(target_index)
            )
            work += len(backward)
        # Walk the smaller label, probe the larger.
        if len(backward) < len(forward):
            forward, backward = backward, forward
        best = math.inf
        probe = backward.get
        for hub, near in forward.items():
            far = probe(hub)
            if far is not None and near + far < best:
                best = near + far
        return best, work + len(forward)

    # ------------------------------------------------------------------ #
    def _swept(self) -> list[dict[int, float]]:
        return [
            label for label in (*self.forward, *self.backward) if label is not None
        ]

    def average_label_size(self) -> float:
        """Mean entries per swept label (the classic hub-labeling quality metric)."""
        swept = self._swept()
        return sum(map(len, swept)) / len(swept) if swept else 0.0

    def estimated_memory_bytes(self) -> int:
        """Rough footprint of the labels swept so far."""
        swept = self._swept()
        # A dict slot plus a float object per entry, a dict header per label.
        return 72 * sum(map(len, swept)) + 64 * len(swept)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HubLabeling(nodes={len(self.forward)}, "
            f"avg_label={self.average_label_size():.1f})"
        )
