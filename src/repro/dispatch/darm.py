"""DARM+DPRS substitute: demand-anticipating repositioning + insertion matching.

The paper compares against DARM+DPRS [53], a deep-reinforcement-learning
dispatcher that jointly matches requests and repositions idle vehicles toward
areas of anticipated demand.  Training an RL policy is outside the scope of a
deterministic reproduction, so this module implements a model-free stand-in
with the same observable behaviour:

* a per-grid-cell demand estimate maintained as an exponential moving average
  of recent request arrivals (the "demand prediction"),
* idle vehicles beyond a small reserve are repositioned toward the
  highest-demand cells, paying the relocation travel time (the extra travel
  cost the paper attributes to DARM+DPRS), and
* request matching itself uses greedy linear insertion, like the online
  baselines.

The substitution is documented in ``DESIGN.md``: what matters for the
reproduced figures is that DARM+DPRS behaves like an online method whose
repositioning helps only when requests are sparse and otherwise adds travel
cost -- which this heuristic reproduces.
"""

from __future__ import annotations

from .base import DispatchContext, DispatchResult, Dispatcher
from .prunegdp import insert_greedily


class DARMDispatcher(Dispatcher):
    """Demand-anticipating repositioning with greedy insertion matching."""

    name = "DARM+DPRS"
    #: Weight of the newest batch in the per-cell demand average, in (0, 1].
    smoothing = 0.3
    #: Share of the idle vehicles sent toward demand per repositioning.
    reposition_fraction = 0.1
    #: Simulated seconds between two repositionings.
    reposition_period = 30.0
    #: Cap on the candidate vehicles each request evaluates.
    max_candidates = 32

    def reset(self) -> None:
        self._demand: dict[tuple[int, int], float] = {}
        self._last_reposition = float("-inf")

    def estimated_memory_bytes(self) -> int:
        # Demand table plus (a stand-in for) the learned policy parameters.
        return 80 * len(self._demand) + 4000

    # ------------------------------------------------------------------ #
    def dispatch(self, context: DispatchContext) -> DispatchResult:
        self._update_demand(context)
        # Online semantics: unplaceable requests are rejected immediately.
        result = insert_greedily(
            context, max_candidates=self.max_candidates, reject_unassigned=True
        )
        self._reposition(context, result)
        return result

    # ------------------------------------------------------------------ #
    def _update_demand(self, context: DispatchContext) -> None:
        """Exponential moving average of request arrivals per grid cell."""
        arrivals: dict[tuple[int, int], int] = {}
        for request in context.batch:
            xy = context.network.position(request.source)
            cell = context.vehicle_index.cell_of_point(*xy)
            arrivals[cell] = arrivals.get(cell, 0) + 1
        cells = set(self._demand) | set(arrivals)
        for cell in cells:
            previous = self._demand.get(cell, 0.0)
            observed = float(arrivals.get(cell, 0))
            self._demand[cell] = (
                (1.0 - self.smoothing) * previous + self.smoothing * observed
            )

    def _reposition(self, context: DispatchContext, result: DispatchResult) -> None:
        """Send a fraction of the idle vehicles toward high-demand cells.

        Each move goes into ``result.repositions`` for the engine to commit
        (``Vehicle.reposition``): the vehicle's location jumps to the target
        node, its clock advances by the travel time and the travel time is
        charged to its odometer, so it cannot serve requests until it
        (virtually) arrives.
        """
        if not self._demand:
            return
        if context.current_time - self._last_reposition < self.reposition_period:
            return
        self._last_reposition = context.current_time
        assigned_vehicles = {a.vehicle_id for a in result.assignments}
        idle = [
            vehicle
            for vehicle in context.vehicles
            if vehicle.is_idle and vehicle.vehicle_id not in assigned_vehicles
        ]
        if not idle:
            return
        budget = max(int(len(idle) * self.reposition_fraction), 0)
        if budget == 0:
            return
        hot_cells = sorted(self._demand.items(), key=lambda kv: kv[1], reverse=True)
        hot_cells = [cell for cell, demand in hot_cells[:budget] if demand > 0]
        if not hot_cells:
            return
        for vehicle, cell in zip(idle, hot_cells):
            target_xy = context.vehicle_index.cell_center(cell)
            target_node = context.network.nearest_node(*target_xy)
            if target_node == vehicle.location:
                continue
            travel = context.oracle.cost(vehicle.location, target_node)
            if travel <= 0 or travel == float("inf"):
                continue
            result.repositions.append((vehicle.vehicle_id, target_node, travel))
