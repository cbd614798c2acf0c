"""Dispatchers: SARD and the five baselines evaluated in the paper.

All dispatchers implement the :class:`~repro.dispatch.base.Dispatcher`
interface: the simulator hands them a :class:`~repro.dispatch.base.DispatchContext`
once per batch and receives back schedule assignments.

* :class:`~repro.dispatch.sard.SARDDispatcher` -- the paper's contribution
  (Algorithm 3): structure-aware proposal/acceptance over the shareability
  graph with shareability-loss group selection.
* :class:`~repro.dispatch.prunegdp.PruneGDPDispatcher` -- online greedy
  linear insertion (Tong et al. [37]).
* :class:`~repro.dispatch.ticket_assign.TicketAssignDispatcher` -- simulated
  parallel ticket-locking search (Pan & Li [54]).
* :class:`~repro.dispatch.gas.GASDispatcher` -- additive-tree batch
  dispatch with profit-greedy group selection (Zeng et al. [33]).
* :class:`~repro.dispatch.rtv.RTVDispatcher` -- trip-vehicle assignment via
  integer programming (Alonso-Mora et al. [27]).
* :class:`~repro.dispatch.darm.DARMDispatcher` -- demand-anticipating
  repositioning + insertion matching, standing in for the deep-RL
  DARM+DPRS [53].
"""

from .base import (
    Assignment,
    DispatchContext,
    DispatchResult,
    Dispatcher,
    candidate_vehicles,
    requests_by_vehicle,
)
from .sard import SARDDispatcher
from .prunegdp import PruneGDPDispatcher
from .ticket_assign import TicketAssignDispatcher
from .gas import GASDispatcher
from .rtv import RTVDispatcher
from .darm import DARMDispatcher

#: Registry mapping the paper's algorithm names to dispatcher factories.
DISPATCHER_REGISTRY = {
    "SARD": SARDDispatcher,
    "pruneGDP": PruneGDPDispatcher,
    "TicketAssign+": TicketAssignDispatcher,
    "GAS": GASDispatcher,
    "RTV": RTVDispatcher,
    "DARM+DPRS": DARMDispatcher,
}


def make_dispatcher(name: str) -> Dispatcher:
    """Instantiate a dispatcher by its paper name (case-sensitive)."""
    try:
        factory = DISPATCHER_REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown dispatcher {name!r}; choose from {sorted(DISPATCHER_REGISTRY)}"
        ) from exc
    return factory()


__all__ = [
    "Assignment",
    "DispatchContext",
    "DispatchResult",
    "Dispatcher",
    "candidate_vehicles",
    "requests_by_vehicle",
    "SARDDispatcher",
    "PruneGDPDispatcher",
    "TicketAssignDispatcher",
    "GASDispatcher",
    "RTVDispatcher",
    "DARMDispatcher",
    "DISPATCHER_REGISTRY",
    "make_dispatcher",
]
