"""The ``priority`` backend: Felicijan & Furber's prioritized VCs [9].

Reference [9] of the paper is a clockless router providing
*differentiated* — not guaranteed — services by statically prioritizing
VCs.  MANGO's pluggable link arbiter makes this a one-line
configuration (:func:`repro.baselines.priority_router.priority_router_config`):
the same mesh, switch and VC buffers as the ``mango`` backend, but every
link arbiter grants strictly by VC index instead of fair-share rounds.

Consequences (paper Section 4.2 discussion and
``benchmarks/bench_alg_latency.py``):

* low-index VCs see excellent latency — often better than fair-share;
* there is **no admission control tied to the arbiter**: nothing stops
  higher priorities from saturating a link, so a low-priority VC has no
  bandwidth floor — "no hard guarantees are provided";
* BE traffic (the highest requester index) starves first.

Because the architecture promises nothing, the backend is scored
against the reference MANGO fair-share contract, like ``generic-vc`` —
the verdicts report whether prioritization *happened* to meet the
service level on the scenario at hand.
"""

from __future__ import annotations

from typing import Optional

from ..baselines.priority_router import priority_router_config
from ..core.config import RouterConfig
from ..network.network import MangoNetwork
from .base import RouterBackend
from .mango import MangoBackend

__all__ = ["PriorityBackend"]


class PriorityBackend(MangoBackend):
    """Reference [9] via MANGO's pluggable arbiter: static VC priority,
    no hard bandwidth floor for low priorities."""

    name = "priority"
    description = ("MANGO mesh with strict-priority link arbiters "
                   "(Felicijan & Furber [9]) — differentiated, "
                   "not guaranteed")
    paper_section = "4.2 / 6 (ref [9])"
    has_hard_guarantees = False
    supports_failure_injection = True

    def build_network(self, spec, config: Optional[RouterConfig] = None,
                      obs=None) -> MangoNetwork:
        return MangoNetwork(
            spec.cols, spec.rows,
            config=priority_router_config(config or RouterConfig()),
            tracer=obs.tracer if obs is not None else None)

    def latency_bound_ns(self, hops: int,
                         config: Optional[RouterConfig] = None) -> float:
        """The *reference* fair-share bound: strict priority gives the
        best-placed VC a better bound and the worst-placed VC none at
        all, so the verdicts compare against what MANGO would have
        guaranteed on the same path."""
        return super().latency_bound_ns(hops, config)
