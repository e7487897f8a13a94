"""Pluggable router backends for the scenario engine.

The paper's claims are comparative (Sections 4.1 and 6): the same
workload behaves differently on different router architectures.  This
package makes that an executable statement — every cell of the scenario
matrix can be replayed on any registered backend::

    python -m repro scenario run gs-under-saturation-4x4 --backend mango
    python -m repro scenario run gs-under-saturation-4x4 --backend generic-vc
    python -m repro scenario matrix --smoke --backend tdm

Registered backends (see ``docs/backends.md`` for the modelling
assumptions of each):

==============  ==========================================================
``mango``       the paper's router (default; golden fingerprints pinned)
``generic-vc``  Figure 3 arbitrated-switch VC router — no guarantees
``tdm``         ÆTHEREAL-style slot tables — hard but quantised
``priority``    Felicijan & Furber [9] static VC priority — differentiated
``ring``        Wu's 3-port ring routers on ring/hring fabrics
``routerless``  Indrusiak & Burns overlapping loops, per-loop bounds
==============  ==========================================================

Backends declare which topologies they can build
(:attr:`RouterBackend.topologies`); when no ``--backend`` is given the
runner resolves the scenario's topology to its default backend through
:func:`backend_for_topology` — mesh cells run on mango, fabric cells on
their fabric's backend, so one registry serves every fabric.

New backends subclass :class:`~repro.backends.base.RouterBackend` and
call :func:`register_backend`.
"""

from __future__ import annotations

from typing import Dict, List, Union

from .base import BackendCapabilityError, RouterBackend
from .generic_vc import GenericVcBackend, GenericVcNetwork
from .graphnet import (BaseGraphNetwork, FairShareNetwork, GraphAdapter,
                       GraphConnection)
from .mango import MangoBackend
from .priority import PriorityBackend
from .ring import RingBackend
from .routerless import RouterlessBackend
from .tdm import DEFAULT_TABLE_SIZE, TdmBackend, TdmNetwork

__all__ = [
    "BACKENDS",
    "BackendCapabilityError",
    "BaseGraphNetwork",
    "DEFAULT_TABLE_SIZE",
    "FairShareNetwork",
    "GenericVcBackend",
    "GenericVcNetwork",
    "GraphAdapter",
    "GraphConnection",
    "MangoBackend",
    "PriorityBackend",
    "RingBackend",
    "RouterBackend",
    "RouterlessBackend",
    "TdmBackend",
    "TdmNetwork",
    "backend_for_topology",
    "backend_names",
    "get_backend",
    "register_backend",
]

#: The backend registry, keyed by ``--backend`` name.
BACKENDS: Dict[str, RouterBackend] = {}


def register_backend(backend: RouterBackend) -> RouterBackend:
    """Add a backend instance to the registry (unique, non-empty name)."""
    if not backend.name:
        raise ValueError("a backend needs a name")
    if backend.name in BACKENDS:
        raise ValueError(f"backend {backend.name!r} already registered")
    BACKENDS[backend.name] = backend
    return backend


def get_backend(backend: Union[str, RouterBackend]) -> RouterBackend:
    """Resolve a ``--backend`` value (name or instance) to an instance."""
    if isinstance(backend, RouterBackend):
        return backend
    try:
        return BACKENDS[backend]
    except KeyError:
        known = ", ".join(backend_names())
        raise KeyError(
            f"unknown backend {backend!r} (known: {known})") from None


def backend_names() -> List[str]:
    """Registered backend names, sorted (CLI choices, test params)."""
    return sorted(BACKENDS)


#: The backend a scenario runs on when none is named explicitly, keyed
#: by its spec's topology.  The mesh keeps mango (golden fingerprints
#: pinned against it); each fabric maps to the backend that models it.
DEFAULT_BACKEND_BY_TOPOLOGY: Dict[str, str] = {
    "mesh": "mango",
    "ring": "ring",
    "ring-uni": "ring",
    "hring": "ring",
    "routerless": "routerless",
}


def backend_for_topology(topology: str) -> RouterBackend:
    """The default backend for a topology name."""
    try:
        return BACKENDS[DEFAULT_BACKEND_BY_TOPOLOGY[topology]]
    except KeyError:
        known = ", ".join(sorted(DEFAULT_BACKEND_BY_TOPOLOGY))
        raise KeyError(
            f"no default backend for topology {topology!r} "
            f"(known: {known})") from None


register_backend(MangoBackend())
register_backend(GenericVcBackend())
register_backend(TdmBackend())
register_backend(PriorityBackend())
register_backend(RingBackend())
register_backend(RouterlessBackend())
