"""Multi-tenant fleet indexing: the flat spectral Bloofi index.

A fleet of per-tenant spectral filters answers "which sets contain key
x, and how often" through :class:`~repro.tenancy.tree.SpectralBloofiTree`
— one presence bit per (counter, tenant), so a query ANDs the key's k
rows and probes only the tenants that survive, exactly (bit-identical
to scanning every tenant).
:class:`~repro.tenancy.directory.TenantDirectory` fronts the index with
the router contract, so the existing
:class:`~repro.serve.engine.ServingEngine` serves multi-tenant fleets
unchanged.
"""

from repro.tenancy.directory import TenantDirectory, split_key
from repro.tenancy.tree import (
    TREE_MAGIC,
    SpectralBloofiTree,
    UnknownTenant,
    load_tree,
)

__all__ = [
    "SpectralBloofiTree",
    "TenantDirectory",
    "UnknownTenant",
    "TREE_MAGIC",
    "load_tree",
    "split_key",
]
