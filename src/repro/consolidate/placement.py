"""SM-placement policies: which tenant owns which SM.

The Figure 9 experiment hard-codes one placement — split every cluster in
half between the two co-runners — as ``program_of_sm`` inside
:class:`~repro.workloads.multiprogram.MultiProgramWorkload`.  This module
lifts that rule into :data:`PLACEMENTS`, one instance of the component
registry LLC policies use (:mod:`repro.analysis.registry`: the same
:class:`~repro.analysis.registry.Param` schema and ``NAME[:k=v,...]``
grammar), so consolidation experiments can sweep placement the way they
sweep policy.

A placement maps ``(num_sms, sms_per_cluster, n_tenants)`` to a per-SM
tenant assignment.  ``cluster-split`` reproduces the paper's rule exactly
(byte-identical SM sets for two tenants, odd cluster widths included);
``striped``, ``dedicated-cluster`` and ``fill-first`` trade cluster-level
locality against spatial isolation in different ways.
"""

from __future__ import annotations

from typing import List

from repro.analysis.registry import Component, Param, Registry


class Placement(Component):
    """Base class for registered SM-placement policies.

    Subclasses set ``NAME``, optionally ``ALIASES`` and ``PARAMS``, and
    implement :meth:`assign`.
    """

    KIND = "placement"

    def assign(self, num_sms: int, sms_per_cluster: int,
               n_tenants: int) -> List[int]:
        """Tenant id for every SM, as a list indexed by ``sm_id``.

        Raises:
            ValueError: when the geometry cannot give every tenant at
                least one SM under this placement.
        """
        raise NotImplementedError

    def _check_coverage(self, assignment: List[int],
                        n_tenants: int) -> List[int]:
        seen = set(assignment)
        missing = [t for t in range(n_tenants) if t not in seen]
        if missing:
            raise ValueError(
                f"placement {self.NAME!r} leaves tenants {missing} with no "
                f"SMs ({len(assignment)} SMs, {n_tenants} tenants)")
        return assignment


#: Every registered placement; an empty spec means ``cluster-split``.
PLACEMENTS: Registry[Placement] = Registry(Placement,
                                           default="cluster-split")
available_placements = PLACEMENTS.available
create_placement = PLACEMENTS.from_spec
canonical_placement_spec = PLACEMENTS.canonical_spec


def cluster_split_boundaries(sms_per_cluster: int,
                             n_tenants: int) -> List[int]:
    """Per-cluster tenant boundaries: tenant ``t`` owns in-cluster
    positions ``[b[t], b[t+1])``.  For two tenants the single boundary is
    ``sms_per_cluster // 2`` — exactly the paper's Figure 9 rule, odd
    cluster widths included."""
    return [t * sms_per_cluster // n_tenants for t in range(n_tenants + 1)]


@PLACEMENTS.register
class ClusterSplitPlacement(Placement):
    """Split every cluster between the tenants (the Figure 9 rule)."""

    NAME = "cluster-split"
    DESCRIPTION = ("every cluster is divided between all tenants; "
                   "reproduces the paper's Figure 9 rule for two tenants")

    def assign(self, num_sms: int, sms_per_cluster: int,
               n_tenants: int) -> List[int]:
        if sms_per_cluster < n_tenants:
            raise ValueError(
                f"cluster-split needs sms_per_cluster >= tenants "
                f"({sms_per_cluster} < {n_tenants})")
        bounds = cluster_split_boundaries(sms_per_cluster, n_tenants)
        position_owner: List[int] = []
        tenant = 0
        for pos in range(sms_per_cluster):
            while pos >= bounds[tenant + 1]:
                tenant += 1
            position_owner.append(tenant)
        out = [position_owner[sm % sms_per_cluster] for sm in range(num_sms)]
        return self._check_coverage(out, n_tenants)


@PLACEMENTS.register
class StripedPlacement(Placement):
    """Round-robin SMs across tenants (maximal interleaving)."""

    NAME = "striped"
    DESCRIPTION = "SM i belongs to tenant (i + phase) mod N"
    PARAMS = (
        Param("phase", int, 0,
              "rotation offset applied before the modulo"),
    )

    def assign(self, num_sms: int, sms_per_cluster: int,
               n_tenants: int) -> List[int]:
        phase = self.params["phase"]
        assert isinstance(phase, int)
        out = [(sm + phase) % n_tenants for sm in range(num_sms)]
        return self._check_coverage(out, n_tenants)


@PLACEMENTS.register
class FillFirstPlacement(Placement):
    """Contiguous SM blocks: tenant t owns SMs [t*S/N, (t+1)*S/N)."""

    NAME = "fill-first"
    ALIASES = ("contiguous",)
    DESCRIPTION = "each tenant gets one contiguous block of SM ids"

    def assign(self, num_sms: int, sms_per_cluster: int,
               n_tenants: int) -> List[int]:
        if num_sms < n_tenants:
            raise ValueError(
                f"fill-first needs num_sms >= tenants "
                f"({num_sms} < {n_tenants})")
        out: List[int] = []
        for tenant in range(n_tenants):
            hi = (tenant + 1) * num_sms // n_tenants
            out.extend([tenant] * (hi - len(out)))
        return self._check_coverage(out, n_tenants)


@PLACEMENTS.register
class DedicatedClusterPlacement(Placement):
    """Whole clusters per tenant (spatial isolation at cluster grain)."""

    NAME = "dedicated-cluster"
    DESCRIPTION = "tenants own whole clusters; needs clusters >= tenants"

    def assign(self, num_sms: int, sms_per_cluster: int,
               n_tenants: int) -> List[int]:
        num_clusters = num_sms // sms_per_cluster
        if num_clusters < n_tenants:
            raise ValueError(
                f"dedicated-cluster needs num_clusters >= tenants "
                f"({num_clusters} < {n_tenants})")
        cluster_owner: List[int] = []
        for tenant in range(n_tenants):
            hi = (tenant + 1) * num_clusters // n_tenants
            cluster_owner.extend([tenant] * (hi - len(cluster_owner)))
        out = [cluster_owner[sm // sms_per_cluster] for sm in range(num_sms)]
        return self._check_coverage(out, n_tenants)
