"""Network-on-chip substrate.

Three crossbar topologies from the paper's design-space exploration
(Section 3): a full crossbar, a concentrated crossbar (C-Xbar) and the
hierarchical two-stage crossbar (H-Xbar) that the adaptive LLC co-designs
with.  All three expose the same two-call timing API
(:meth:`~repro.noc.topology.BaseTopology.request_arrival` /
:meth:`~repro.noc.topology.BaseTopology.reply_arrival`) plus flit accounting
for the DSENT-like power/area model in :mod:`repro.noc.power`.

The package re-exports nothing, so reading a stored energy report loads
:mod:`repro.noc.power` alone; build topologies with
:func:`repro.noc.topology.make_topology`.
"""
