"""Description of the simulated experimental platform.

Mirrors the paper's testbed (§VI): two nodes, each with two quad-core
2 GHz Opterons and a NetEffect 10-GigE NIC, joined by a Fujitsu 10-GigE
switch, Fedora Core 12.  The values here size the *network*; CPU costs
live in :mod:`repro.models.costs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import CostModel, default_cost_model


@dataclass
class Platform:
    """Network-level parameters of a testbed."""

    #: Link rate of every cable (NIC<->switch), bits/s.
    link_bandwidth_bps: float = 10e9
    #: One-way propagation per cable (short copper/fibre in one rack).
    link_delay_ns: int = 450
    #: Ethernet MTU.  The paper's LAN uses the standard 1500 B; §IV.B.4
    #: discusses WAN MTUs, also 1500.
    mtu: int = 1500
    #: Store-and-forward switch lookup latency.
    switch_delay_ns: int = 300
    #: NIC egress queue depth in frames (the ``tc`` pfifo the paper's
    #: loss injection replaces).
    nic_queue_frames: int = 1000

    @classmethod
    def paper_testbed(cls) -> "Platform":
        """The 10-GigE two-node platform of §VI."""
        return cls()


def paper_defaults() -> tuple:
    """(Platform, CostModel) as used by every figure reproduction."""
    return Platform.paper_testbed(), default_cost_model()
