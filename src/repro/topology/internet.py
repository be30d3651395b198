"""Internet-like domain topology (paper Section 6.1's CIDR discussion).

Members of an Internet process group are identified by network addresses
whose prefixes reflect location (CIDR allocation).  This module provides:

* :class:`InternetGroup` — synthesizes a realistic address plan: ``sites``
  top-level prefixes, each holding a cluster of hosts with consecutive
  addresses (a site's /16, say).
* :class:`DomainNetwork` — a network model whose loss and latency depend
  on how much address prefix the endpoints share: LAN traffic (same
  subnet) is fast and reliable, intra-site traffic moderate, and WAN
  traffic slow and lossy — the regime where a CIDR-aware grid-box hash
  pays off by confining early protocol phases to sites.
"""

from __future__ import annotations

import numpy as np

from repro.sim.network import Network

__all__ = ["InternetGroup", "DomainNetwork"]


class InternetGroup:
    """A synthetic CIDR address plan: ``sites`` clusters of hosts.

    Addresses are ``bits`` wide; each site occupies one top-level block
    (the address space divided evenly), and its hosts sit at consecutive
    addresses from the block's base — mirroring how an organisation
    numbers hosts inside its allocation.
    """

    def __init__(
        self,
        sites: int,
        hosts_per_site: int,
        bits: int = 32,
        rng: np.random.Generator | None = None,
    ):
        if sites < 1 or hosts_per_site < 1:
            raise ValueError("need at least one site and one host per site")
        block = (1 << bits) // sites
        if hosts_per_site > block:
            raise ValueError("site blocks too small for the host count")
        self.bits = bits
        self.sites = sites
        self.hosts_per_site = hosts_per_site
        self.addresses: list[int] = []
        self._site_of: dict[int, int] = {}
        for site in range(sites):
            base = site * block
            for host in range(hosts_per_site):
                address = base + host
                self.addresses.append(address)
                self._site_of[address] = site

    def site_of(self, address: int) -> int:
        """Which site an address belongs to."""
        return self._site_of[address]

    def same_subnet(self, a: int, b: int, subnet_bits: int = 8) -> bool:
        """Whether two addresses share all but the low ``subnet_bits``."""
        return (a >> subnet_bits) == (b >> subnet_bits)

    def __len__(self) -> int:
        return len(self.addresses)


class DomainNetwork(Network):
    """Loss/latency by address relationship: LAN < intra-site < WAN."""

    def __init__(
        self,
        group: InternetGroup,
        lan_loss: float = 0.005,
        site_loss: float = 0.02,
        wan_loss: float = 0.15,
        lan_latency: int = 1,
        site_latency: int = 1,
        wan_latency: int = 3,
        subnet_bits: int = 8,
        **kwargs,
    ):
        for name, value in (
            ("lan_loss", lan_loss), ("site_loss", site_loss),
            ("wan_loss", wan_loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        super().__init__(**kwargs)
        self.group = group
        self.lan_loss = lan_loss
        self.site_loss = site_loss
        self.wan_loss = wan_loss
        self.lan_latency = lan_latency
        self.site_latency = site_latency
        self.wan_latency = wan_latency
        self.subnet_bits = subnet_bits
        #: WAN messages observed (for hash-awareness comparisons).
        self.wan_messages = 0

    def _relationships(
        self, src: np.ndarray, dest: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(crosses sites, shares a subnet) per message."""
        site_of = self.group.site_of
        wan = np.array(
            [site_of(a) != site_of(b)
             for a, b in zip(src.tolist(), dest.tolist())],
            dtype=bool,
        )
        lan = ~wan & (
            (src >> self.subnet_bits) == (dest >> self.subnet_bits)
        )
        return wan, lan

    def block_loss(
        self, src: np.ndarray, dest: np.ndarray
    ) -> np.ndarray | float:
        wan, lan = self._relationships(src, dest)
        self.wan_messages += int(wan.sum())
        return np.where(
            wan, self.wan_loss, np.where(lan, self.lan_loss, self.site_loss)
        )

    def block_latency(
        self, src: np.ndarray, dest: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray | int:
        wan, lan = self._relationships(src, dest)
        return np.where(
            wan, self.wan_latency,
            np.where(lan, self.lan_latency, self.site_latency),
        )
