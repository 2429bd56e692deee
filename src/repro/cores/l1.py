"""Private per-core L1 cache.

Table 5 configures the L1 as a small streaming cache: allocate-on-fill,
write-no-allocate, write-through.  Only reads can hit locally; every write and
every read miss is forwarded to the shared L2.  Lines are installed when the
L2/DRAM response returns (allocate-on-fill).
"""

from __future__ import annotations

from repro.common.address import AddressMap
from repro.common.mathutils import safe_div
from repro.config.system import L1Config
from repro.llc.storage import CacheStorage


class L1Cache:
    """Presence-tracking model of the private L1."""

    def __init__(self, config: L1Config, core_id: int = 0) -> None:
        config.validate()
        self.config = config
        self.core_id = core_id
        # The L1 is private, so its index function simply uses line-granular
        # interleaving over its own sets (num_slices=1).
        self._map = AddressMap(line_size=config.line_size, num_slices=1)
        self.line_shift = (config.line_size - 1).bit_length()
        num_sets = config.num_sets
        #: The set index of a line is ``(addr >> line_shift) & set_mask``; the
        #: core's issue and fill paths compute it inline from these two fields.
        self.set_mask = num_sets - 1
        self.storage = CacheStorage(
            num_sets=num_sets,
            associativity=config.associativity,
            index_fn=self._map.set_index_fn(num_sets),
        )
        self.read_hits = 0
        self.read_misses = 0
        self.writes = 0

    def line_addr(self, addr: int) -> int:
        return (addr >> self.line_shift) << self.line_shift

    def access_read(self, addr: int) -> bool:
        """Probe for a read; True on hit (the access completes locally)."""

        hit = self.storage.lookup(self.line_addr(addr))
        if hit:
            self.read_hits += 1
        else:
            self.read_misses += 1
        return hit

    def access_write(self, addr: int) -> None:
        """Writes are write-through / write-no-allocate: always forwarded to L2."""

        self.writes += 1
        line = self.line_addr(addr)
        # If the line happens to be present, keep it coherent (it stays clean
        # locally because the write is propagated immediately).
        self.storage.lookup(line)

    def fill(self, line_addr: int) -> None:
        """Install a line when its response returns (allocate-on-fill)."""

        self.storage.fill(line_addr, dirty=False)

    @property
    def hit_rate(self) -> float:
        return safe_div(self.read_hits, self.read_hits + self.read_misses)
