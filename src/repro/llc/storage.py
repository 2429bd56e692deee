"""Set-associative cache storage with LRU replacement.

Used both for the shared L2 slices and for the private L1s.  The storage only
tracks presence and dirtiness of lines (no data values -- the simulator is a
timing model), so a set is an ordered dict from line address to a dirty flag,
ordered by recency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigError


@dataclass(frozen=True, slots=True)
class EvictedLine:
    """A line displaced by a fill."""

    line_addr: int
    dirty: bool


class CacheStorage:
    """Presence/dirtiness tracking for a set-associative cache."""

    __slots__ = (
        "num_sets",
        "associativity",
        "_index_fn",
        "sets",
        "fills",
        "evictions",
        "dirty_evictions",
    )

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        index_fn: Callable[[int], int],
    ) -> None:
        if num_sets <= 0 or associativity <= 0:
            raise ConfigError("num_sets and associativity must be positive")
        self.num_sets = num_sets
        self.associativity = associativity
        self._index_fn = index_fn
        #: One recency-ordered dict per set.  Public so that the core's L1 probe
        #: can index it without a method call (see ``VectorCore.tick``).
        self.sets: list[OrderedDict[int, bool]] = [OrderedDict() for _ in range(num_sets)]
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0

    # -- lookup -------------------------------------------------------------------------
    def _set_for(self, line_addr: int) -> OrderedDict[int, bool]:
        index = self._index_fn(line_addr)
        if not 0 <= index < self.num_sets:
            raise self.range_error(index)
        return self.sets[index]

    def range_error(self, index: int) -> ConfigError:
        return ConfigError(f"index function returned {index}, outside [0, {self.num_sets})")

    def lookup(self, line_addr: int, update_lru: bool = True) -> bool:
        """True when ``line_addr`` is present; optionally refresh its recency."""

        # ``_set_for`` inlined: every L1 probe and LLC lookup comes through here.
        index = self._index_fn(line_addr)
        if not 0 <= index < self.num_sets:
            raise self.range_error(index)
        cache_set = self.sets[index]
        if line_addr not in cache_set:
            return False
        if update_lru:
            cache_set.move_to_end(line_addr)
        return True

    def contains(self, line_addr: int) -> bool:
        return self.lookup(line_addr, update_lru=False)

    def is_dirty(self, line_addr: int) -> bool:
        cache_set = self._set_for(line_addr)
        return cache_set.get(line_addr, False)

    # -- mutation -------------------------------------------------------------------------
    def fill(self, line_addr: int, dirty: bool = False) -> EvictedLine | None:
        """Install a line (allocate-on-fill); return the victim if one was evicted."""

        index = self._index_fn(line_addr)  # ``_set_for`` inlined, as in ``lookup``
        if not 0 <= index < self.num_sets:
            raise self.range_error(index)
        cache_set = self.sets[index]
        victim: EvictedLine | None = None
        if line_addr in cache_set:
            # Refill of a present line: merge dirtiness, refresh recency.
            cache_set[line_addr] = cache_set[line_addr] or dirty
            cache_set.move_to_end(line_addr)
            return None
        if len(cache_set) >= self.associativity:
            victim_addr, victim_dirty = cache_set.popitem(last=False)
            victim = EvictedLine(victim_addr, victim_dirty)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
        cache_set[line_addr] = dirty
        self.fills += 1
        return victim

    def mark_dirty(self, line_addr: int) -> bool:
        """Mark a present line dirty; returns False when the line is absent."""

        cache_set = self._set_for(line_addr)
        if line_addr not in cache_set:
            return False
        cache_set[line_addr] = True
        cache_set.move_to_end(line_addr)
        return True

    # -- inspection -------------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self.sets)

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.associativity

    def resident_lines(self) -> list[int]:
        lines: list[int] = []
        for s in self.sets:
            lines.extend(s.keys())
        return lines
