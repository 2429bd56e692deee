"""Address-manipulation helpers.

Address interleaving decisions (which LLC slice and which DRAM channel/bank a
line maps to) are central to load balance, so they live here in one place and
are unit-tested on their own.  All shift/mask amounts are precomputed at
construction because these helpers sit on the simulator's hottest path (every
memory access consults them several times).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ConfigError


def is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Exact integer log2; raises :class:`ConfigError` for non powers of two."""

    if not is_power_of_two(value):
        raise ConfigError(f"{value} is not a power of two")
    return value.bit_length() - 1


@dataclass(frozen=True, slots=True)
class AddressMap:
    """Line-interleaved mapping of physical addresses to LLC slices.

    The paper slices the L2 across the cache-set dimension; consecutive cache
    lines therefore round-robin across slices, which is what line interleaving
    produces.
    """

    line_size: int
    num_slices: int
    _line_shift: int = field(init=False, repr=False, compare=False)
    _slice_shift: int = field(init=False, repr=False, compare=False)
    _slice_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_size):
            raise ConfigError(f"line_size must be a power of two, got {self.line_size}")
        if not is_power_of_two(self.num_slices):
            raise ConfigError(f"num_slices must be a power of two, got {self.num_slices}")
        object.__setattr__(self, "_line_shift", log2_int(self.line_size))
        object.__setattr__(self, "_slice_shift", log2_int(self.num_slices))
        object.__setattr__(self, "_slice_mask", self.num_slices - 1)

    def line_addr(self, addr: int) -> int:
        return (addr >> self._line_shift) << self._line_shift

    def slice_of(self, addr: int) -> int:
        """Slice index for a byte address (line interleaved)."""

        return (addr >> self._line_shift) & self._slice_mask

    def set_index(self, addr: int, sets_per_slice: int) -> int:
        """Cache-set index within the slice that owns ``addr``."""

        if not is_power_of_two(sets_per_slice):
            raise ConfigError(
                f"sets_per_slice must be a power of two, got {sets_per_slice}"
            )
        return ((addr >> self._line_shift) >> self._slice_shift) & (sets_per_slice - 1)

    def set_index_fn(self, sets_per_slice: int) -> Callable[[int], int]:
        """Return a fast closure computing :meth:`set_index` for a fixed set count."""

        if not is_power_of_two(sets_per_slice):
            raise ConfigError(
                f"sets_per_slice must be a power of two, got {sets_per_slice}"
            )
        shift = self._line_shift + self._slice_shift
        mask = sets_per_slice - 1
        return lambda addr: (addr >> shift) & mask


@dataclass(frozen=True, slots=True)
class DramAddressMap:
    """Interleaving of line addresses over DRAM channels / ranks / banks / rows.

    The layout is channel-interleaved at line granularity (standard for
    bandwidth-bound accelerators), then bank, then rank, with the remaining
    bits forming the row.  Row size in lines is ``row_bytes / line_size``.
    """

    line_size: int
    num_channels: int
    num_ranks: int
    num_banks: int
    row_bytes: int
    _line_shift: int = field(init=False, repr=False, compare=False)
    _channel_mask: int = field(init=False, repr=False, compare=False)
    _channel_shift: int = field(init=False, repr=False, compare=False)
    _row_shift: int = field(init=False, repr=False, compare=False)
    _bank_mask: int = field(init=False, repr=False, compare=False)
    _bank_shift: int = field(init=False, repr=False, compare=False)
    _rank_mask: int = field(init=False, repr=False, compare=False)
    _rank_shift: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("line_size", "num_channels", "num_ranks", "num_banks", "row_bytes"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigError(f"{name} must be a power of two, got {value}")
        if self.row_bytes < self.line_size:
            raise ConfigError("row_bytes must be at least one cache line")
        line_shift = log2_int(self.line_size)
        channel_shift = log2_int(self.num_channels)
        lines_per_row = self.row_bytes // self.line_size
        row_shift = log2_int(lines_per_row)
        bank_shift = log2_int(self.num_banks)
        rank_shift = log2_int(self.num_ranks)
        object.__setattr__(self, "_line_shift", line_shift)
        object.__setattr__(self, "_channel_mask", self.num_channels - 1)
        object.__setattr__(self, "_channel_shift", channel_shift)
        object.__setattr__(self, "_row_shift", row_shift)
        object.__setattr__(self, "_bank_mask", self.num_banks - 1)
        object.__setattr__(self, "_bank_shift", bank_shift)
        object.__setattr__(self, "_rank_mask", self.num_ranks - 1)
        object.__setattr__(self, "_rank_shift", rank_shift)

    def decompose(self, addr: int) -> tuple[int, int, int, int]:
        """Return (channel, rank, bank, row) for a byte address."""

        line = addr >> self._line_shift
        channel = line & self._channel_mask
        line >>= self._channel_shift
        # Lines of the same row stay together within a bank so that streaming
        # accesses produce row-buffer hits.
        line >>= self._row_shift
        bank = line & self._bank_mask
        line >>= self._bank_shift
        rank = line & self._rank_mask
        row = line >> self._rank_shift
        return channel, rank, bank, row

    def channel_of(self, addr: int) -> int:
        return (addr >> self._line_shift) & self._channel_mask
