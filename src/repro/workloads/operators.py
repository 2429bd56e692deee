"""Decode-stage operator descriptors.

These classes describe the *iteration space* of an operator and which operand
rows each iteration point touches.  The dataflow mapper tiles this iteration
space into thread blocks and the trace generator walks the tiles to emit memory
accesses; neither of them needs to know which attention operator it is working
on beyond this interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.config.workload import OperatorKind, WorkloadConfig
from repro.workloads.layout import OperatorLayout, build_layout


@dataclass(frozen=True, slots=True)
class IterationSpace:
    """Named loop extents of a decode operator.

    ``h``: KV head group, ``g``: query head within the group, ``l``: sequence
    position, ``d``: head dimension (always the vectorised axis).
    """

    h: int
    g: int
    l: int
    d: int


class DecodeOperator:
    """Base class for decode operators; concrete classes bind tensor roles."""

    #: Name of the reduction axis ("d" for Logit, "l" for Attend).
    reduction_axis: str = "d"

    def __init__(self, workload: WorkloadConfig, base_address: int = 0x1000_0000) -> None:
        self.workload = workload.validate()
        self.layout: OperatorLayout = build_layout(workload, base_address)
        shape = workload.shape
        self.space = IterationSpace(
            h=shape.num_kv_heads, g=shape.group_size, l=shape.seq_len, d=shape.head_dim
        )
        self.element_bytes = workload.element_bytes

    # ---- addresses of whole rows (the coalesced vector-access granularity) -------
    def kv_row_address(self, h: int, l: int) -> int:
        """Byte address of KV row [h, l, 0:D] -- one coalesced vector load."""

        return self.layout.kv.address(h, l, 0)

    def kv_row_bytes(self) -> int:
        return self.space.d * self.element_bytes

    def query_row_address(self, h: int, g: int) -> int:
        """Byte address of the per-(h, g) query-side operand row."""

        return self.layout.query.address(h, g, 0)

    def query_row_bytes(self) -> int:
        raise NotImplementedError

    def output_address(self, h: int, g: int, inner: int) -> int:
        """Byte address of output element (h, g, inner)."""

        return self.layout.output.address(h, g, inner)

    def output_extent(self) -> int:
        """Extent of the output's innermost dimension (per (h, g))."""

        raise NotImplementedError

    def macs_per_output_element(self) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        s = self.space
        return (
            f"{type(self).__name__}(H={s.h}, G={s.g}, L={s.l}, D={s.d}, "
            f"{self.layout.total_bytes / 2**20:.1f} MiB footprint)"
        )


class LogitOperator(DecodeOperator):
    """``AttScore[h, g, l] = sum_d Q[h, g, d] * K[h, l, d]`` (the paper's benchmark).

    Every output element consumes one full K row (D elements); K rows are shared
    by all G query heads of the same group -- the GQA sharing that MSHR merging
    and throttling exploit.
    """

    reduction_axis = "d"

    def __init__(self, workload: WorkloadConfig, base_address: int = 0x1000_0000) -> None:
        if workload.operator != OperatorKind.LOGIT:
            raise ConfigError("LogitOperator requires an OperatorKind.LOGIT workload")
        super().__init__(workload, base_address)

    def query_row_bytes(self) -> int:
        return self.space.d * self.element_bytes

    def output_extent(self) -> int:
        return self.space.l

    def macs_per_output_element(self) -> int:
        return self.space.d


class AttendOperator(DecodeOperator):
    """``Out[h, g, d] = sum_l AttScore[h, g, l] * V[h, l, d]``.

    Included for completeness (the paper motivates KV-cache traffic generally);
    the reduction runs over ``l`` so every output element touches all L rows of V.
    """

    reduction_axis = "l"

    def __init__(self, workload: WorkloadConfig, base_address: int = 0x1000_0000) -> None:
        if workload.operator != OperatorKind.ATTEND:
            raise ConfigError("AttendOperator requires an OperatorKind.ATTEND workload")
        super().__init__(workload, base_address)

    def query_row_bytes(self) -> int:
        return self.space.l * self.element_bytes

    def output_extent(self) -> int:
        return self.space.d

    def macs_per_output_element(self) -> int:
        return self.space.l


def make_operator(workload: WorkloadConfig, base_address: int = 0x1000_0000) -> DecodeOperator:
    """Instantiate the right operator class for a workload config."""

    if workload.operator == OperatorKind.LOGIT:
        return LogitOperator(workload, base_address)
    if workload.operator == OperatorKind.ATTEND:
        return AttendOperator(workload, base_address)
    raise ConfigError(f"unsupported operator kind {workload.operator}")
