"""Unroll a dataflow mapping into per-thread-block memory traces.

This is the second arrow of the hybrid flow (Fig 6): ``mapping -> memory
trace``.  The generator walks the mapping's thread-block space in dispatch
order; for each thread block it emits

* the query-operand loads (once per block, they stay resident in L1),
* one coalesced KV-row load per reduction step -- split into cache-line
  requests -- interleaved with the vector-MAC compute cycles, and
* the output-line writes at the end of the block.

Memory requests of the 128-lane vector core are coalesced by construction
(consecutive ``d`` elements of one KV row land in the same few cache lines),
which is how the paper reduces request counts by over an order of magnitude
relative to per-thread requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import TraceError
from repro.common.mathutils import ceil_div
from repro.common.types import AccessType, RequestKind, TraceEntry
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.dataflow.constraints import DataflowConstraints
from repro.dataflow.mapper import Mapping, build_mapping
from repro.dataflow.ordering import ThreadBlockOrdering
from repro.trace.threadblock import ThreadBlock, Trace
from repro.workloads.operators import DecodeOperator, make_operator


@dataclass(slots=True)
class TraceGenerator:
    """Configurable trace generator for decode operators."""

    system: SystemConfig
    constraints: DataflowConstraints | None = None
    ordering: ThreadBlockOrdering = ThreadBlockOrdering.GQA_SHARED

    def generate(self, workload: WorkloadConfig) -> Trace:
        operator = make_operator(workload)
        mapping = build_mapping(operator, self.system, self.constraints, self.ordering)
        return unroll_mapping(operator, mapping, self.system, name=workload.name)


def generate_trace(
    workload: WorkloadConfig,
    system: SystemConfig,
    constraints: DataflowConstraints | None = None,
    ordering: ThreadBlockOrdering = ThreadBlockOrdering.GQA_SHARED,
) -> Trace:
    """Convenience wrapper: workload + system -> full operator trace."""

    return TraceGenerator(system, constraints, ordering).generate(workload)


def unroll_mapping(
    operator: DecodeOperator,
    mapping: Mapping,
    system: SystemConfig,
    name: str = "trace",
) -> Trace:
    """Unroll ``mapping`` of ``operator`` into a :class:`Trace`."""

    line = system.l2.line_size
    mac_cycles = system.core.compute_cycles_per_vector_mac
    space = operator.space
    element_bytes = operator.element_bytes

    kv_row_bytes = operator.kv_row_bytes()
    kv_lines_per_row = ceil_div(kv_row_bytes, line)
    query_row_bytes = operator.query_row_bytes()
    query_lines = ceil_div(query_row_bytes, line)
    reduction_extent = space.d if operator.reduction_axis == "d" else space.l
    vector_steps = ceil_div(reduction_extent, mapping.vector_elements)

    inner_extent = operator.output_extent()

    # Every block of a head streams the same KV rows, so each (head, row, MAC
    # cost) gets its entries built once and the blocks share those frozen
    # objects.
    kv_rows: dict[tuple[int, int, int], list[TraceEntry]] = {}
    blocks: list[ThreadBlock] = []
    tb_id = 0
    for h, g, tile in mapping.thread_block_coords():
        inner_start = tile * mapping.inner_tile
        inner_stop = min(inner_start + mapping.inner_tile, inner_extent)
        if inner_start >= inner_stop:
            raise TraceError(
                f"mapping produced an empty tile (tile={tile}, inner_extent={inner_extent})"
            )
        entries: list[TraceEntry] = []

        # -- query operand: loaded once per thread block --------------------------
        qbase = operator.query_row_address(h, g)
        for i in range(query_lines):
            entries.append(
                TraceEntry(
                    compute_cycles=0,
                    addr=qbase + i * line,
                    rw=AccessType.READ,
                    size=min(line, query_row_bytes - i * line),
                    kind=RequestKind.ACTIVATION,
                )
            )

        # -- KV rows + compute ------------------------------------------------------
        if operator.reduction_axis == "d":
            # Logit: one K row per output element of the tile.
            rows = range(inner_start, inner_stop)
            compute = mac_cycles * vector_steps
        else:
            # Attend: the reduction runs over l, so the block streams all L rows of V
            # while producing `inner_tile` output elements.
            rows = range(space.l)
            compute = mac_cycles * (inner_stop - inner_start)
        for l in rows:
            key = (h, l, compute)
            row = kv_rows.get(key)
            if row is None:
                row_base = operator.kv_row_address(h, l)
                # The MAC cost rides on the first line of the row; the remaining
                # line loads of the same coalesced vector access issue back-to-back.
                row = kv_rows[key] = [
                    TraceEntry(
                        compute_cycles=compute if i == 0 else 0,
                        addr=row_base + i * line,
                        rw=AccessType.READ,
                        size=min(line, kv_row_bytes - i * line),
                        kind=RequestKind.KV,
                    )
                    for i in range(kv_lines_per_row)
                ]
            entries.extend(row)

        # -- output writes ------------------------------------------------------------
        out_bytes = (inner_stop - inner_start) * element_bytes
        out_base = operator.output_address(h, g, inner_start)
        out_lines = ceil_div(out_bytes, line)
        for i in range(out_lines):
            entries.append(
                TraceEntry(
                    compute_cycles=0,
                    addr=out_base + i * line,
                    rw=AccessType.WRITE,
                    size=min(line, out_bytes - i * line),
                    kind=RequestKind.OUTPUT,
                )
            )

        blocks.append(
            ThreadBlock(tb_id=tb_id, h=h, g=g, tile_index=tile, entries=entries)
        )
        tb_id += 1

    return Trace(blocks=blocks, name=name, line_size=line).validate()

