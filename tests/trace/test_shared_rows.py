"""Differential oracle for the shared-row trace generator.

``unroll_mapping`` builds each KV row's entries once per call and lets every
thread block that streams the row share those frozen objects.  The reference
below is the plain unroll loop that builds a fresh entry for every (block,
row, line); the two must agree on every field of every entry.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.common.mathutils import ceil_div
from repro.common.types import AccessType, RequestKind, TraceEntry
from repro.config.presets import llama3_70b_attend, llama3_70b_logit, table5_system
from repro.config.scale import ScaleTier, scale_experiment
from repro.dataflow.constraints import DataflowConstraints
from repro.dataflow.mapper import build_mapping
from repro.dataflow.ordering import ThreadBlockOrdering
from repro.trace.generator import unroll_mapping
from repro.workloads.operators import make_operator

#: Splits Attend's 128 outputs into tiles of 96 and 32, so one KV row is
#: streamed with two MAC costs (96 and 32 cycles) within one head.
UNEVEN_TILES = DataflowConstraints(output_lines_per_block=3)

CASES = [
    (build, tier, ordering, constraints)
    for build in (llama3_70b_logit, llama3_70b_attend)
    for tier in (ScaleTier.SMOKE, ScaleTier.CI)
    for ordering in ThreadBlockOrdering
    for constraints in (None, DataflowConstraints(output_lines_per_block=2), UNEVEN_TILES)
]


def _case_id(case) -> str:
    build, tier, ordering, constraints = case
    lines = "default" if constraints is None else f"lines{constraints.output_lines_per_block}"
    return f"{build.__name__}-{tier.name.lower()}-{ordering.value}-{lines}"


def reference_unroll(operator, mapping, system) -> list[tuple[tuple, list[TraceEntry]]]:
    """One fresh entry per (block, row, line): ``((tb_id, h, g, tile), entries)``."""

    line = system.l2.line_size
    mac_cycles = system.core.compute_cycles_per_vector_mac
    space = operator.space
    kv_row_bytes = operator.kv_row_bytes()
    kv_lines_per_row = ceil_div(kv_row_bytes, line)
    query_row_bytes = operator.query_row_bytes()
    reduction_extent = space.d if operator.reduction_axis == "d" else space.l
    vector_steps = ceil_div(reduction_extent, mapping.vector_elements)
    inner_extent = operator.output_extent()

    blocks = []
    for tb_id, (h, g, tile) in enumerate(mapping.thread_block_coords()):
        inner_start = tile * mapping.inner_tile
        inner_stop = min(inner_start + mapping.inner_tile, inner_extent)
        entries = []
        qbase = operator.query_row_address(h, g)
        for i in range(ceil_div(query_row_bytes, line)):
            entries.append(TraceEntry(
                0, qbase + i * line, AccessType.READ,
                min(line, query_row_bytes - i * line), RequestKind.ACTIVATION,
            ))
        if operator.reduction_axis == "d":
            rows, row_compute = range(inner_start, inner_stop), mac_cycles * vector_steps
        else:
            rows, row_compute = range(space.l), mac_cycles * (inner_stop - inner_start)
        for l in rows:
            row_base = operator.kv_row_address(h, l)
            for i in range(kv_lines_per_row):
                entries.append(TraceEntry(
                    row_compute if i == 0 else 0, row_base + i * line, AccessType.READ,
                    min(line, kv_row_bytes - i * line), RequestKind.KV,
                ))
        out_bytes = (inner_stop - inner_start) * operator.element_bytes
        out_base = operator.output_address(h, g, inner_start)
        for i in range(ceil_div(out_bytes, line)):
            entries.append(TraceEntry(
                0, out_base + i * line, AccessType.WRITE,
                min(line, out_bytes - i * line), RequestKind.OUTPUT,
            ))
        blocks.append(((tb_id, h, g, tile), entries))
    return blocks


def _fields(entry: TraceEntry) -> tuple:
    return (entry.compute_cycles, entry.addr, entry.rw, entry.size, entry.kind)


def _unroll_both(build, tier, ordering, constraints):
    system, workload = scale_experiment(table5_system(), build(4096), tier)
    operator = make_operator(workload)
    mapping = build_mapping(operator, system, constraints, ordering)
    return unroll_mapping(operator, mapping, system), reference_unroll(operator, mapping, system)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_every_entry_matches_the_per_entry_reference(case):
    trace, reference = _unroll_both(*case)
    assert len(trace) == len(reference)
    for block, (coords, entries) in zip(trace, reference):
        assert (block.tb_id, block.h, block.g, block.tile_index) == coords
        assert [_fields(e) for e in block.entries] == [_fields(e) for e in entries]


def _kv_entries(block) -> list[TraceEntry]:
    return [e for e in block.entries if e.kind == RequestKind.KV]


@pytest.mark.parametrize("ordering", list(ThreadBlockOrdering), ids=lambda o: o.value)
@pytest.mark.parametrize("build", [llama3_70b_logit, llama3_70b_attend], ids=lambda b: b.__name__)
def test_blocks_of_one_head_share_row_objects(build, ordering):
    trace, _ = _unroll_both(build, ScaleTier.SMOKE, ordering, UNEVEN_TILES)
    first: dict[tuple[int, int], list[TraceEntry]] = {}
    shared = 0
    for block in trace:
        kv = _kv_entries(block)
        owner = first.setdefault((block.h, block.tile_index), kv)
        if owner is not kv:
            assert len(owner) == len(kv)
            assert all(a is b for a, b in zip(owner, kv))
            shared += 1
    assert shared == len(trace) - len(first) > 0
    # Different heads never share a row.
    heads = {block.h: {id(e) for e in _kv_entries(block)} for block in trace}
    assert not heads[0] & heads[1]


def test_attend_tiles_with_different_mac_costs_keep_their_own_rows():
    trace, _ = _unroll_both(llama3_70b_attend, ScaleTier.SMOKE, ThreadBlockOrdering.GQA_SHARED,
                            UNEVEN_TILES)
    head0 = [block for block in trace if block.h == 0]
    costs = {block.tile_index: _kv_entries(block)[0].compute_cycles for block in head0}
    assert sorted(costs.values()) == [32, 96]
    wide, narrow = (
        next(_kv_entries(b) for b in head0 if b.tile_index == tile) for tile in (0, 1)
    )
    assert not any(a is b for a, b in zip(wide, narrow))


def test_shared_entries_cannot_be_mutated():
    trace, _ = _unroll_both(llama3_70b_attend, ScaleTier.SMOKE, ThreadBlockOrdering.GQA_SHARED,
                            None)
    entry = _kv_entries(trace[0])[0]
    with pytest.raises(FrozenInstanceError):
        entry.addr = 0  # type: ignore[misc]
    with pytest.raises(FrozenInstanceError):
        entry.compute_cycles += 1  # type: ignore[misc]
