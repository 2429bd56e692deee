"""Differential test: the next-event DRAM gate against a DRAM ticked on every cycle.

``SimulatedSystem.step`` calls :meth:`DramSystem.tick` only from
``next_active_cycle`` on, and that tick advances only the channels that can
act.  That is only right because a channel's tick does nothing unless an
in-flight access completes or a queued access has room in the pipeline.  The
reference keeps the old loop as the oracle: every channel with work ticks on
every cycle.  Seeded random enqueue sequences must give the same completions
on the same cycles, and the same accept/reject sequence, through both.
"""

from __future__ import annotations

import pytest

from repro.common.rng import make_rng
from repro.config.system import DramConfig
from repro.dram.system import DramSystem


def tick_every_channel(dram: DramSystem, cycle: int) -> list:
    """The reference: every channel with work ticks on every cycle."""

    completed = []
    for channel in dram.channels:
        if channel.has_work:
            completed.extend(channel.tick(cycle))
    return completed


def tick_gated(dram: DramSystem, cycle: int) -> list:
    """The engine's loop: tick only from the next-event cycle on."""

    if cycle < dram.next_active_cycle:
        return []
    return dram.tick(cycle)


def _random_enqueues(rng, cycles: int, num_lines: int):
    """Per cycle, a burst of (line_addr, is_write): bursts and quiet stretches."""

    enqueues = []
    for _ in range(cycles):
        burst = int(rng.choice((1, 1, 2, 4, 8))) if rng.random() < 0.25 else 0
        enqueues.append([
            (int(rng.integers(num_lines)) * 64, bool(rng.random() < 0.3))
            for _ in range(burst)
        ])
    return enqueues


def _drive(tick, config: DramConfig, enqueues):
    """Run ``enqueues`` through a fresh DRAM; return completions, accepts, the
    cycles on which a channel held queued accesses behind a full pipeline, and
    the DRAM's statistics."""

    dram = DramSystem(config, core_frequency_ghz=1.96)
    completions: list[tuple[int, int, int, bool]] = []
    accepted: list[bool] = []
    pipeline_full = 0
    payload = 0
    cycle = 0
    while cycle < len(enqueues) or dram.has_work():
        # As in ``SimulatedSystem.step``: DRAM ticks before the slices enqueue.
        for done, line_addr, is_write in tick(dram, cycle):
            completions.append((cycle, done, line_addr, is_write))
        for line_addr, is_write in enqueues[cycle] if cycle < len(enqueues) else ():
            accepted.append(dram.enqueue(line_addr, is_write, payload, cycle))
            payload += 1
        pipeline_full += any(
            channel.queue and len(channel.in_flight) >= channel.pipeline_depth
            for channel in dram.channels
        )
        cycle += 1
        assert cycle < 100_000, "DRAM did not drain"
    return completions, accepted, pipeline_full, dram.stats()


@pytest.mark.parametrize("num_channels", [1, 2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_gated_dram_matches_every_cycle_reference(seed, num_channels):
    rng = make_rng(seed)
    config = DramConfig(num_channels=num_channels, queue_depth=int(rng.choice((1, 2, 4))))
    # Two rows per bank (32 lines a row, 64 banks a channel), so row hits,
    # misses and conflicts all occur.
    enqueues = _random_enqueues(rng, 400, num_lines=num_channels * 32 * 64 * 2)

    got, got_accepted, _, got_stats = _drive(tick_gated, config, enqueues)
    want, want_accepted, pipeline_full, want_stats = _drive(
        tick_every_channel, config, enqueues
    )

    assert got_accepted == want_accepted
    assert got == want
    assert got_stats == want_stats
    # The corpus exercises rejections on a full queue, reads and writes, a
    # full pipeline with accesses waiting behind it, every row-buffer outcome
    # and every channel.
    assert not all(want_accepted) and sum(want_accepted) > 20
    assert {is_write for *_, is_write in want} == {False, True}
    assert pipeline_full > 0
    assert min(want_stats.row_hits, want_stats.row_misses, want_stats.row_conflicts) > 0
    channel_of = DramSystem(config, core_frequency_ghz=1.96).address_map.channel_of
    assert {channel_of(line_addr) for _, _, line_addr, _ in want} == set(range(num_channels))


def test_gate_skips_cycles_on_which_no_channel_can_act():
    dram = DramSystem(DramConfig(), core_frequency_ghz=1.96)
    assert dram.enqueue(0x1000, False, "p", cycle=5)
    assert dram.next_active_cycle == 6
    assert dram.tick(6) == []  # issues the access
    complete = dram.channels[dram.address_map.channel_of(0x1000)].in_flight[0][0]
    assert dram.next_active_cycle == complete
    assert dram.tick(complete) == [("p", 0x1000, False)]
    assert not dram.has_work()
    assert dram.next_active_cycle > 1 << 40  # nothing left to act on
