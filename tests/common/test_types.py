"""Unit tests for the request/response value types."""

from repro.common.types import (
    AccessType,
    MemRequest,
    MemResponse,
    RequestKind,
    TraceEntry,
    line_address,
    next_request_id,
)


class TestLineAddress:
    def test_alignment(self):
        assert line_address(0, 64) == 0
        assert line_address(63, 64) == 0
        assert line_address(64, 64) == 64
        assert line_address(130, 64) == 128


class TestMemRequest:
    def test_unique_request_ids(self):
        a = MemRequest(addr=0x100, rw=AccessType.READ, core_id=0)
        b = MemRequest(addr=0x100, rw=AccessType.READ, core_id=0)
        assert a.req_id != b.req_id

    def test_next_request_id_monotonic(self):
        first = next_request_id()
        second = next_request_id()
        assert second > first

    def test_aligned_sets_line_addr(self):
        req = MemRequest(addr=0x1234, rw=AccessType.READ, core_id=1)
        req.aligned(64)
        assert req.line_addr == 0x1200

    def test_read_write_predicates(self):
        read = MemRequest(addr=0, rw=AccessType.READ, core_id=0)
        write = MemRequest(addr=0, rw=AccessType.WRITE, core_id=0)
        assert write.is_write and not read.is_write

    def test_default_kind_is_kv(self):
        req = MemRequest(addr=0, rw=AccessType.READ, core_id=0)
        assert req.kind == RequestKind.KV


class TestTraceEntry:
    def test_compute_only_entry_has_no_access(self):
        entry = TraceEntry(compute_cycles=4, addr=-1)
        assert not entry.has_access

    def test_memory_entry_has_access(self):
        entry = TraceEntry(compute_cycles=0, addr=0x40, rw=AccessType.WRITE)
        assert entry.has_access
        assert entry.rw == AccessType.WRITE


class TestMemResponse:
    def test_fields_round_trip(self):
        resp = MemResponse(
            req_id=7, core_id=3, tb_id=11, line_addr=0x80, rw=AccessType.READ,
            complete_cycle=100, served_by="mshr",
        )
        assert resp.core_id == 3
        assert resp.served_by == "mshr"
