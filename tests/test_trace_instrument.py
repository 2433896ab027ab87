"""Tests for the instrumentation layer (Pin substitute)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace.costmodel import KERNEL_COSTS, kernel_cost
from repro.trace.instruction import InstrClass, InstructionCounts
from repro.trace.instrument import Instrumenter, site_pc


class TestInstructionCounts:
    def test_add_and_total(self):
        counts = InstructionCounts()
        counts.add(InstrClass.LOAD, 10)
        counts.add(InstrClass.AVX, 30)
        assert counts.total == 40
        assert counts.fraction(InstrClass.AVX) == pytest.approx(0.75)

    def test_empty_fraction(self):
        assert InstructionCounts().fraction(InstrClass.LOAD) == 0.0

    def test_mix_percent_sums_to_100(self):
        counts = InstructionCounts()
        for i, cls in enumerate(InstrClass, start=1):
            counts.add(cls, float(i))
        assert sum(counts.mix_percent().values()) == pytest.approx(100.0)

    def test_merge(self):
        a, b = InstructionCounts(), InstructionCounts()
        a.add(InstrClass.LOAD, 5)
        b.add(InstrClass.LOAD, 7)
        a.merge(b)
        assert a.counts[InstrClass.LOAD] == 12

    def test_scaled(self):
        counts = InstructionCounts()
        counts.add(InstrClass.STORE, 4)
        assert counts.scaled(2.5).counts[InstrClass.STORE] == 10


class TestCostModel:
    def test_all_kernels_have_positive_cost(self):
        for cost in KERNEL_COSTS.values():
            assert cost.per_unit_total > 0

    def test_unknown_kernel_raises(self):
        with pytest.raises(TraceError):
            kernel_cost("matrix_multiply")

    def test_charge_accumulates(self):
        counts = InstructionCounts()
        charged = kernel_cost("sad").charge(counts, 100)
        assert charged == pytest.approx(counts.total)

    def test_pixel_kernels_avx_heavy(self):
        """SIMD kernels must be AVX-heavy (paper: SVT-AV1 is well
        vectorised) — AVX in the top two classes of every pixel kernel."""
        for name in ("sad", "satd", "fdct", "mc_interp"):
            mix = kernel_cost(name).mix
            top_two = sorted(mix.values(), reverse=True)[:2]
            assert mix[InstrClass.AVX] in top_two

    def test_entropy_kernel_branchy_and_scalar(self):
        mix = kernel_cost("entropy_bin").mix
        assert mix.get(InstrClass.AVX, 0.0) == 0.0
        assert mix[InstrClass.BRANCH] > 0.3


class TestInstrumenter:
    def test_kernel_charging(self):
        inst = Instrumenter()
        inst.kernel("sad", 64)
        assert inst.total_instructions > 0

    def test_negative_units_rejected(self):
        with pytest.raises(TraceError):
            Instrumenter().kernel("sad", -1)

    def test_branch_recording(self):
        inst = Instrumenter()
        pc = inst.site("test.branch")
        inst.branch(pc, True)
        inst.branch(pc, False)
        pcs, taken = inst.branch_arrays()
        assert list(pcs) == [pc, pc]
        assert list(taken) == [1, 0]
        assert inst.decision_branches == 2
        assert inst.decision_taken == 1

    def test_branch_recording_disabled_still_counts(self):
        inst = Instrumenter(record_branches=False)
        inst.branch(inst.site("x.y"), True)
        assert inst.decision_branches == 1
        assert len(inst.branch_arrays()[0]) == 0

    def test_loop_summaries_merge_same_site(self):
        inst = Instrumenter()
        pc = inst.site("k.loop")
        inst.loop(pc, trip_count=16, invocations=3)
        inst.loop(pc, trip_count=16, invocations=2)
        summaries = inst.loop_summaries
        assert len(summaries) == 1
        assert summaries[0].invocations == 5
        assert inst.loop_branch_instructions == 16 * 5

    def test_loop_validation(self):
        inst = Instrumenter()
        with pytest.raises(TraceError):
            inst.loop(1, trip_count=0, invocations=1)

    def test_touch_records_and_scales(self):
        inst = Instrumenter()
        plane = inst.register_plane(proxy_width=64, scale_h=4.0, scale_w=4.0)
        inst.touch(plane, row=2, rows=8, col=0, cols=8, write=False)
        base, rows, row_bytes, pitch, write, repeats = inst.touch_arrays()
        assert len(base) == 1
        assert rows[0] == 32  # 8 proxy rows * scale 4
        assert row_bytes[0] == 32
        assert base[0] == plane.base + 8 * plane.pitch
        assert pitch[0] == plane.pitch
        assert write[0] == 0 and repeats[0] == 1
        assert inst.bytes_read == 32 * 32

    def test_touch_write_accounting(self):
        inst = Instrumenter()
        plane = inst.register_plane(proxy_width=64)
        inst.touch(plane, 0, 4, 0, 4, write=True)
        assert inst.bytes_written == 16
        assert inst.bytes_read == 0

    def test_touch_rejects_empty_extent(self):
        inst = Instrumenter()
        plane = inst.register_plane(proxy_width=64)
        with pytest.raises(TraceError):
            inst.touch(plane, 0, 0, 0, 4)

    def test_plane_addresses_disjoint(self):
        inst = Instrumenter()
        a = inst.register_plane(proxy_width=128, scale_h=2, scale_w=2)
        b = inst.register_plane(proxy_width=128, scale_h=2, scale_w=2)
        assert b.base >= a.base + a.pitch  # at least one row apart

    def test_function_profile(self):
        inst = Instrumenter()
        with inst.function("motion_search"):
            inst.kernel("sad", 100)
        with inst.function("motion_search"):
            inst.kernel("sad", 50)
        prof = inst.functions["motion_search"]
        assert prof.calls == 2
        assert prof.instructions == pytest.approx(
            kernel_cost("sad").per_unit_total * 150
        )

    def test_merge_combines_everything(self):
        a, b = Instrumenter(), Instrumenter()
        pc = a.site("m.b")
        a.branch(pc, True)
        b.branch(pc, False)
        b.kernel("sad", 10)
        plane = b.register_plane(proxy_width=32)
        b.touch(plane, 0, 2, 0, 2)
        b.loop(pc, 8, 2)
        with b.function("f"):
            b.kernel("quant", 5)
        a.merge(b)
        assert a.decision_branches == 2
        assert len(a.branch_arrays()[0]) == 2
        assert len(a.touch_arrays()[0]) == 1
        assert a.loop_summaries[0].invocations == 2
        assert a.functions["f"].calls == 1


class TestSitePc:
    def test_stable(self):
        assert site_pc("av1.partition.split") == site_pc("av1.partition.split")

    def test_distinct_sites_distinct_pcs(self):
        names = [f"mod.func.site{i}" for i in range(50)]
        assert len({site_pc(n) for n in names}) == 50

    def test_same_function_prefix_clusters(self):
        a = site_pc("av1.partition.split")
        b = site_pc("av1.partition.none")
        assert (a & ~0xFFF) == (b & ~0xFFF)

    @given(st.text(min_size=1, max_size=40))
    @settings(max_examples=30)
    def test_within_48_bits(self, name):
        assert 0 <= site_pc(name) < 2**48
