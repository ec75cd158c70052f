"""Tests for boot metrics and table formatting."""

import pytest

from repro.analysis.metrics import BootReport, StageBreakdown, speedup
from repro.analysis.report import ComparisonTable, format_table
from repro.errors import AnalysisError
from repro.kernel.sequence import KernelBootTimings
from repro.quantities import msec, sec


def make_report(**overrides):
    defaults = dict(
        workload="test", features=[],
        stages=StageBreakdown(kernel_ns=msec(698), init_init_ns=msec(195),
                              services_ns=msec(7207)),
        boot_complete_ns=msec(8100), all_done_ns=msec(9000),
        kernel_timings=KernelBootTimings(bootloader_ns=msec(135),
                                         meminit_ns=msec(370), core_ns=msec(83),
                                         initcalls_ns=0, rootfs_ns=msec(110)),
        unit_ready_ns={"fasttv.service": msec(8100)},
    )
    defaults.update(overrides)
    return BootReport(**defaults)


def test_stage_total():
    stages = StageBreakdown(kernel_ns=1, init_init_ns=2, services_ns=3)
    assert stages.total_ns == 6


def test_boot_complete_ms():
    assert make_report().boot_complete_ms == pytest.approx(8100.0)


def test_ready_ns_lookup_and_error():
    report = make_report()
    assert report.ready_ns("fasttv.service") == msec(8100)
    with pytest.raises(AnalysisError, match="never became ready"):
        report.ready_ns("ghost.service")


def test_speedup_matches_paper_quote():
    """8.1 s -> 3.5 s is a ~57 % reduction."""
    assert speedup(sec(8.1), sec(3.5)) == pytest.approx(0.568, abs=0.001)


def test_speedup_requires_positive_baseline():
    with pytest.raises(AnalysisError):
        speedup(0, 100)


def test_format_table_aligns_columns():
    text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert len(lines) == 4
    assert "long-name" in lines[3]


def test_comparison_table_render_and_saving():
    table = ComparisonTable(title="Fig6")
    table.add("kernel init", msec(698), msec(403))
    table.add("init init", msec(195), msec(71))
    assert table.rows[0] == ("kernel init", msec(698), msec(403))
    text = table.render()
    assert "Fig6" in text
    assert "698.0 ms" in text
    assert "403.0 ms" in text
    assert "295.0 ms" in text


def test_comparison_table_negative_saving_rendered():
    table = ComparisonTable(title="t")
    table.add("regression", msec(100), msec(130))
    assert "-30.0 ms" in table.render()
