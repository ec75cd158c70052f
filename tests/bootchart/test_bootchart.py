"""Tests for bootchart extraction and rendering."""

import pytest

from repro.bootchart import BootChart, ChartBar, render_ascii, render_svg
from repro.core import BBConfig, BootSimulation
from repro.errors import AnalysisError
from repro.quantities import msec
from repro.workloads import opensource_tv_workload


def make_chart():
    return BootChart([
        ChartBar("a.service", start_ns=0, ready_ns=msec(10), end_ns=msec(10)),
        ChartBar("b.service", start_ns=msec(5), ready_ns=msec(30), end_ns=msec(30)),
        ChartBar("c.service", start_ns=msec(20), ready_ns=msec(25), end_ns=msec(25)),
    ], boot_complete_ns=msec(30))


def test_bars_sorted_by_start():
    chart = make_chart()
    assert [b.name for b in chart.bars] == ["a.service", "b.service", "c.service"]


def test_span_covers_completion():
    assert make_chart().span_ns == msec(30)


def test_bar_lookup():
    chart = make_chart()
    assert chart.bar("b.service").start_ns == msec(5)
    with pytest.raises(AnalysisError):
        chart.bar("ghost.service")


def test_launched_before():
    chart = make_chart()
    assert chart.launched_before(msec(1)) == 1
    assert chart.launched_before(msec(6)) == 2
    assert chart.launched_before(msec(100)) == 3


def test_empty_chart_rejected():
    with pytest.raises(AnalysisError):
        BootChart([])


def test_from_report_covers_transaction():
    report = BootSimulation(opensource_tv_workload(), BBConfig.full()).run()
    chart = BootChart.from_report(report)
    assert chart.bar("fasttv.service").ready_ns == report.boot_complete_ns
    assert chart.launched_before(chart.span_ns) == len(chart.bars)
    assert len(chart.bars) > 100


def test_ascii_render_shape():
    text = render_ascii(make_chart(), width=60)
    lines = text.splitlines()
    assert "#" in text
    assert "boot complete" in text
    assert len(lines) == 2 + 3  # header + marker + three bars
    assert lines[2].startswith("a.service")


def test_ascii_render_row_limit():
    text = render_ascii(make_chart(), max_rows=2)
    assert "1 more services" in text


def test_svg_render_is_wellformed():
    svg = render_svg(make_chart())
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>")
    assert svg.count("<rect") == 3
    assert "boot complete" in svg
