"""Tests for the OFTest-style switch compliance suite."""

import pytest

from repro.experiments.compliance import (
    ComplianceReport,
    ComplianceRig,
    CheckResult,
    run_compliance_suite,
)


@pytest.fixture(scope="module")
def report():
    return run_compliance_suite()


def test_all_checks_pass(report):
    assert report.all_passed, report.render()


def test_suite_covers_the_expected_areas(report):
    names = " ".join(result.name for result in report.results)
    for area in ("handshake", "echo", "barrier", "config", "miss",
                 "buffering", "forwarding", "priority", "drop rule",
                 "flood", "delete", "timeouts", "stats", "fail-secure",
                 "fail-safe"):
        assert area in names, f"missing coverage area {area!r}"


def test_suite_has_meaningful_size(report):
    assert len(report.results) >= 15
    assert report.passed_count == len(report.results)


def test_render_format(report):
    text = report.render()
    assert text.startswith("switch compliance:")
    assert text.count("[PASS]") == len(report.results)
    assert "[FAIL]" not in text


def test_report_detects_failures():
    failing = ComplianceReport(results=[
        CheckResult("good", True),
        CheckResult("bad", False, "oops"),
    ])
    assert not failing.all_passed
    assert failing.passed_count == 1
    assert "[FAIL] bad — oops" in failing.render()


def test_rig_is_reusable():
    rig = ComplianceRig()
    assert rig.switch.connected
    rig2 = ComplianceRig()
    assert rig2.switch.connected


def test_suite_catches_a_broken_switch(monkeypatch):
    """Break flood semantics and confirm the suite notices."""
    from repro.dataplane.switch import OpenFlowSwitch

    original = OpenFlowSwitch._flood

    def broken_flood(self, in_port, data):
        # Wrong: also sends back out the ingress port.
        for port_no in self.port_numbers():
            self._transmit(port_no, data)

    monkeypatch.setattr(OpenFlowSwitch, "_flood", broken_flood)
    report = run_compliance_suite()
    failed = [result.name for result in report.results if not result.passed]
    assert any("flood" in name for name in failed), failed
    monkeypatch.setattr(OpenFlowSwitch, "_flood", original)
