import pytest
from hypothesis import Phase, settings

from fattree_design import SwitchConfig
from fattree_design.estimator import single_model_catalog

# tools/mutants.py only needs a guarding test to fail, not a minimal failing example
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))


def make_switch(ports, cost, *, source_id=None, power=0.0, rack_units=1, weight=0.0,
                expandable_ports=0, configured_line_cards=None):
    return SwitchConfig(
        source_id=source_id or f"sw{ports}",
        ports=ports,
        cost=cost,
        power=power,
        rack_units=rack_units,
        weight=weight,
        expandable_ports=expandable_ports,
        configured_line_cards=configured_line_cards,
    )


@pytest.fixture
def ft36():
    """The 36-port commodity switch used throughout the worked examples."""
    return make_switch(36, 1_100_000, source_id="ft36", power=152, rack_units=1, weight=8.2)


@pytest.fixture
def ft36_catalog(ft36):
    return single_model_catalog(ft36)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed"):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance" not in report.nodeid:
                continue
            name = report.nodeid.split("::")[-1]
            lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for name, verdict in sorted(lines):
        terminalreporter.write_line(f"{verdict}  {name}")
