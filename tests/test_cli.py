import argparse
import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fattree_design.catalog import bundled_catalog_path
from fattree_design.cli import build_parser, run
from fattree_design.designer import DesignRequest, NodeSpec, design, request_from_document
from fattree_design.report import emit_wiring

DEMO = str(bundled_catalog_path("demo_catalog"))
BLADES = str(bundled_catalog_path("blade_cluster"))


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_design_text_report(capsys):
    code, out, err = run_capture(
        capsys, ["design", "--nodes", "60", "--blocking", "1", "--catalog", DEMO]
    )
    assert code == 0
    assert "4x ft36 edge + 2x ft36 core" in out
    assert "bundle width 9, cables 132" in out
    assert "$76,560" in out


def test_design_json_report(capsys):
    code, out, _ = run_capture(
        capsys, ["design", "--nodes", "60", "--catalog", DEMO, "--format", "json"]
    )
    assert code == 0
    document = json.loads(out)
    winner = document["winner"]
    assert winner["edge"]["count"] == 4
    assert winner["core"]["count"] == 2
    assert winner["core"]["bundle_width"] == 9
    assert winner["cable_count"] == 132
    assert document["feasible_candidates"] >= 1


def test_byte_identical_output(capsys):
    argv = ["design", "--nodes", "137", "--blocking", "3/2", "--catalog", DEMO, "--format", "json"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second
    argv = ["sweep", "--from", "37", "--to", "50", "--switch", "ft36", "--catalog", DEMO]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second


def test_insufficient_radix_exits_2(capsys):
    code, _, err = run_capture(capsys, ["design", "--nodes", "2000", "--catalog", DEMO])
    assert code == 2
    assert "insufficient radix" in err


def test_usage_errors_exit_1(capsys, tmp_path):
    code, _, _ = run_capture(capsys, ["design", "--nodes", "60", "--catalog", DEMO, "--bogus"])
    assert code == 1
    code, _, err = run_capture(capsys, ["design", "--nodes", "60", "--catalog", str(tmp_path / "no.json")])
    assert code == 1
    code, _, err = run_capture(
        capsys, ["design", "--nodes", "60", "--blocking", "0.5", "--catalog", DEMO]
    )
    assert code == 1
    assert "decimal" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"currency": "USD", "monolithic": [], "modular": [], "x": 1}')
    code, _, err = run_capture(capsys, ["design", "--nodes", "60", "--catalog", str(bad)])
    assert code == 1


def test_request_document_input(capsys, tmp_path):
    request = tmp_path / "request.json"
    request.write_text(
        json.dumps(
            {
                "nodes": 224,
                "blocking": "1",
                "form_factor": {
                    "kind": "blade",
                    "enclosure_capacity": 16,
                    "enclosure_cost": 750000,
                    "embedded_edge_switch_id": "encl32",
                },
            }
        )
    )
    code, out, _ = run_capture(
        capsys,
        ["design", "--catalog", BLADES, "--request", str(request), "--format", "json"],
    )
    assert code == 0
    winner = json.loads(out)["winner"]
    assert winner["edge"]["count"] == 14
    assert winner["core"]["count"] == 8
    assert winner["metrics"]["cost"]["text"] == "$259,920"


def test_dot_output(capsys, tmp_path, ft36_catalog):
    dot_file = tmp_path / "wiring.dot"
    code, _, _ = run_capture(
        capsys,
        ["design", "--nodes", "60", "--catalog", DEMO, "--dot", str(dot_file)],
    )
    assert code == 0
    text = dot_file.read_text()
    assert text.startswith("graph network {")
    assert text.rstrip().endswith("}")
    assert len(re.findall(r"^  n\d+;$", text, re.M)) == 60
    assert len(re.findall(r"^  edge\d+ \[", text, re.M)) == 4
    assert len(re.findall(r"^  core\d+ \[", text, re.M)) == 2
    bundles = re.findall(r'edge(\d+) -- core(\d+) \[label="(\d+)"', text)
    assert len(bundles) == 8
    assert all(width == "9" for _, _, width in bundles)
    assert "unused ports: 12" in text


def test_unwritable_dot_path_writes_nothing_to_stdout(capsys, tmp_path):
    missing = tmp_path / "missing" / "wiring.dot"
    code, out, err = run_capture(capsys, ["design", "--nodes", "60", "--catalog", DEMO, "--dot", str(missing)])
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1
    assert not missing.parent.exists()


def test_dot_bundle_weights_sum_to_uplinks(ft36_catalog):
    winner = design(DesignRequest(node_count=100), ft36_catalog).winner
    text = emit_wiring(winner)
    per_edge = {}
    for edge_id, _, width in re.findall(r'edge(\d+) -- core(\d+) \[label="(\d+)"', text):
        per_edge[edge_id] = per_edge.get(edge_id, 0) + int(width)
    assert set(per_edge.values()) == {winner.split.ports_to_core}
    # every node attaches to exactly one edge switch
    attachments = re.findall(r"^  n\d+ -- edge\d+;$", text, re.M)
    assert len(attachments) == 100


def test_dot_star(capsys, tmp_path):
    dot_file = tmp_path / "star.dot"
    code, _, _ = run_capture(
        capsys, ["design", "--nodes", "30", "--catalog", DEMO, "--dot", str(dot_file)]
    )
    assert code == 0
    text = dot_file.read_text()
    assert len(re.findall(r"^  edge\d+ \[", text, re.M)) == 1
    assert len(re.findall(r"^  n\d+ -- edge0;$", text, re.M)) == 30
    assert "core" not in text


def test_estimate_subcommand(capsys):
    code, out, _ = run_capture(
        capsys,
        ["estimate", "--nodes", "648", "--switch", "ft36", "--catalog", DEMO, "--format", "json"],
    )
    assert code == 0
    document = json.loads(out)
    assert document["quoted_switch_cost"]["text"] == "$594,864"
    assert document["rack_units"] == "54"
    assert document["exact"] is True
    assert document["bundle_factor"] == 1


def test_sweep_subcommand(capsys):
    code, out, _ = run_capture(
        capsys,
        ["sweep", "--from", "70", "--to", "74", "--switch", "ft36", "--catalog", DEMO,
         "--format", "json"],
    )
    assert code == 0
    document = json.loads(out)
    assert len(document["points"]) == 5
    exact = [p for p in document["points"] if p["exact"]]
    assert [p["nodes"] for p in exact] == [72]
    assert exact[0]["estimate"] == exact[0]["actual"]


def test_place_subcommand(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "place", "--nodes", "396", "--catalog", DEMO,
            "--rows", "2", "--racks-per-row", "7",
            "--dense", "--core-placement", "center", "--reserve", "14",
            "--format", "json",
        ],
    )
    assert code == 0
    document = json.loads(out)
    assert document["racks_used"] == 11
    assert len(document["spread_blocks"]) == 3
    code, out, _ = run_capture(
        capsys,
        ["place", "--nodes", "396", "--catalog", DEMO, "--rows", "1", "--racks-per-row", "3"],
    )
    assert code == 2


def test_place_text_views(capsys):
    code, out, _ = run_capture(
        capsys,
        ["place", "--nodes", "60", "--catalog", DEMO, "--rows", "1", "--racks-per-row", "4"],
    )
    assert code == 0
    assert "row 1:" in out
    assert "rack 01" in out
    assert "block-01 switch (ft36)" in out


def test_expand_subcommand(capsys):
    code, out, _ = run_capture(
        capsys,
        ["expand", "--current-units", "84", "--target-units", "126", "--catalog", DEMO,
         "--format", "json"],
    )
    assert code == 0
    document = json.loads(out)
    assert document["baseline"]["nodes"] == 76
    assert document["baseline_audit"]["total_nodes"] == 108
    assert document["baseline_audit"]["wasted_units"] == 9
    plan = document["expandable_plan"]
    assert plan["target_max_nodes"] == 115
    assert plan["edge_switches"] == 7 and plan["core_switches"] == 4
    initials = {v["name"]: v["phases"][0]["nodes"] for v in plan["variants"]}
    assert initials == {"all_switches_upfront": 73, "core_first": 75}


def test_expand_beyond_the_catalog_reach(capsys):
    # the demo catalog reaches 1,944 nodes, so a room of 10^8 U fits that many and no more
    code, out, err = run_capture(
        capsys,
        ["expand", "--current-units", "100000000", "--target-units", "100000042", "--catalog", DEMO,
         "--format", "json"],
    )
    assert (code, err) == (0, "")
    document = json.loads(out)
    assert document["baseline"]["nodes"] == document["expandable_plan"]["target_max_nodes"] == 1944


@pytest.mark.parametrize(
    "argv, message",
    [
        (["place", "--nodes", "60", "--rows", "2", "--racks-per-row", "5", "--rack-weight-budget", "5"],
         "no rack can hold core switch 1 (1U)"),
        (["place", "--nodes", "2", "--rows", "1", "--racks-per-row", "2",
          "--reserve", "30", "--reserve", "30", "--reserve", "20"],
         "no rack can hold reserved-03 (20U)"),
        (["expand", "--current-units", "10", "--target-units", "30"],
         "expansion planning needs a two-layer design at the target size"),
        (["expand", "--current-units", "3", "--target-units", "100"],
         "expansion audit applies to two-layer designs"),
    ],
    ids=["core-over-weight", "reserve-no-room", "plan-star-target", "audit-star-baseline"],
)
def test_placement_failures_exit_2(capsys, argv, message):
    code, out, err = run_capture(capsys, argv + ["--catalog", DEMO])
    assert (code, out, err) == (2, "", f"placement failed: {message}\n")


def test_embedded_switch_named_by_configuration_id_takes_no_rack_space(capsys, tmp_path):
    # a 3U modular chassis as the enclosure switch: named by its family or by one card count, it sits in the enclosure
    core = {"id": "ft36", "name": "", "ports": 36, "cost": 1100000, "power": 152, "rack_units": 1,
            "weight": 8.2, "roles": ["core"]}
    family = {"id": "emod", "chassis_cost": 500000, "chassis_rack_units": 3, "chassis_power": 50,
              "chassis_weight": 10.0, "fabric_board_cost": 0, "fabric_boards_required": 1,
              "line_card_cost": 100000, "ports_per_line_card": 16, "max_line_cards": 2, "roles": ["edge"]}
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"currency": "USD", "monolithic": [core], "modular": [family]}))
    for embedded, edges in (("emod:32p", "3x emod:32p"), ("emod", "5x emod:16p")):
        argv = ["design", "--nodes", "40", "--blade", "16", "--embedded-switch", embedded, "--catalog", str(catalog)]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert f"winner: fat tree, {edges} edge + 2x ft36 core" in out
        assert "space 2U," in out.splitlines()[4]


# One bad flag each, with the exact line it prints: a flag read through another
# path (the design flags go through the request reader) must word its error the same.
OUT_OF_RANGE_FLAGS = [
    (["expand", "--current-units", "84", "--target-units", "126", "--node-ru", "0"],
     "node rack_units must be at least 1, got 0"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--node-ru", "0"],
     "node rack_units must be at least 1, got 0"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--node-weight", "-1"],
     "node weight must not be negative, got -1"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--node-power", "-1"],
     "node power must not be negative, got -1"),
    (["place", "--nodes", "60", "--rows", "0", "--racks-per-row", "4"],
     "room rows must be at least 1, got 0"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "0"],
     "room racks_per_row must be at least 1, got 0"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--rack-units", "0"],
     "room rack_units_per_rack must be at least 1, got 0"),
    (["design", "--nodes", "60", "--top", "0"],
     "--top must be at least 1, got 0"),
    (["design", "--nodes", "60", "--top", "-2"],
     "--top must be at least 1, got -2"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--rack-weight-budget", "-5"],
     "room rack_weight_budget must not be negative, got -5"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--rack-power-budget", "-5"],
     "room rack_power_budget must not be negative, got -5"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--reserve", "-3"],
     "reserved space must be at least 1U, got -3"),
    (["place", "--nodes", "60", "--rows", "300", "--racks-per-row", "300"],
     "room rows x racks_per_row must be at most 10000 rack positions, got 90000"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "100000000"],
     "room rows x racks_per_row must be at most 10000 rack positions, got 100000000"),
    (["design", "--nodes", "60", "--max-power=nan"],
     "constraint max_network_power must be a finite number, got nan"),
    (["design", "--nodes", "60", "--max-power=inf"],
     "constraint max_network_power must be a finite number, got inf"),
    (["design", "--nodes", "60", "--blade", "0", "--embedded-switch", "ft36"],
     "blade enclosure_capacity must be an integer of at least 1, got 0"),
    (["design", "--nodes", "60", "--blade", "16", "--embedded-switch", "ft36", "--enclosure-cost=-1"],
     "blade enclosure_cost must not be negative, got -100 (minor units)"),
    (["design", "--nodes", "60", "--blade", "16", "--embedded-switch", "ft36", "--pass-through-cost=-1"],
     "blade pass_through_cost must not be negative, got -100 (minor units)"),
    (["design", "--nodes", "60", "--cable-cost", "inf"],
     "invalid money amount: 'inf'"),
    (["design", "--nodes", "60", "--max-cost", "Infinity"],
     "invalid money amount: 'Infinity'"),
    (["design", "--nodes", "60", "--blade", "16", "--embedded-switch", "ft36", "--enclosure-cost", "inf"],
     "invalid money amount: 'inf'"),
    (["design", "--nodes", "60", "--cable-cost", "sNaN"],
     "invalid money amount: 'sNaN'"),
    (["design", "--nodes", "60", "--cable-cost", "1e999999999"],
     "invalid money amount: '1e999999999'"),
    (["design", "--nodes", "60", "--cable-cost", "nan"],
     "invalid money amount: 'nan'"),
    (["estimate", "--nodes", "648", "--switch", "ft36", "--cable-cost=-inf"],
     "invalid money amount: '-inf'"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--node-weight", "nan"],
     "node weight must be a finite number, got nan"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--node-power", "inf"],
     "node power must be a finite number, got inf"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--rack-weight-budget", "nan"],
     "room rack_weight_budget must be a finite number, got nan"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--rack-power-budget", "inf"],
     "room rack_power_budget must be a finite number, got inf"),
    (["design", "--nodes", "1"],
     "node_count must be at least 2"),
    (["design", "--blocking", "2"],
     "either --request or --nodes is required"),
    (["design", "--nodes", "60", "--blocking", "0"],
     "blocking factor must be positive"),
    (["design", "--nodes", "60", "--blocking", "1.5"],
     "decimal ratios are ambiguous, use integers or p/q: '1.5'"),
    (["design", "--nodes", "60", "--blocking", "x"],
     "invalid ratio: 'x'"),
    (["design", "--nodes", "60", "--blade", "16"],
     "--blade requires --embedded-switch"),
    (["design", "--nodes", "60", "--blade", "16", "--embedded-switch", "nope"],
     "embedded edge switch 'nope' not found in the edge set"),
    (["design", "--nodes", "60", "--blade", "16", "--embedded-switch", "ft36", "--pass-through-cost", "1e15"],
     "invalid money amount: '1e15'"),
    (["design", "--nodes", "60", "--max-cost", "0.001"],
     "money amount has sub-cent precision: '0.001'"),
    (["design", "--nodes", "60", "--cable-cost=-80"],
     "avg_cable_cost must not be negative, got -8000 (minor units)"),
    (["estimate", "--nodes", "60", "--switch", "ft36", "--cable-cost=-80"],
     "avg_cable_cost must not be negative, got -8000 (minor units)"),
    (["sweep", "--from", "2", "--to", "4", "--switch", "ft36", "--cable-cost=-80"],
     "avg_cable_cost must not be negative, got -8000 (minor units)"),
    (["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--cable-cost=-80"],
     "avg_cable_cost must not be negative, got -8000 (minor units)"),
    (["expand", "--current-units", "84", "--target-units", "126", "--cable-cost=-80"],
     "avg_cable_cost must not be negative, got -8000 (minor units)"),
    (["expand", "--current-units", "-5", "--target-units", "10"],
     "current capacity must not be negative, got -5U"),
    (["design", "--nodes", "60", "--max-ru", "-1"],
     "constraint max_network_rack_units must not be negative, got -1"),
    (["design", "--nodes", "60", "--min-spare-ports", "-5"],
     "constraint min_spare_core_ports must not be negative, got -5"),
    (["design", "--nodes", "60", "--max-power", "-1"],
     "constraint max_network_power must not be negative, got -1.0"),
    (["design", "--nodes", "60", "--max-cost", "-3"],
     "constraint max_network_cost must not be negative, got -300 (minor units)"),
]


@pytest.mark.parametrize(
    "argv, message", OUT_OF_RANGE_FLAGS, ids=[f"argv{index}" for index in range(len(OUT_OF_RANGE_FLAGS))]
)
def test_out_of_range_flags_exit_1(capsys, argv, message):
    code, out, err = run_capture(capsys, argv + ["--catalog", DEMO])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--max-cost", ""], "error: invalid money amount: ''"),
        (["--blade", "16", "--embedded-switch", "ft36", "--pass-through-cost", ""], "error: invalid money amount: ''"),
        (["--blade", "16", "--embedded-switch", ""], "error: embedded edge switch '' not found in the edge set"),
        (["--request", ""], "error: [Errno 21] "),
        (["--dot", ""], "error: [Errno 2] "),
    ],
    ids=["max-cost", "pass-through-cost", "embedded-switch", "request", "dot"],
)
def test_empty_design_flags_are_not_taken_as_absent(capsys, argv, error):
    code, out, err = run_capture(capsys, ["design", "--nodes", "60", "--catalog", DEMO] + argv)
    assert (code, out) == (1, "")
    assert err.startswith(error) and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,text",
    [
        (["design", "--nodes", "60", "--cable-cost"], "inf"),
        (["design", "--nodes", "60", "--max-cost"], "Infinity"),
        (["design", "--nodes", "60", "--blade", "16", "--embedded-switch", "ft36", "--enclosure-cost"], "inf"),
        (["design", "--nodes", "60", "--cable-cost"], "sNaN"),
        (["design", "--nodes", "60", "--cable-cost"], "1e999999999"),
        (["design", "--nodes", "60", "--cable-cost"], "nan"),
        (["sweep", "--from", "2", "--to", "4", "--switch", "ft36", "--cable-cost"], "1e15"),
    ],
)
def test_non_finite_and_overflowing_money_names_the_amount(capsys, argv, text):
    code, out, err = run_capture(capsys, argv + [text, "--catalog", DEMO])
    assert (code, out, err) == (1, "", f"error: invalid money amount: {text!r}\n")


@pytest.mark.parametrize(
    "document",
    [
        [],
        {"nodes": 60, "constraints": {"max_network_rack_units": "ten"}},
        {"nodes": 60, "constraints": {"min_spare_core_ports": True}},
        {"nodes": 60, "constraints": []},
        {"nodes": 60, "form_factor": "blade"},
        {"nodes": 60, "form_factor": {"kind": "blade", "embedded_edge_switch_id": "ft36"}},
        {"blocking": "1"},
        {"nodes": None},
        {"nodes": 60.7},
        {"nodes": "60"},
        {"nodes": 60, "prefer_expandability": "no"},
        {"nodes": 60, "blockng": "2"},
        {"nodes": 60, "constraints": {"max_network_units": 10}},
        {"nodes": 60, "constraints": {"max_network_power": float("nan")}},
        {"nodes": 60, "form_factor": {"kind": "blade", "enclosure_capacity": 0, "embedded_edge_switch_id": "ft36"}},
        {"nodes": 60, "form_factor": {"kind": "blade", "enclosure_capacity": 16, "enclosure_cost": -1,
                                      "embedded_edge_switch_id": "ft36"}},
        {"nodes": 60, "form_factor": {"kind": "blade", "enclosure_capacity": 16, "pass_through_cost": -1,
                                      "embedded_edge_switch_id": "ft36"}},
        {"nodes": 60, "avg_cable_cost": -1},
    ],
)
def test_bad_request_documents_exit_1(capsys, tmp_path, document):
    request = tmp_path / "request.json"
    request.write_text(json.dumps(document))
    code, out, err = run_capture(capsys, ["design", "--request", str(request), "--catalog", DEMO])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("ports", 36.0, "monolithic/0/ports: 36.0 is not of type 'integer'"),
        ("power", float("nan"), "monolithic/0/power: nan is not a finite number"),
        ("weight", float("-inf"), "monolithic/0/weight: -inf is not a finite number"),
    ],
)
def test_float_integers_and_non_finite_numbers_exit_1(capsys, tmp_path, field, value, message):
    document = json.loads(bundled_catalog_path("demo_catalog").read_text(encoding="utf-8"))
    document["monolithic"][0][field] = value
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(document))
    code, out, err = run_capture(capsys, ["design", "--nodes", "60", "--catalog", str(catalog)])
    assert (code, out) == (1, "")
    assert err == f"error: catalog schema violation at {message}\n"


def test_max_line_cards_above_the_cap_exit_1(capsys, tmp_path):
    document = json.loads(bundled_catalog_path("demo_catalog").read_text(encoding="utf-8"))
    document["modular"][0]["max_line_cards"] = 1025
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(document))
    code, out, err = run_capture(capsys, ["design", "--nodes", "60", "--catalog", str(catalog)])
    assert (code, out) == (1, "")
    message = "modular/0/max_line_cards: 1025 is greater than the maximum of 1024"
    assert err == f"error: catalog schema violation at {message}\n"


def test_modular_family_id_is_not_a_switch(capsys):
    code, out, err = run_capture(capsys, ["estimate", "--nodes", "648", "--switch", "mod108", "--catalog", DEMO])
    assert (code, out) == (1, "")
    configs = ", ".join(f"mod108:{ports}p" for ports in (18, 36, 54, 72, 90, 108))
    assert err == f"error: 'mod108' is a modular family; pick one of {configs}\n"
    code, out, _ = run_capture(capsys, ["estimate", "--nodes", "648", "--switch", "mod108:36p", "--catalog", DEMO])
    assert code == 0 and "on mod108:36p (36 ports)" in out


def test_estimate_and_sweep_accept_an_odd_port_switch(capsys, tmp_path):
    switch = {"id": "odd25", "name": "25-port switch", "ports": 25, "cost": 500000, "power": 100,
              "rack_units": 1, "weight": 5.0, "roles": ["edge", "core"]}
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"currency": "USD", "monolithic": [switch], "modular": []}))
    common = ["--switch", "odd25", "--catalog", str(catalog), "--format", "json"]
    code, out, err = run_capture(capsys, ["estimate", "--nodes", "100", *common])
    assert (code, err) == (0, "")
    estimate = json.loads(out)
    assert (estimate["total_ports"], estimate["exact"], estimate["bundle_factor"]) == (300, False, None)
    code, out, err = run_capture(capsys, ["sweep", "--from", "2", "--to", "40", *common])
    assert (code, err) == (0, "")
    points = json.loads(out)["points"]
    assert [p["nodes"] for p in points] == list(range(2, 41)) and not any(p["exact"] for p in points)


def test_estimate_caps_an_odd_port_switch_at_its_design_reach(capsys, tmp_path):
    # 12 of a 25-port switch's ports face nodes, and a 25-port core reaches 25 edge switches: 300 nodes
    switch = {"id": "odd25", "name": "25-port switch", "ports": 25, "cost": 500000, "power": 100,
              "rack_units": 1, "weight": 5.0, "roles": ["edge", "core"]}
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"currency": "USD", "monolithic": [switch], "modular": []}))
    common = ["--switch", "odd25", "--catalog", str(catalog)]
    code, out, err = run_capture(capsys, ["estimate", "--nodes", "300", *common])
    assert (code, err) == (0, "") and out
    for argv in (["estimate", "--nodes", "301", *common], ["sweep", "--from", "2", "--to", "312", *common]):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "infeasible: insufficient radix: 301 nodes requested but the catalog supports at most 300\n"


def test_top_limits_alternatives(capsys):
    code, out, _ = run_capture(capsys, ["design", "--nodes", "60", "--top", "1", "--catalog", DEMO])
    assert code == 0
    assert "winner: fat tree" in out and "#2:" not in out
    assert "... 8 more feasible candidate(s) not shown" in out
    code, out, _ = run_capture(
        capsys, ["design", "--nodes", "60", "--top", "1", "--catalog", DEMO, "--format", "json"]
    )
    assert len(json.loads(out)["candidates"]) == 1


def test_request_node_footprint_matches_flags(capsys, tmp_path):
    form = {"kind": "rack_mounted", "node_rack_units": 2, "node_power": 350.0, "node_weight": 12.5}
    document = {"nodes": 396, "form_factor": form}
    assert request_from_document(document).form_factor == NodeSpec(rack_units=2, weight=12.5, power=350.0)
    request = tmp_path / "request.json"
    request.write_text(json.dumps(document))
    _, from_document, _ = run_capture(
        capsys, ["design", "--request", str(request), "--catalog", DEMO, "--format", "json"]
    )
    _, from_flags, _ = run_capture(
        capsys, ["design", "--nodes", "396", "--catalog", DEMO, "--format", "json"]
    )
    from_document, from_flags = json.loads(from_document), json.loads(from_flags)
    assert from_document["request"]["form_factor"] == {"kind": "rack_mounted", "node_rack_units": 2}
    for key in ("winner", "candidates", "feasible_candidates"):
        assert from_document[key] == from_flags[key]


# Values for the CLI fuzz: each flag has a pool of good values and a pool of
# bad ones. Flags that set a loop length or an allocation (room sizes, sweep
# ranges, expansion units) never draw a huge value, so one example runs in
# milliseconds, and --dot only ever names a file under tmp_path.
NASTY = ("nan", "inf", "-inf", "sNaN", "Infinity", "-1", "0", "x", "", "1/0", "0.5", "80.253")
ANY = NASTY + ("99999999999999999999", "1e15", "1e308", "1e999", "1e999999999")
MONEY = (("80", "0", "80.25", "99999999999999"), ANY)
REAL = (("0", "12.5", "500"), ANY)
SMALL = (("1", "2", "4"), NASTY)
SWITCH = (("ft36", "encl32", "mod108:36p"), ("mod108", "nope"))
COMMON = {"--catalog": ((DEMO, DEMO, BLADES), NASTY), "--format": (("json", "text"), ("xml",))}
FLAGS = {
    "design": {
        "--nodes": (("2", "60", "224", "1000"), ANY), "--blocking": (("1", "3/2", "2"), ANY),
        "--cable-cost": MONEY, "--blade": (("16", "2"), ANY), "--enclosure-cost": MONEY,
        "--embedded-switch": SWITCH, "--pass-through-cost": MONEY, "--max-ru": (("140", "8"), ANY),
        "--min-spare-ports": (("64", "0"), ANY), "--max-power": REAL, "--max-cost": MONEY,
        "--prefer-expandability": None, "--top": (("1", "5"), ANY),
        "--dot": (("DOT",), ()), "--request": (("REQUEST",), ()),
    },
    "estimate": {"--nodes": (("648", "60"), ANY), "--switch": SWITCH, "--cable-cost": MONEY, "--blade": None},
    "sweep": {"--from": (("2", "37"), NASTY), "--to": (("4", "40"), NASTY), "--switch": SWITCH, "--cable-cost": MONEY},
    "place": {
        "--nodes": (("60", "200"), ANY), "--blocking": (("1", "3/2"), ANY), "--cable-cost": MONEY,
        "--rows": SMALL, "--racks-per-row": SMALL, "--rack-units": (("42", "48"), NASTY),
        "--rack-weight-budget": REAL, "--rack-power-budget": REAL, "--node-ru": SMALL,
        "--node-weight": REAL, "--node-power": REAL, "--dense": None,
        "--core-placement": (("first_racks_contiguous", "center", "distributed"), ("edge",)),
        "--reserve": (("4", "14"), ("45", *NASTY)),
    },
    "expand": {
        "--current-units": (("42", "84"), NASTY), "--target-units": (("84", "126"), NASTY),
        "--blocking": (("1", "2"), NASTY), "--cable-cost": MONEY, "--node-ru": SMALL,
    },
}
REQUEST_DOCUMENTS = (
    '{"nodes": 60}', '{"nodes": 60, "avg_cable_cost": NaN}', '{"nodes": 60, "constraints": {"max_network_power": Infinity}}',
    '{"nodes": 60, "form_factor": {"node_weight": NaN}}', '[]', '{"nodes": ', '',
)


SUBPARSERS = next(
    action.choices for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
)


@st.composite
def argvs(draw):
    """An argv for one subcommand, with its required flags and any optional ones, plus a request document."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = dict(COMMON, **FLAGS[command])
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=7, unique=True))
    required = {action.option_strings[0] for action in SUBPARSERS[command]._actions if action.required}
    required |= {"--nodes"} & set(flags)  # design needs it too, unless a request document replaces the flags
    chosen += sorted(required - set(chosen))
    argv = [command]
    for flag in chosen:
        if flags[flag] is None:
            argv.append(flag)
            continue
        good, bad = flags[flag]
        pool = bad if bad and draw(st.integers(0, 5)) == 5 else good
        argv.append(f"{flag}={draw(st.sampled_from(pool))}")
    return argv, draw(st.sampled_from(REQUEST_DOCUMENTS))


def no_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=argvs())
def test_cli_fuzz_never_raises(tmp_path, case):
    argv, document = case
    request = tmp_path / "request.json"
    request.write_text(document, encoding="utf-8")
    dot = tmp_path / "wiring.dot"
    argv = [arg.replace("=DOT", f"={dot}").replace("=REQUEST", f"={request}") for arg in argv]
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            parsed = False
        else:
            parsed = True
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if not parsed:
        assert code == 1
    elif code == 0:
        assert err == ""
        if "--format=json" in argv:
            json.loads(out, parse_constant=no_constant)
    else:
        prefix = "error: " if code == 1 else ("infeasible: ", "placement failed: ")
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1, (argv, err)
