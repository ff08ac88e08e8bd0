import json
import re

import pytest

from fattree_design.catalog import bundled_catalog_path
from fattree_design.cli import run
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


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--current-units", "84", "--target-units", "126", "--node-ru", "0"],
        ["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--node-ru", "0"],
        ["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--node-weight", "-1"],
        ["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--node-power", "-1"],
        ["place", "--nodes", "60", "--rows", "0", "--racks-per-row", "4"],
        ["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "0"],
        ["place", "--nodes", "60", "--rows", "1", "--racks-per-row", "4", "--rack-units", "0"],
        ["design", "--nodes", "60", "--top", "0"],
        ["design", "--nodes", "60", "--top", "-2"],
    ],
)
def test_out_of_range_flags_exit_1(capsys, argv):
    code, out, err = run_capture(capsys, argv + ["--catalog", DEMO])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
