import copy
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import fattree_design
from fattree_design.catalog import (
    ROLES,
    Catalog,
    CatalogError,
    ModularSwitchFamily,
    SwitchConfig,
    _same,
    bundled_catalog_path,
    expand_modular,
    load_catalog,
    load_catalog_file,
    per_port_metrics,
)

BASE_DOC = {
    "currency": "USD",
    "monolithic": [
        {
            "id": "ft36",
            "name": "36-port switch",
            "ports": 36,
            "cost": 1_100_000,
            "power": 152,
            "rack_units": 1,
            "weight": 8.2,
            "roles": ["edge", "core"],
        }
    ],
    "modular": [
        {
            "id": "mod108",
            "chassis_cost": 2_500_000,
            "chassis_rack_units": 7,
            "chassis_power": 390,
            "chassis_weight": 55.0,
            "fabric_board_cost": 900_000,
            "fabric_boards_required": 3,
            "line_card_cost": 1_300_000,
            "ports_per_line_card": 18,
            "max_line_cards": 6,
            "roles": ["core"],
        }
    ],
}


def doc(**overrides):
    merged = json.loads(json.dumps(BASE_DOC))
    merged.update(overrides)
    return merged


def test_load_expands_modular_families():
    catalog = load_catalog(doc())
    assert len(catalog.edge_set) == 1
    # one monolithic plus six modular configurations
    assert len(catalog.core_set) == 7
    ports = [c.ports for c in catalog.core_set if c.source_id == "mod108"]
    assert ports == [18, 36, 54, 72, 90, 108]


def test_modular_expansion_costs():
    family = ModularSwitchFamily(
        id="mod108",
        chassis_cost=2_500_000,
        chassis_rack_units=7,
        chassis_power=390,
        chassis_weight=55.0,
        fabric_board_cost=900_000,
        fabric_boards_required=3,
        line_card_cost=1_300_000,
        ports_per_line_card=18,
        max_line_cards=6,
    )
    configs = expand_modular(family)
    assert len(configs) == family.max_line_cards
    full = configs[-1]
    assert full.ports == 108 and full.cost == 13_000_000  # $130,000
    reduced = configs[4]
    assert reduced.ports == 90 and reduced.cost == 11_700_000  # $117,000
    assert reduced.expandable_ports == 18
    assert full.expandable_ports == 0
    assert full.config_id == "mod108:108p"


def test_single_card_family():
    family = ModularSwitchFamily(
        id="tiny",
        chassis_cost=100,
        chassis_rack_units=2,
        chassis_power=1,
        chassis_weight=1,
        fabric_board_cost=10,
        fabric_boards_required=2,
        line_card_cost=5,
        ports_per_line_card=8,
        max_line_cards=1,
    )
    (only,) = expand_modular(family)
    assert only.ports == 8 and only.cost == 100 + 20 + 5 and only.expandable_ports == 0


def test_expansion_is_monotone():
    rng = random.Random(7)
    for _ in range(50):
        family = ModularSwitchFamily(
            id="m",
            chassis_cost=rng.randint(0, 10_000_000),
            chassis_rack_units=rng.randint(1, 20),
            chassis_power=rng.uniform(0, 1000),
            chassis_weight=rng.uniform(0, 200),
            fabric_board_cost=rng.randint(0, 1_000_000),
            fabric_boards_required=rng.randint(1, 6),
            line_card_cost=rng.randint(1, 2_000_000),
            ports_per_line_card=rng.randint(1, 48),
            max_line_cards=rng.randint(1, 16),
        )
        configs = expand_modular(family)
        assert len(configs) == family.max_line_cards
        for earlier, later in zip(configs, configs[1:]):
            assert earlier.cost < later.cost
            assert earlier.ports < later.ports


MOD108 = dict(
    id="mod108", chassis_cost=2_500_000, chassis_rack_units=7, chassis_power=390, chassis_weight=55.0,
    fabric_board_cost=900_000, fabric_boards_required=3, line_card_cost=1_300_000, ports_per_line_card=18,
    max_line_cards=6,
)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("max_line_cards", 5000, "max_line_cards: 5000 is greater than the maximum of 1024"),
        ("ports_per_line_card", 0, "ports_per_line_card: 0 is less than the minimum of 1"),
        ("max_line_cards", 0, "max_line_cards: 0 is less than the minimum of 1"),
    ],
)
def test_modular_family_built_in_code_is_checked(field, value, message):
    with pytest.raises(CatalogError) as raised:
        ModularSwitchFamily(**dict(MOD108, **{field: value}))
    assert str(raised.value) == f"modular switch family violation at {message}"


SW36 = {"source_id": "sw", "ports": 36, "cost": 1000, "power": 150.0, "rack_units": 1, "weight": 8.0}


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("cost", -1, "switch cost must not be negative, got -1 (minor units)", id="cost-negative"),
        pytest.param("cost", 1000.5, "switch cost must be an integer (minor units), got 1000.5", id="cost-float"),
        pytest.param("cost", True, "switch cost must be an integer (minor units), got True", id="cost-bool"),
        pytest.param("power", -500.0, "switch power must be finite and not negative, got -500.0", id="power-negative"),
        pytest.param("power", math.nan, "switch power must be finite and not negative, got nan", id="power-nan"),
        pytest.param("rack_units", -1, "switch rack_units must be finite and not negative, got -1", id="units-negative"),
        pytest.param("rack_units", 1.5, "switch rack_units must be an integer, got 1.5", id="units-fractional"),
        pytest.param("rack_units", True, "switch rack_units must be an integer, got True", id="units-bool"),
        pytest.param("ports", 36.0, "switch ports must be an integer, got 36.0", id="ports-float"),
        pytest.param("ports", True, "switch ports must be an integer, got True", id="ports-bool"),
        pytest.param("ports", -1, "switch ports must be finite and not negative, got -1", id="ports-negative"),
        pytest.param("weight", -2.0, "switch weight must be finite and not negative, got -2.0", id="weight-negative"),
        pytest.param("weight", math.inf, "switch weight must be finite and not negative, got inf", id="weight-inf"),
        pytest.param("power", "1", "switch power must be a number, got '1'", id="power-str"),
        pytest.param("power", None, "switch power must be a number, got None", id="power-none"),
        pytest.param("weight", True, "switch weight must be a number, got True", id="weight-bool"),
        pytest.param("expandable_ports", -30, "switch expandable_ports must be a non-negative integer, got -30",
                     id="spare-negative"),
        pytest.param("expandable_ports", 2.5, "switch expandable_ports must be a non-negative integer, got 2.5",
                     id="spare-fractional"),
        pytest.param("expandable_ports", True, "switch expandable_ports must be a non-negative integer, got True",
                     id="spare-bool"),
        pytest.param("configured_line_cards", 0,
                     "switch configured_line_cards must be None or an integer of at least 1, got 0", id="cards-zero"),
        pytest.param("configured_line_cards", 2.0,
                     "switch configured_line_cards must be None or an integer of at least 1, got 2.0", id="cards-float"),
        pytest.param("configured_line_cards", True,
                     "switch configured_line_cards must be None or an integer of at least 1, got True", id="cards-bool"),
        # the search sorts configurations by id, so a non-string id ended in a bare TypeError
        pytest.param("source_id", 5, "switch source_id must be a string, got 5", id="id-int"),
        pytest.param("source_id", None, "switch source_id must be a string, got None", id="id-none"),
    ],
)
def test_switch_config_built_in_code_is_checked(field, value, message):
    with pytest.raises(ValueError) as raised:
        SwitchConfig(**dict(SW36, **{field: value}))
    assert str(raised.value) == message


def test_switch_config_allows_the_empty_model():
    # zero ports and zero rack units: the search's stand-in for a design with no core layer
    assert SwitchConfig("", 0, 0, 0.0, 0, 0.0).ports == 0


def test_switch_config_takes_whole_numbers_and_line_card_counts():
    switch = SwitchConfig(**dict(SW36, power=150, weight=8, configured_line_cards=1, expandable_ports=36))
    assert (switch.power, switch.weight, switch.config_id) == (150, 8, "sw:36p")


def test_per_port_metrics(ft36):
    metrics = per_port_metrics(ft36)
    assert metrics.cost_per_port == Fraction(1_100_000, 36)  # ~$305.6 per port
    assert metrics.power_per_port == Fraction(152, 36)
    assert metrics.rack_units_per_port == Fraction(1, 36)


def test_deterministic_ordering():
    shuffled = doc()
    shuffled["monolithic"].insert(
        0,
        {
            "id": "aaa24",
            "name": "",
            "ports": 24,
            "cost": 1,
            "power": 0,
            "rack_units": 1,
            "weight": 0,
            "roles": ["edge"],
        },
    )
    catalog = load_catalog(shuffled)
    assert [c.source_id for c in catalog.edge_set] == ["aaa24", "ft36"]


def test_empty_catalog_rejected():
    with pytest.raises(CatalogError, match="catalog empty"):
        load_catalog(doc(monolithic=[], modular=[]))


def test_missing_role_side_rejected():
    core_only = doc()
    core_only["monolithic"][0]["roles"] = ["core"]
    with pytest.raises(CatalogError, match="no edge switches"):
        load_catalog(core_only)
    edge_only = doc()
    edge_only["monolithic"][0]["roles"] = ["edge"]
    edge_only["modular"][0]["roles"] = ["edge"]
    with pytest.raises(CatalogError, match="no core switches"):
        load_catalog(edge_only)


def test_duplicate_id_rejected():
    duplicated = doc()
    duplicated["modular"][0]["id"] = "ft36"
    with pytest.raises(CatalogError, match="duplicate switch id 'ft36'"):
        load_catalog(duplicated)


def test_catalog_built_in_code_rejects_two_configurations_with_one_id():
    # without the check, configs() and find() kept the first and a star on the 48-port switch was never ranked
    sw16 = SwitchConfig(source_id="dup", ports=16, cost=100_000, power=0.0, rack_units=1, weight=0.0)
    sw48 = SwitchConfig(source_id="dup", ports=48, cost=420_000, power=0.0, rack_units=1, weight=0.0)
    for edge_set, core_set in (((sw16,), (sw48,)), ((sw16, sw48), (sw16,))):
        with pytest.raises(ValueError, match="^two different switch configurations share the id 'dup'$"):
            Catalog(edge_set=edge_set, core_set=core_set)
    # one configuration listed in both sets, or twice, is one configuration
    assert Catalog(edge_set=(sw16, sw16), core_set=(sw16,)).configs() == (sw16,)


def test_monolithic_id_that_names_a_family_expansion_is_rejected():
    clash = doc()
    clash["monolithic"][0]["id"] = "mod108:18p"
    with pytest.raises(CatalogError, match="^two different switch configurations share the id 'mod108:18p'$"):
        load_catalog(clash)


def test_unknown_field_rejected():
    extra = doc()
    extra["monolithic"][0]["colour"] = "blue"
    with pytest.raises(CatalogError, match="colour"):
        load_catalog(extra)


def test_schema_violation_names_field():
    bad = doc()
    bad["monolithic"][0]["ports"] = 1
    with pytest.raises(CatalogError, match="ports"):
        load_catalog(bad)


def test_invalid_json_text():
    with pytest.raises(CatalogError, match="not valid JSON"):
        load_catalog("{nope")


def test_bundled_catalogs_load():
    demo = load_catalog_file(bundled_catalog_path("demo_catalog"))
    assert demo.find("ft36").cost == 1_100_000
    blade = load_catalog_file(bundled_catalog_path("blade_cluster"))
    assert [c.source_id for c in blade.edge_set] == ["encl32"]
    assert len(blade.core_set) == 7
    with pytest.raises(CatalogError):
        bundled_catalog_path("missing")


def test_package_import_leaves_jsonschema_out():
    src = str(Path(fattree_design.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import fattree_design; print('jsonschema' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


# The JSON Schema the catalog checker replaced: the reference it must agree with.
CATALOG_SCHEMA: dict[str, Any] = {
    "type": "object",
    "additionalProperties": False,
    "required": ["currency", "monolithic", "modular"],
    "properties": {
        "currency": {"type": "string", "minLength": 1},
        "monolithic": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["id", "name", "ports", "cost", "power", "rack_units", "weight", "roles"],
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "name": {"type": "string"},
                    "ports": {"type": "integer", "minimum": 2},
                    "cost": {"type": "integer", "minimum": 0},
                    "power": {"type": "number", "minimum": 0},
                    "rack_units": {"type": "integer", "minimum": 1},
                    "weight": {"type": "number", "minimum": 0},
                    "roles": {
                        "type": "array",
                        "items": {"enum": list(ROLES)},
                        "minItems": 1,
                        "uniqueItems": True,
                    },
                },
            },
        },
        "modular": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": [
                    "id",
                    "chassis_cost",
                    "chassis_rack_units",
                    "chassis_power",
                    "chassis_weight",
                    "fabric_board_cost",
                    "fabric_boards_required",
                    "line_card_cost",
                    "ports_per_line_card",
                    "max_line_cards",
                    "roles",
                ],
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "chassis_cost": {"type": "integer", "minimum": 0},
                    "chassis_rack_units": {"type": "integer", "minimum": 1},
                    "chassis_power": {"type": "number", "minimum": 0},
                    "chassis_weight": {"type": "number", "minimum": 0},
                    "fabric_board_cost": {"type": "integer", "minimum": 0},
                    "fabric_boards_required": {"type": "integer", "minimum": 1},
                    "line_card_cost": {"type": "integer", "minimum": 0},
                    "ports_per_line_card": {"type": "integer", "minimum": 1},
                    "max_line_cards": {"type": "integer", "minimum": 1, "maximum": 1024},
                    "per_line_card_power": {"type": "number", "minimum": 0},
                    "per_line_card_weight": {"type": "number", "minimum": 0},
                    "roles": {
                        "type": "array",
                        "items": {"enum": list(ROLES)},
                        "minItems": 1,
                        "uniqueItems": True,
                    },
                },
            },
        },
    },
}


REFERENCE = Draft202012Validator(CATALOG_SCHEMA)
FIELD_TYPES = {
    name: spec["type"]
    for entry in ("monolithic", "modular")
    for name, spec in CATALOG_SCHEMA["properties"][entry]["items"]["properties"].items()
}
NAMES = sorted(FIELD_TYPES) + ["currency", "monolithic", "modular", "colour", ""]
SCALARS = [None, True, False, -3, -1, 0, 1, 2, 3, 40, 1024, 1025, -0.5, 0.25, 36.0, 0.0, math.nan, math.inf, -math.inf,
           "", "x", "edge", "core"]
ITEMS = ["edge", "core", "bogus", None, True, 1, 1.0, [True], [1], {"a": True}, {"a": 1}]
WRONG_VALUES = st.one_of(
    st.sampled_from(SCALARS),
    st.lists(st.sampled_from(ITEMS), max_size=3).map(copy.deepcopy),
    st.sampled_from([{}, {"id": "x"}, {"a": [1]}]).map(copy.deepcopy),
)


UNIQUE_ITEMS = Draft202012Validator({"uniqueItems": True})


def misses_duplicate(array) -> bool:
    """Two items are equal JSON, but jsonschema calls the array unique.

    Its uniqueness check sorts the items and compares only neighbours, so in
    ``[[true], [1], [true]]`` it never compares the two ``[true]``.
    """
    return UNIQUE_ITEMS.is_valid(array) and any(_same(one, two) for i, one in enumerate(array) for two in array[:i])


def differs_on_purpose(document) -> bool:
    """An integral float in an integer field, a non-finite number in a numeric field, or roles
    holding a duplicate that jsonschema misses."""
    if isinstance(document, list):
        return any(differs_on_purpose(item) for item in document)
    if not isinstance(document, dict):
        return False
    for key, value in document.items():
        if isinstance(value, float) and FIELD_TYPES.get(key) in ("integer", "number"):
            if not math.isfinite(value) or (FIELD_TYPES[key] == "integer" and value.is_integer()):
                return True
        if key == "roles" and isinstance(value, list) and misses_duplicate(value):
            return True
    return any(differs_on_purpose(value) for value in document.values())


def containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from containers(item)


@st.composite
def mutated_catalogs(draw):
    """A valid catalog with one to five fields or items dropped, added or set to a wrong value."""
    demo = json.loads(bundled_catalog_path("demo_catalog").read_text(encoding="utf-8"))
    document = copy.deepcopy(draw(st.sampled_from([BASE_DOC, demo])))
    for _ in range(draw(st.integers(1, 5))):
        target = draw(st.sampled_from(list(containers(document))))
        keys = sorted(target) if isinstance(target, dict) else list(range(len(target)))
        action = draw(st.sampled_from(("drop", "add", "set") if keys else ("add",)))
        if action == "add" and isinstance(target, dict):
            for name in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True)):
                target[name] = draw(WRONG_VALUES)
        elif action == "add":
            target.append(draw(WRONG_VALUES))
        elif action == "drop":
            del target[draw(st.sampled_from(keys))]
        else:
            target[draw(st.sampled_from(keys))] = draw(WRONG_VALUES)
    return document


def reference_message(document):
    """What loading reported while it ran jsonschema.validate, or None for a valid document."""
    error = best_match(REFERENCE.iter_errors(document))
    if error is None:
        return None
    path = "/".join(str(part) for part in error.absolute_path) or "(root)"
    return f"catalog schema violation at {path}: {error.message}"


def load_message(document):
    try:
        load_catalog(document)
    except CatalogError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(mutated_catalogs())
def test_checker_agrees_with_json_schema(document):
    assume(not differs_on_purpose(document))
    expected, message = reference_message(document), load_message(document)
    if expected is None:
        assert message is None or not message.startswith("catalog schema violation")
    else:
        assert message == expected


def test_max_line_cards_is_capped_at_1024():
    document = doc()
    document["modular"][0]["max_line_cards"] = 1024
    assert sum(config.source_id == "mod108" for config in load_catalog(document).core_set) == 1024
    document["modular"][0]["max_line_cards"] = 1025
    message = "catalog schema violation at modular/0/max_line_cards: 1025 is greater than the maximum of 1024"
    assert load_message(document) == reference_message(document) == message


def test_checker_reports_a_duplicate_that_json_schema_misses():
    document = doc()
    document["monolithic"][0]["roles"] = [[True], [1], [True]]
    assert misses_duplicate(document["monolithic"][0]["roles"]) and differs_on_purpose(document)
    message = "catalog schema violation at monolithic/0/roles: [[True], [1], [True]] has non-unique elements"
    assert load_message(document) == message


@pytest.mark.parametrize(
    "roles",
    [
        ["edge", "edge"], ["core", "bogus", "core"], [True, 1], [1, 1.0], [[True], [1]], [[1], [1.0]],
        [{"a": True}, {"a": 1}], [{"a": 1}, {"a": 1}], [{"a": 1}, {"b": 1}],
        ["edge", "core", math.nan, math.nan], [math.nan, float("nan")], [[math.nan], [math.nan]],
    ],
)
def test_role_uniqueness_agrees_with_json_schema(roles):
    document = doc()
    document["monolithic"][0]["roles"] = roles
    assert load_message(document) == reference_message(document)
