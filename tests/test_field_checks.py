"""Every field of the library dataclasses rejects a wrong value with a ValueError that names the field."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fattree_design import BladeFormFactor, ConstraintSet, DesignRequest, NodeSpec, RoomSpec, SwitchConfig

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_NUMBER = st.booleans() | st.text() | NON_FINITE
NEGATIVE_FLOAT = st.floats(max_value=-math.ulp(0.0), allow_infinity=False)

# (class, valid arguments, ((field, kind, required, minimum), ...)); a kind names the pool of wrong values
CLASSES = [
    (SwitchConfig, dict(source_id="sw", ports=36, cost=100, power=1.0, rack_units=1, weight=1.0), (
        ("source_id", "str", True, None),
        ("ports", "int", True, 0),
        ("cost", "int", True, 0),
        ("power", "number", True, 0),
        ("rack_units", "int", True, 0),
        ("weight", "number", True, 0),
        ("configured_line_cards", "int", False, 1),
        ("expandable_ports", "int", True, 0),
    )),
    (NodeSpec, {}, (
        ("rack_units", "int", True, 1),
        ("weight", "number", True, 0),
        ("power", "number", True, 0),
    )),
    (RoomSpec, dict(rows=1, racks_per_row=1), (
        ("rows", "int", True, 1),
        ("racks_per_row", "int", True, 1),
        ("rack_units_per_rack", "int", True, 1),
        ("rack_weight_budget", "number", False, 0),
        ("rack_power_budget", "number", False, 0),
    )),
    (BladeFormFactor, dict(enclosure_capacity=16, enclosure_cost=100, embedded_edge_switch_id="e"), (
        ("enclosure_capacity", "int", True, 1),
        ("enclosure_cost", "int", True, 0),
        ("embedded_edge_switch_id", "str", True, None),
        ("pass_through_cost", "int", False, 0),
    )),
    (ConstraintSet, {}, (
        ("max_network_rack_units", "int", False, 0),
        ("min_spare_core_ports", "int", False, 0),
        ("max_network_power", "number", False, 0),
        ("max_network_cost", "int", False, 0),
    )),
    (DesignRequest, dict(node_count=60), (
        ("node_count", "int", True, 2),
        ("blocking_factor", "fraction", True, None),
        ("form_factor", "object", True, None),
        ("avg_cable_cost", "int", True, 0),
        ("constraints", "object", True, None),
        ("prefer_expandability", "bool", True, None),
    )),
]


def wrong_values(kind, required, minimum):
    pools = {
        "int": NOT_A_NUMBER | st.floats(),
        "number": NOT_A_NUMBER,
        "fraction": NOT_A_NUMBER | st.floats() | st.integers() | st.fractions(max_value=0),
        "str": st.integers() | st.floats() | st.binary() | st.lists(st.text(), max_size=2) | st.none(),
        "object": NOT_A_NUMBER | st.integers() | st.floats(),
        "bool": st.text() | st.integers() | st.floats(),
    }
    pool = pools[kind]
    if required:
        pool |= st.none()
    if minimum is not None:
        below = st.integers(max_value=minimum - 1)
        pool |= below if kind == "int" else below | NEGATIVE_FLOAT
    return pool


FIELDS = [
    pytest.param(cls, valid, field, wrong_values(kind, required, minimum), id=f"{cls.__name__}.{field}")
    for cls, valid, table in CLASSES
    for field, kind, required, minimum in table
]


def test_every_field_is_listed_once():
    for cls, valid, table in CLASSES:
        cls(**valid)
        assert [row[0] for row in table] == list(cls.__dataclass_fields__)[:len(table)]
        assert all(not spec.init for spec in list(cls.__dataclass_fields__.values())[len(table):])


@pytest.mark.parametrize("cls, valid, field, values", FIELDS)
@given(data=st.data())
def test_wrong_value_raises_a_value_error_naming_the_field(cls, valid, field, values, data):
    value = data.draw(values, label=field)
    with pytest.raises(ValueError) as raised:  # any other exception fails the test
        cls(**dict(valid, **{field: value}))
    # an underscore may read as a space ("blocking factor"); "ports" must not match "expandable_ports"
    assert re.search(rf"(^|\s)({field}|{field.replace('_', ' ')}) must", str(raised.value)), str(raised.value)
