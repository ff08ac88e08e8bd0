"""Switch catalog: load, validate, and expand the purchasable-switch database.

Monolithic models pass through as a single configuration each. Modular
families (chassis + fabric boards + line cards) are expanded into one
configuration per installed line-card count, because partially populated
chassis have their own price, power, and port count and compete on their
own terms during the design search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Mapping

from .money import Money, check_money, check_number

ROLES = ("edge", "core")
MAX_LINE_CARDS = 1024

# Field tables map each field of a JSON object to (type, bounds, required). A type is
# a JSON type name, a tuple of names, None (any value), a nested table (an object) or a
# one-element list (an array of it; a tuple in it is an enum whose members may not repeat).
# Bounds are a minimum, which bounds a number's value and a string's or array's length,
# or a (minimum, maximum) pair of a number's value.
_MONOLITHIC = {
    "id": ("string", 1, True),
    "name": ("string", None, True),
    "ports": ("integer", 2, True),
    "cost": ("integer", 0, True),
    "power": ("number", 0, True),
    "rack_units": ("integer", 1, True),
    "weight": ("number", 0, True),
    "roles": ([ROLES], 1, True),
}
_FAMILY = {  # a modular family's own fields; its catalog entry adds roles
    "id": ("string", 1, True),
    "chassis_cost": ("integer", 0, True),
    "chassis_rack_units": ("integer", 1, True),
    "chassis_power": ("number", 0, True),
    "chassis_weight": ("number", 0, True),
    "fabric_board_cost": ("integer", 0, True),
    "fabric_boards_required": ("integer", 1, True),
    "line_card_cost": ("integer", 0, True),
    "ports_per_line_card": ("integer", 1, True),
    # a family expands into one configuration per card count, so the count is capped
    "max_line_cards": ("integer", (1, MAX_LINE_CARDS), True),
    "per_line_card_power": ("number", 0, False),
    "per_line_card_weight": ("number", 0, False),
}
_MODULAR = dict(_FAMILY, roles=([ROLES], 1, True))
_CATALOG = {
    "currency": ("string", 1, True),
    "monolithic": ([_MONOLITHIC], None, True),
    "modular": ([_MODULAR], None, True),
}
# Exact types, so that a bool is neither an integer nor a number.
_TYPES = {
    "string": [str], "boolean": [bool], "integer": [int],
    "number": [int, float], "object": [dict], "array": [list],
}


def _same(one: Any, two: Any) -> bool:
    """JSON equality: true is not 1, but 1 is 1.0, and a value is itself (json.loads gives every NaN one object)."""
    if one is two:
        return True
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_same, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return one.keys() == two.keys() and all(_same(one[key], two[key]) for key in one)
    return one == two and isinstance(one, bool) == isinstance(two, bool)


def _violations(value: Any, kind: Any, bounds: Any, path: tuple) -> Iterator[tuple[tuple, str]]:
    """(path, message) for each way ``value`` breaks its field, in JSON Schema's order and wording.

    Unlike JSON Schema, an integer is never a float (36.0 would reach the
    integer port arithmetic) and a number is finite (NaN passes every minimum).
    """
    if kind is None:
        return
    names = {dict: ("object",), list: ("array",), str: (kind,)}.get(type(kind), kind)
    if not any(type(value) in _TYPES[name] for name in names):
        yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"
        return
    if isinstance(value, float) and not math.isfinite(value):
        yield path, f"{value!r} is not a finite number"
        return
    if isinstance(kind, dict):
        extras = sorted((key for key in value if key not in kind), key=str)
        if extras:
            listed = ", ".join(map(repr, extras)) + (" was" if len(extras) == 1 else " were")
            yield path, f"Additional properties are not allowed ({listed} unexpected)"
        for key, (_, _, required) in kind.items():
            if required and key not in value:
                yield path, f"{key!r} is a required property"
        for key, (field_kind, field_bounds, _) in kind.items():
            if key in value:
                yield from _violations(value[key], field_kind, field_bounds, path + (key,))
    elif isinstance(kind, list) and isinstance(kind[0], tuple):
        for index, item in enumerate(value):
            if not any(_same(item, member) for member in kind[0]):
                yield path + (index,), f"{item!r} is not one of {list(kind[0])!r}"
        if any(_same(one, two) for index, one in enumerate(value) for two in value[:index]):
            yield path, f"{value!r} has non-unique elements"
    elif isinstance(kind, list):
        for index, item in enumerate(value):
            yield from _violations(item, kind[0], None, path + (index,))
    minimum, maximum = bounds if isinstance(bounds, tuple) else (bounds, None)
    if minimum is not None and isinstance(value, (str, list)) and len(value) < minimum:
        yield path, f"{value!r} {'should be non-empty' if minimum == 1 else 'is too short'}"
    elif minimum is not None and isinstance(value, (int, float)) and value < minimum:
        yield path, f"{value!r} is less than the minimum of {minimum!r}"
    elif maximum is not None and isinstance(value, (int, float)) and value > maximum:
        yield path, f"{value!r} is greater than the maximum of {maximum!r}"


def field_violation(document: Any, table: dict[str, tuple]) -> str | None:
    """``<path>: <message>`` of the violation that JSON Schema's best_match reports, or None.

    That is the shallowest one, then the one at the larger sibling path, then the first found.
    """
    best = max(_violations(document, table, None, ()), key=lambda v: (-len(v[0]), v[0]), default=None)
    if best is None:
        return None
    return f"{'/'.join(map(str, best[0])) or '(root)'}: {best[1]}"


class CatalogError(ValueError):
    """Raised when a catalog document is malformed or inconsistent."""


@dataclass(frozen=True)
class ModularSwitchFamily:
    """A chassis-based switch populated with line cards and fabric boards.

    Fabric boards are always installed at the full non-blocking count;
    only the line-card count varies between configurations.
    """

    id: str
    chassis_cost: Money
    chassis_rack_units: int
    chassis_power: float
    chassis_weight: float
    fabric_board_cost: Money
    fabric_boards_required: int
    line_card_cost: Money
    ports_per_line_card: int
    max_line_cards: int
    per_line_card_power: float = 0.0
    per_line_card_weight: float = 0.0

    def __post_init__(self) -> None:
        # a family built in code meets a catalog entry's bounds, the card cap among them
        violation = field_violation(vars(self), _FAMILY)
        if violation:
            raise CatalogError(f"modular switch family violation at {violation}")


@dataclass(frozen=True)
class SwitchConfig:
    """One purchasable switch configuration; the Catalog sets that hold it decide which layers it may serve."""

    source_id: str
    ports: int
    cost: Money
    power: float
    rack_units: int
    weight: float
    configured_line_cards: int | None = None
    expandable_ports: int = 0
    # Stable identifier; modular expansions are distinguished by port count. Set once, as the search reads it
    # per pair; a cached_property would write the instance __dict__, slowing every attribute read on 3.11.
    config_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # zero is valid in code: the empty core model, and cores that take no rack space
        check_money("switch cost", self.cost)
        for name in ("ports", "power", "rack_units", "weight"):
            value = getattr(self, name)
            check_number(f"switch {name}", value, integral=name in ("ports", "rack_units"))
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"switch {name} must be finite and not negative, got {value!r}")
        spare = self.expandable_ports
        if isinstance(spare, bool) or not isinstance(spare, int) or spare < 0:
            raise ValueError(f"switch expandable_ports must be a non-negative integer, got {spare!r}")
        cards = self.configured_line_cards
        if cards is not None and (isinstance(cards, bool) or not isinstance(cards, int) or cards < 1):
            raise ValueError(f"switch configured_line_cards must be None or an integer of at least 1, got {cards!r}")
        if not isinstance(self.source_id, str):  # "" is valid: the empty core model has no id
            raise ValueError(f"switch source_id must be a string, got {self.source_id!r}")
        object.__setattr__(self, "config_id", self.source_id if cards is None else f"{self.source_id}:{self.ports}p")


@dataclass(frozen=True)
class PerPortMetrics:
    """Per-port share of a configuration's characteristics, kept exact."""

    cost_per_port: Fraction
    power_per_port: Fraction
    rack_units_per_port: Fraction
    weight_per_port: Fraction


@dataclass(frozen=True)
class Catalog:
    """Expanded switch database: the edge and core candidate sets."""

    edge_set: tuple[SwitchConfig, ...]
    core_set: tuple[SwitchConfig, ...]
    currency: str = "USD"

    def __post_init__(self) -> None:
        # configs() and find() pick a configuration by id; one listed in both sets is one configuration
        seen: dict[str, SwitchConfig] = {}
        for config in self.edge_set + self.core_set:
            if seen.setdefault(config.config_id, config) != config:
                raise CatalogError(f"two different switch configurations share the id {config.config_id!r}")

    def configs(self) -> tuple[SwitchConfig, ...]:
        """Union of both sets, deduplicated, in deterministic order."""
        seen: dict[str, SwitchConfig] = {}
        for config in self.edge_set + self.core_set:
            seen.setdefault(config.config_id, config)
        return tuple(seen[key] for key in sorted(seen))

    def find(self, config_id: str) -> SwitchConfig:
        """The configuration with this id; a modular family id is ambiguous and rejected."""
        for config in self.edge_set + self.core_set:
            if config.config_id == config_id:
                return config
        family = dict.fromkeys(c.config_id for c in self.edge_set + self.core_set if c.source_id == config_id)
        if family:
            raise CatalogError(f"{config_id!r} is a modular family; pick one of {', '.join(family)}")
        raise CatalogError(f"no switch configuration with id {config_id!r}")


def config_order(config: SwitchConfig) -> tuple[str, int]:
    """A loaded catalog's order of its configurations: by id, then a family's expansions by port count."""
    return config.source_id, config.ports


def expand_modular(family: ModularSwitchFamily) -> list[SwitchConfig]:
    """One configuration per line-card count, from one card up to a full chassis."""
    base_cost = family.chassis_cost + family.fabric_boards_required * family.fabric_board_cost
    configs = []
    for cards in range(1, family.max_line_cards + 1):
        configs.append(
            SwitchConfig(
                source_id=family.id,
                ports=cards * family.ports_per_line_card,
                cost=base_cost + cards * family.line_card_cost,
                power=family.chassis_power + cards * family.per_line_card_power,
                rack_units=family.chassis_rack_units,
                weight=family.chassis_weight + cards * family.per_line_card_weight,
                configured_line_cards=cards,
                expandable_ports=(family.max_line_cards - cards) * family.ports_per_line_card,
            )
        )
    return configs


def per_port_metrics(config: SwitchConfig) -> PerPortMetrics:
    """Exact per-port shares of cost, power, rack space, and weight."""
    if config.ports <= 0:
        raise ValueError("switch configuration has no ports")
    return PerPortMetrics(
        cost_per_port=Fraction(config.cost, config.ports),
        power_per_port=Fraction(config.power) / config.ports,
        rack_units_per_port=Fraction(config.rack_units, config.ports),
        weight_per_port=Fraction(config.weight) / config.ports,
    )


def parse_catalog(document: Mapping[str, Any]) -> Catalog:
    """Validate a parsed catalog document and expand it into candidate sets."""
    violation = field_violation(document, _CATALOG)
    if violation:
        raise CatalogError(f"catalog schema violation at {violation}")

    seen_ids: set[str] = set()
    edge_set: list[SwitchConfig] = []
    core_set: list[SwitchConfig] = []

    def add(entry: Mapping[str, Any], configs: list[SwitchConfig]) -> None:
        if entry["id"] in seen_ids:
            raise CatalogError(f"duplicate switch id {entry['id']!r}")
        seen_ids.add(entry["id"])
        if "edge" in entry["roles"]:
            edge_set.extend(configs)
        if "core" in entry["roles"]:
            core_set.extend(configs)

    for entry in document["monolithic"]:
        add(entry, [SwitchConfig(
            source_id=entry["id"],
            ports=entry["ports"],
            cost=entry["cost"],
            power=entry["power"],
            rack_units=entry["rack_units"],
            weight=entry["weight"],
        )])
    for entry in document["modular"]:
        # _FAMILY holds exactly ModularSwitchFamily's fields.
        add(entry, expand_modular(ModularSwitchFamily(**{key: entry[key] for key in entry if key != "roles"})))

    if not seen_ids:
        raise CatalogError("catalog empty")
    if not edge_set or not core_set:
        missing = "edge" if not edge_set else "core"
        raise CatalogError(f"catalog has no {missing} switches")

    return Catalog(
        edge_set=tuple(sorted(edge_set, key=config_order)),
        core_set=tuple(sorted(core_set, key=config_order)),
        currency=document["currency"],
    )


def load_catalog(source: str | bytes | Mapping[str, Any]) -> Catalog:
    """Load a catalog from JSON text or an already-parsed document."""
    document = source
    if isinstance(source, (str, bytes)):
        try:
            document = json.loads(source)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"catalog is not valid JSON: {exc}") from None
    return parse_catalog(document)


def load_catalog_file(path: str | Path) -> Catalog:
    return load_catalog(Path(path).read_text(encoding="utf-8"))


def bundled_catalog_path(name: str = "demo_catalog") -> Path:
    """Path of a catalog shipped with the package (demo_catalog, blade_cluster)."""
    path = Path(__file__).parent / "data" / f"{name}.json"
    if not path.exists():
        raise CatalogError(f"no bundled catalog named {name!r}")
    return path
