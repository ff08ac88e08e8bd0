"""Switch catalog: load, validate, and expand the purchasable-switch database.

Monolithic models pass through as a single configuration each. Modular
families (chassis + fabric boards + line cards) are expanded into one
configuration per installed line-card count, because partially populated
chassis have their own price, power, and port count and compete on their
own terms during the design search.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

import jsonschema

from .money import Money

ROLES = ("edge", "core")

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
                    "max_line_cards": {"type": "integer", "minimum": 1},
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
    roles: frozenset[str] = frozenset({"core"})


@dataclass(frozen=True)
class SwitchConfig:
    """One purchasable switch configuration, the unit the designer works with."""

    source_id: str
    ports: int
    cost: Money
    power: float
    rack_units: int
    weight: float
    roles: frozenset[str]
    configured_line_cards: int | None = None
    expandable_ports: int = 0
    name: str = ""

    @property
    def config_id(self) -> str:
        """Stable identifier; modular expansions are distinguished by port count."""
        if self.configured_line_cards is None:
            return self.source_id
        return f"{self.source_id}:{self.ports}p"


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
    document: Mapping[str, Any] = field(compare=False, hash=False, repr=False, default_factory=dict)

    def configs(self) -> tuple[SwitchConfig, ...]:
        """Union of both sets, deduplicated, in deterministic order."""
        seen: dict[str, SwitchConfig] = {}
        for config in self.edge_set + self.core_set:
            seen.setdefault(config.config_id, config)
        return tuple(seen[key] for key in sorted(seen))

    def find(self, config_id: str) -> SwitchConfig:
        for config in self.edge_set + self.core_set:
            if config.config_id == config_id or config.source_id == config_id:
                return config
        raise CatalogError(f"no switch configuration with id {config_id!r}")

    def to_document(self) -> dict[str, Any]:
        """Normalized source document; reloading it reproduces this catalog."""
        return copy.deepcopy(self.document)


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
                roles=family.roles,
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


def parse_catalog(document: Mapping[str, Any], *, require_both_roles: bool = True) -> Catalog:
    """Validate a parsed catalog document and expand it into candidate sets."""
    try:
        jsonschema.validate(document, CATALOG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(part) for part in exc.absolute_path) or "(root)"
        raise CatalogError(f"catalog schema violation at {path}: {exc.message}") from None

    seen_ids: set[str] = set()
    edge_set: list[SwitchConfig] = []
    core_set: list[SwitchConfig] = []

    for entry in document["monolithic"]:
        if entry["id"] in seen_ids:
            raise CatalogError(f"duplicate switch id {entry['id']!r}")
        seen_ids.add(entry["id"])
        config = SwitchConfig(
            source_id=entry["id"],
            ports=entry["ports"],
            cost=entry["cost"],
            power=entry["power"],
            rack_units=entry["rack_units"],
            weight=entry["weight"],
            roles=frozenset(entry["roles"]),
            name=entry.get("name", ""),
        )
        if "edge" in config.roles:
            edge_set.append(config)
        if "core" in config.roles:
            core_set.append(config)

    for entry in document["modular"]:
        if entry["id"] in seen_ids:
            raise CatalogError(f"duplicate switch id {entry['id']!r}")
        seen_ids.add(entry["id"])
        family = ModularSwitchFamily(
            id=entry["id"],
            chassis_cost=entry["chassis_cost"],
            chassis_rack_units=entry["chassis_rack_units"],
            chassis_power=entry["chassis_power"],
            chassis_weight=entry["chassis_weight"],
            fabric_board_cost=entry["fabric_board_cost"],
            fabric_boards_required=entry["fabric_boards_required"],
            line_card_cost=entry["line_card_cost"],
            ports_per_line_card=entry["ports_per_line_card"],
            max_line_cards=entry["max_line_cards"],
            per_line_card_power=entry.get("per_line_card_power", 0.0),
            per_line_card_weight=entry.get("per_line_card_weight", 0.0),
            roles=frozenset(entry["roles"]),
        )
        configs = expand_modular(family)
        if "edge" in family.roles:
            edge_set.extend(configs)
        if "core" in family.roles:
            core_set.extend(configs)

    if not seen_ids:
        raise CatalogError("catalog empty")
    if require_both_roles and (not edge_set or not core_set):
        missing = "edge" if not edge_set else "core"
        raise CatalogError(f"catalog has no {missing} switches")

    order = lambda config: (config.source_id, config.ports)
    return Catalog(
        edge_set=tuple(sorted(edge_set, key=order)),
        core_set=tuple(sorted(core_set, key=order)),
        currency=document["currency"],
        document=json.loads(json.dumps(document, sort_keys=True)),
    )


def load_catalog(source: str | bytes | Mapping[str, Any], *, require_both_roles: bool = True) -> Catalog:
    """Load a catalog from JSON text or an already-parsed document."""
    if isinstance(source, (str, bytes)):
        try:
            document = json.loads(source)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"catalog is not valid JSON: {exc}") from None
    else:
        document = source
    if not isinstance(document, Mapping):
        raise CatalogError("catalog document must be a JSON object")
    return parse_catalog(document, require_both_roles=require_both_roles)


def load_catalog_file(path: str | Path, *, require_both_roles: bool = True) -> Catalog:
    return load_catalog(Path(path).read_text(encoding="utf-8"), require_both_roles=require_both_roles)


def bundled_catalog_path(name: str = "demo_catalog") -> Path:
    """Path of a catalog shipped with the package (demo_catalog, blade_cluster)."""
    path = Path(__file__).parent / "data" / f"{name}.json"
    if not path.exists():
        raise CatalogError(f"no bundled catalog named {name!r}")
    return path
