"""Spans and counters recorded from outside the package under test.

Wrappers are installed on the module attributes that callers look up at call
time (``fattree_design.placement.design`` for calls from ``fit_max_nodes``,
``fattree_design.designer.edge_port_split`` for calls from ``design()``, and
so on): every attribute of every loaded ``fattree_design`` module, plus
``jsonschema.validate``, that holds a target function is replaced by one
shared wrapper and restored by ``Tracer.uninstall``.

Coarse functions record a span (name, start, end, parent, operation id).
Hot inner functions of the search run thousands of times per call, so they
only bump counters, attributed to the innermost enclosing frame. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module, attribute, recorded name, kind)
TARGETS = (
    ("fattree_design.catalog", "load_catalog", "catalog.load", SPAN),
    ("jsonschema", "validate", "catalog.validate", SPAN),
    ("fattree_design.designer", "design", "designer.design", SPAN),
    ("fattree_design.designer", "trivial_star", "designer.trivial", SPAN),
    ("fattree_design.designer", "trivial_direct_connect", "designer.trivial", SPAN),
    ("fattree_design.designer", "edge_port_split", "designer.edge_port_split", COUNT),
    ("fattree_design.designer", "core_stage", "designer.core_stage", COUNT),
    ("fattree_design.designer", "uniform_distribution_variant", "designer.uniform_variant", COUNT),
    ("fattree_design.estimator", "sweep_lower_bound", "estimator.sweep", SPAN),
    ("fattree_design.estimator", "lower_bound_estimate", "estimator.lower_bound", SPAN),
    ("fattree_design.placement", "plan_racks", "placement.plan_racks", SPAN),
    ("fattree_design.placement", "fit_max_nodes", "placement.fit_max_nodes", SPAN),
    ("fattree_design.placement", "expansion_plan", "placement.expansion_plan", SPAN),
    ("fattree_design.placement", "expansion_audit", "placement.expansion_audit", SPAN),
) + tuple(
    ("fattree_design.report", name, "report.render", SPAN)
    for name in (
        "design_report_document", "render_design_text", "emit_wiring",
        "estimate_document", "render_estimate_text", "sweep_document", "render_sweep_text",
        "layout_document", "render_rack_fronts", "render_room_top_view",
        "expansion_document", "render_expansion_text", "to_json",
    )
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, operation id, error class name]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.frames: list[tuple[str, int]] = []  # (name, span index or -1)
        self.op: object = None
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = next((i for _, i in reversed(self.frames) if i >= 0), -1)
            index = len(self.spans)
            record = [name, perf_counter(), 0.0, parent, self.op, None]
            self.spans.append(record)
            self.frames.append((name, index))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = perf_counter()
                self.frames.pop()
            self._observe(name, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts, frames = self.counts, self.frames
        by_parent: dict[str, str] = {}
        not_none = f"{name}:not_none"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if frames:
                parent = frames[-1][0]
                key = by_parent.get(parent)
                if key is None:
                    key = by_parent[parent] = f"{name}<{parent}"
                counts[key] += 1
            frames.append((name, -1))
            try:
                result = fn(*args, **kwargs)
            finally:
                frames.pop()
            if result is not None:
                counts[not_none] += 1
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        """Counts read off a traced function's return value."""
        counts = self.counts
        if isinstance(result, str):
            counts["report.bytes"] += len(result.encode("utf-8"))
        elif name == "designer.design":
            counts["designer.candidates_ranked"] += len(result.candidates)
            counts["designer.candidates_rejected"] += len(result.rejected)
        elif name == "catalog.load":
            counts["catalog.loads"] += 1
            counts["catalog.configs_loaded"] += len(result.edge_set) + len(result.core_set)
        elif name == "estimator.sweep":
            counts["estimator.sweep_points"] += len(result)
        elif name == "placement.plan_racks":
            counts["placement.racks_used"] += result.racks_used
            counts["placement.spread_blocks"] += len(result.spread_blocks)

    def install(self) -> None:
        """Wrap every target in every loaded fattree_design module."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] in ("fattree_design", "jsonschema")]
        for module_name, attr, name, kind in TARGETS:
            original = _target(module_name, attr)
            if original is None:
                continue
            wrapper = (self._span if kind == SPAN else self._count)(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def _target(module_name: str, attr: str):
    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError):
        return None


def missing_targets() -> list[str]:
    """Targets the package no longer has; their layer metrics read 0."""
    return [f"{module}.{attr}" for module, attr, _n, _k in TARGETS if _target(module, attr) is None]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover, in seconds."""
    child_time = defaultdict(float)
    for name, start, end, parent, _op, _err in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_n, start, end, _p, _o, _e) in enumerate(spans)]


def layer_summary(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer figures for one traced pass (times in ms, counts as numbers)."""
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    errors = Counter()
    for i, (name, start, end, parent, _op, err) in enumerate(spans):
        total[name] += end - start
        own[name] += selfs[i]
        calls[name] += 1
        if err is not None:
            errors[name] += 1
    fits = calls["placement.fit_max_nodes"]
    fit_designs = sum(
        1 for name, _s, _e, parent, _o, _x in spans
        if name == "designer.design" and parent >= 0 and spans[parent][0] == "placement.fit_max_nodes"
    )
    loads = counts["catalog.loads"]
    return {
        "catalog.load_ms": 1000 * total["catalog.load"] / loads if loads else 0.0,
        "catalog.validate_ms": 1000 * total["catalog.validate"] / loads if loads else 0.0,
        "catalog.configs": counts["catalog.configs_loaded"] / loads if loads else 0.0,
        "designer.design_calls": calls["designer.design"],
        "designer.design_ms": 1000 * own["designer.design"],
        "designer.pairs_considered": counts["designer.core_stage<designer.design"],
        "designer.edge_port_split_calls": counts["designer.edge_port_split"],
        "designer.core_stage_calls": counts["designer.core_stage"],
        "designer.uniform_variant_calls": counts["designer.uniform_variant"],
        "designer.uniform_variants_kept": counts["designer.uniform_variant:not_none"],
        "designer.candidates_ranked": counts["designer.candidates_ranked"],
        "designer.candidates_rejected": counts["designer.candidates_rejected"],
        "designer.trivial_ms": 1000 * total["designer.trivial"],
        "designer.infeasible": errors["designer.design"],
        "placement.fit_max_nodes_ms": 1000 * own["placement.fit_max_nodes"],
        "placement.fit_design_calls": fit_designs,
        "placement.fit_design_calls_per_fit": fit_designs / fits if fits else 0.0,
        "placement.expansion_plan_ms": 1000 * total["placement.expansion_plan"],
        "placement.expansion_audit_ms": 1000 * total["placement.expansion_audit"],
        "placement.plan_racks_ms": 1000 * total["placement.plan_racks"],
        "placement.racks_used": counts["placement.racks_used"],
        "placement.spread_blocks": counts["placement.spread_blocks"],
        "placement.infeasible": errors["placement.plan_racks"] + errors["placement.expansion_plan"],
        "estimator.sweep_ms": 1000 * total["estimator.sweep"],
        "estimator.sweep_points": counts["estimator.sweep_points"],
        "estimator.lower_bound_ms": 1000 * total["estimator.lower_bound"],
        "report.render_ms": 1000 * own["report.render"],
        "report.bytes": counts["report.bytes"],
    }
