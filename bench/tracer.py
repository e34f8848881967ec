"""Per-layer spans recorded from outside orelab.

The tracer replaces public functions of the orelab modules by wrappers,
in every orelab namespace that holds them (``cli`` imports ``construct``
from ``catalog``, ``maxden`` imports ``build_fraction_ring`` from
``localize``, and so on; ``oresets.saturate`` looks up
``localize.build_fraction_ring`` at call time, so patching the module
attribute reaches it too).  Each wrapper records a span.  A layer's time
is the self time of its spans: duration minus the spans nested in it.
Functions that no metric names are not wrapped, so their time counts
toward the span that called them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

TIME_METRICS = (
    "catalog.construct_s",
    "catalog.ring_file_s",
    "catalog.canonical_hash_s",
    "rings.ring_build_s",
    "rings.ideal_lattice_s",
    "rings.quotient_s",
    "rings.units_s",
    "rings.ring_map_s",
    "rings.goldie_s",
    "rings.direct_product_s",
    "oresets.ore_test_s",
    "oresets.denominator_test_s",
    "oresets.ass_s",
    "oresets.core_s",
    "oresets.saturate_s",
    "oresets.ore_report_s",
    "localize.fraction_ring_s",
    "localize.quotient_model_s",
    "localize.core_transfer_s",
    "localize.largest_quotient_s",
    "maxden.saturated_family_s",
    "maxden.profile_s",
    "maxden.decomposition_s",
    "maxden.localization_maximal_s",
    "maxden.brute_force_s",
    "laws.run_laws_s",
    "cli.run_s",
    "cli.to_doc_s",
)

COUNT_METRICS = (
    "catalog.construct_calls",
    "rings.ring_builds",
    "rings.ideal_lattice_calls",
    "rings.quotient_calls",
    "rings.units_calls",
    "rings.ring_maps",
    "oresets.ore_tests",
    "oresets.denominator_tests",
    "localize.fraction_rings_built",
    "localize.ore_pairs",
    "localize.fraction_classes",
    "localize.largest_quotient_calls",
    "maxden.saturated_family_calls",
    "maxden.family_candidates",
    "maxden.profiles",
    "maxden.brute_force_subsets",
)

RATIO_METRICS = (
    "rings.ideal_lattice_useful_ratio",
    "localize.fraction_ring_useful_ratio",
    "maxden.family_accept_ratio",
)

# (module, attribute, time metric, call-count metric or None)
FUNCTIONS = (
    ("catalog", "parse_spec", "catalog.construct_s", None),
    ("catalog", "construct", "catalog.construct_s", "catalog.construct_calls"),
    ("catalog", "parse_manifest", "catalog.construct_s", None),
    ("catalog", "save_ring_file", "catalog.ring_file_s", None),
    ("catalog", "load_ring_file", "catalog.ring_file_s", None),
    ("catalog", "canonical_text", "catalog.canonical_hash_s", None),
    ("catalog", "canonical_hash", "catalog.canonical_hash_s", None),
    ("rings", "two_sided_ideals", "rings.ideal_lattice_s", "rings.ideal_lattice_calls"),
    ("rings", "left_ideals", "rings.ideal_lattice_s", "rings.ideal_lattice_calls"),
    ("rings", "quotient", "rings.quotient_s", "rings.quotient_calls"),
    ("rings", "units", "rings.units_s", "rings.units_calls"),
    ("rings", "is_semiprime", "rings.goldie_s", None),
    ("rings", "minimal_primes", "rings.goldie_s", None),
    ("rings", "uniform_dimension", "rings.goldie_s", None),
    ("rings", "direct_product", "rings.direct_product_s", None),
    ("oresets", "is_left_ore", "oresets.ore_test_s", "oresets.ore_tests"),
    ("oresets", "is_left_denominator", "oresets.denominator_test_s", "oresets.denominator_tests"),
    ("oresets", "ass", "oresets.ass_s", None),
    ("oresets", "r_ass", "oresets.ass_s", None),
    ("oresets", "core", "oresets.core_s", None),
    ("oresets", "max_kernel_elements", "oresets.core_s", None),
    ("oresets", "saturate", "oresets.saturate_s", None),
    ("oresets", "ore_report", "oresets.ore_report_s", None),
    ("oresets", "denominator_sidedness", "oresets.ore_report_s", None),
    ("localize", "build_fraction_ring", "localize.fraction_ring_s", "localize.fraction_rings_built"),
    ("localize", "quotient_model_isomorphism", "localize.quotient_model_s", None),
    ("localize", "core_transfer_isomorphism", "localize.core_transfer_s", None),
    ("localize", "largest_left_quotient", "localize.largest_quotient_s", "localize.largest_quotient_calls"),
    ("localize", "classical_left_quotient", "localize.largest_quotient_s", None),
    ("maxden", "saturated_denominator_sets", "maxden.saturated_family_s", "maxden.saturated_family_calls"),
    ("maxden", "localization_profile", "maxden.profile_s", "maxden.profiles"),
    ("maxden", "is_left_localizable", "maxden.profile_s", None),
    ("maxden", "sided_profiles", "maxden.profile_s", None),
    ("maxden", "product_decomposition", "maxden.decomposition_s", None),
    ("maxden", "is_localization_maximal", "maxden.localization_maximal_s", None),
    ("maxden", "brute_force_denominator_sets", "maxden.brute_force_s", None),
    ("laws", "run_laws", "laws.run_laws_s", None),
    ("cli", "run", "cli.run_s", None),
)

# (module, class, method, time metric, call-count metric or None)
METHODS = (
    ("rings", "FiniteRing", "__init__", "rings.ring_build_s", "rings.ring_builds"),
    ("rings", "RingMap", "__post_init__", "rings.ring_map_s", "rings.ring_maps"),
    ("maxden", "LocalizationProfile", "to_doc", "cli.to_doc_s", None),
    ("maxden", "SidedProfiles", "to_doc", "cli.to_doc_s", None),
    ("maxden", "LocalizabilityVerdict", "to_doc", "cli.to_doc_s", None),
    ("maxden", "RouteResult", "to_doc", "cli.to_doc_s", None),
    ("maxden", "Decomposition", "to_doc", "cli.to_doc_s", None),
    ("maxden", "Condition", "to_doc", "cli.to_doc_s", None),
    ("oresets", "OreReport", "to_doc", "cli.to_doc_s", None),
    ("localize", "FractionRing", "to_doc", "cli.to_doc_s", None),
    ("laws", "LawResult", "to_doc", "cli.to_doc_s", None),
)


def law_metric(name: str) -> str:
    return f"laws.law.{name}_s"


def per_layer_names(law_names) -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    return (
        list(TIME_METRICS)
        + list(COUNT_METRICS)
        + list(RATIO_METRICS)
        + [law_metric(n) for n in law_names]
    )


@dataclass
class _Frame:
    key: str
    child_s: float = 0.0


@dataclass
class Tracer:
    """Spans kept in memory; totals are read after each traced pass."""

    self_s: dict = field(default_factory=dict)  # metric -> accumulated self time
    counts: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)  # span key -> [calls, self_s, total_s]
    lattice_keys: set = field(default_factory=set)
    fraction_keys: set = field(default_factory=set)
    family_accepted: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.reset()

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        self.self_s = {m: 0.0 for m in TIME_METRICS}
        self.counts = {m: 0 for m in COUNT_METRICS}
        self.functions = {}
        self.lattice_keys = set()
        self.fraction_keys = set()
        self.family_accepted = 0

    def _wrap(self, fn: Callable, key: str, time_metric: str, count_metric: str | None,
              on_result: Callable | None = None) -> Callable:
        stack = self._stack
        perf = time.perf_counter

        def span(*args, **kwargs):
            frame = _Frame(key)
            parent = stack[-1].key if stack else None
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                own = dt - frame.child_s
                self.self_s[time_metric] = self.self_s.get(time_metric, 0.0) + own
                stat = self.functions.setdefault(key, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += own
                stat[2] += dt
                if count_metric is not None:
                    self.counts[count_metric] += 1
            if on_result is not None:
                on_result(args, kwargs, result, parent)
            return result

        span.__wrapped__ = fn
        return span

    # -- counters that need the arguments or the result --------------------

    def _lattice_hook(self, side: str) -> Callable:
        def on_result(args, kwargs, result, parent):
            ring = args[0]
            self.lattice_keys.add((side, hash(ring), ring.order))
            if parent == "maxden.saturated_denominator_sets":
                self.counts["maxden.family_candidates"] += sum(1 for a in result if len(a) < ring.order)

        return on_result

    def _on_fraction_ring(self, args, kwargs, result, parent):
        ring = args[0]
        self.fraction_keys.add((hash(ring), ring.order, result.dens.mask))
        self.counts["localize.ore_pairs"] += len(result.dens) * ring.order
        self.counts["localize.fraction_classes"] += result.ring.order

    def _on_family(self, args, kwargs, result, parent):
        self.family_accepted += len(result)

    def _on_brute_force(self, args, kwargs, result, parent):
        self.counts["maxden.brute_force_subsets"] += 1 << (args[0].order - 2)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Patch every orelab namespace; undo with uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "orelab" or name.startswith("orelab.")}
        hooks = {
            "rings.two_sided_ideals": self._lattice_hook("two"),
            "rings.left_ideals": self._lattice_hook("left"),
            "localize.build_fraction_ring": self._on_fraction_ring,
            "maxden.saturated_denominator_sets": self._on_family,
            "maxden.brute_force_denominator_sets": self._on_brute_force,
        }
        for modname, attr, time_metric, count_metric in FUNCTIONS:
            original = getattr(mods[f"orelab.{modname}"], attr)
            key = f"{modname}.{attr}"
            wrapper = self._wrap(original, key, time_metric, count_metric, hooks.get(key))
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, original))
        for modname, clsname, meth, time_metric, count_metric in METHODS:
            cls = getattr(mods[f"orelab.{modname}"], clsname)
            original = cls.__dict__[meth]
            wrapper = self._wrap(original, f"{modname}.{clsname}.{meth}", time_metric, count_metric)
            setattr(cls, meth, wrapper)
            self._patches.append((cls, meth, original))
        registry = mods["orelab.laws"].LAW_REGISTRY
        for law_id, (name, fn) in list(registry.items()):
            wrapper = self._wrap(fn, f"laws.law.{name}", law_metric(name), None)
            registry[law_id] = (name, wrapper)
            self._patches.append((registry, law_id, (name, fn)))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._patches = []

    # -- reading ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics of everything recorded since reset()."""
        out = dict(self.self_s)
        out.update(self.counts)
        calls = self.counts["rings.ideal_lattice_calls"]
        out["rings.ideal_lattice_useful_ratio"] = len(self.lattice_keys) / calls if calls else 1.0
        built = self.counts["localize.fraction_rings_built"]
        out["localize.fraction_ring_useful_ratio"] = len(self.fraction_keys) / built if built else 1.0
        cand = self.counts["maxden.family_candidates"]
        out["maxden.family_accept_ratio"] = self.family_accepted / cand if cand else 1.0
        return out
