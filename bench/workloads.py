"""The four workloads: their rings, the operations of one pass, and the
checks made on the outputs.

Every operation reaches orelab through a module attribute looked up at
call time (``O.localization_profile``, ``cli.run``), so the tracer's
wrappers see it.  A pass is one round of every operation; passes
alternate between two relabellings of each ring (variant 0 and 1), both
fixed by the seed, so a run averages over two labellings and the
profile checks can compare them.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import orelab as O
from orelab import cli

import reference as ref


@dataclass
class Op:
    """One timed item.  run() returns (operations failed, report text)."""

    label: str
    run: Callable[[], tuple[int, str]]
    weight: int = 1  # operations it attempts


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    code = cli.run(argv, stdout=buf)
    return code, buf.getvalue()


def _slug(spec: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in spec).strip("-")


def _names(ring) -> list[str]:
    return [ring.name_of(x) for x in range(ring.order)]


class Workload:
    name = ""
    relabels = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rings: dict = {}  # (spec, variant) -> FiniteRing as the program receives it
        self.perms: dict = {}  # (spec, variant) -> relabelling old -> new
        self.results: dict = {}  # (label, variant) -> output of the last run of that op

    def _relabel(self, spec: str) -> None:
        """Construct the ring and hand the program two relabelled copies."""
        base = O.construct(spec)
        for variant in (0, 1):
            perm = ref.permutation(base.order, f"{self.name}/{self.seed}/{variant}/{spec}")
            add, mul, zero, one, names = ref.relabelled_tables(
                base.add, base.mul, base.zero, base.one, _names(base), perm
            )
            self.rings[(spec, variant)] = O.from_tables(base.order, add, mul, zero, one, names)
            self.perms[(spec, variant)] = perm

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, variant: int) -> list[Op]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def _check_profile_doc(self, label: str, ring, doc: dict, spec: str) -> list[str]:
        """Checks any left localization profile must pass."""
        errs = []
        n = ring.order
        if doc["order"] != n:
            errs.append(f"{label}: profile order {doc['order']} != {n}")
        nil = ref.nonzero_nilpotents(ring.mul, ring.zero)
        want = not nil
        if doc["verdict"]["localizable"] is not want:
            errs.append(f"{label}: localizable={doc['verdict']['localizable']}, "
                        f"but the ring has {len(nil)} nonzero nilpotents")
        exp = ref.expected_counts(spec)
        if exp is not None and len(doc["maximal_sets"]) != exp["max_den"]:
            errs.append(f"{label}: |maxDen_l| = {len(doc['maximal_sets'])}, expected {exp['max_den']}")
        for dens, order in zip(doc["maximal_sets"], doc["localization_orders"]):
            a = ref.left_annihilated(ring.mul, ring.zero, dens)
            if order * len(a) != n:
                errs.append(f"{label}: localization of order {order}, expected {n}/{len(a)}")
        return errs


class CatalogBatch(Workload):
    name = "catalog-batch"
    relabels = False
    OPPOSITE = "opposite(upper_triangular(gf(2),2))"

    def setup(self) -> None:
        for spec in O.DEFAULT_CATALOG:
            self.rings[(spec, 0)] = O.construct(spec)
        self.manifest = os.path.join(self.workdir, "catalog.manifest")
        with open(self.manifest, "w", encoding="utf-8") as fh:
            fh.write("".join(f"ring {spec}\n" for spec in O.DEFAULT_CATALOG))

    def ops(self, variant: int) -> list[Op]:
        def batch():
            code, text = _cli(["batch", "--manifest", self.manifest, "--format", "json", "--jobs", "1"])
            self.results[("batch", 0)] = (code, text)
            if code != 0:
                try:
                    entries = json.loads(text)["entries"]
                    return sum(1 for e in entries if e["status"] != "ok"), text
                except (ValueError, KeyError):
                    return len(O.DEFAULT_CATALOG), text
            return 0, text

        def opposite():
            # kept out of the manifest: one bad spec aborts a whole batch
            code, text = _cli(["profile", self.OPPOSITE, "--format", "json"])
            self.results[("opposite", 0)] = (code, text)
            return (0 if code == 0 else 1), text

        return [Op("batch", batch, len(O.DEFAULT_CATALOG)), Op("opposite", opposite)]

    def check(self) -> list[str]:
        errs = []
        code, text = self.results[("batch", 0)]
        if code != 0:
            errs.append(f"batch exited {code}")
        doc = json.loads(text)
        entries = doc["entries"]
        if [e["target"] for e in entries] != list(O.DEFAULT_CATALOG):
            errs.append("batch entries do not follow the manifest")
        for e, row in zip(entries, doc["summary"]):
            spec = e["target"]
            if e["status"] != "ok":
                errs.append(f"{spec}: status {e['status']}")
                continue
            ring = self.rings[(spec, 0)]
            errs += self._check_profile_doc(spec, ring, e["profile"], spec)
            want = "no" if ref.nonzero_nilpotents(ring.mul, ring.zero) else "yes"
            if row["localizable?"] != want or row["order"] != str(ring.order):
                errs.append(f"{spec}: summary row {row} disagrees with the ring")
        code, text = self.results[("opposite", 0)]
        if code == 0:
            # R^op has the same nilpotents as R
            base = self.rings[("upper_triangular(gf(2),2)", 0)]
            want = not ref.nonzero_nilpotents(base.mul, base.zero)
            if json.loads(text)["verdict"]["localizable"] is not want:
                errs.append(f"{self.OPPOSITE}: localizable verdict contradicts its nilpotents")
        return errs


LADDER = (
    "zmod(32)",
    "product(gf(5),gf(9))",
    "upper_triangular(gf(4),2)",
    "zmod(64)",
    "product(zmod(8),zmod(9))",
)


def _profile_digest(doc: dict, perm: list[int]) -> dict:
    """The profile with every element mapped back to the unrelabelled ring,
    and every list whose order follows element labels sorted."""
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old

    def back(xs):
        return sorted(inv[x] for x in xs)

    dec = doc["decomposition"]
    return {
        "order": doc["order"],
        "saturated": sorted((back(f["ass"]), back(f["set"])) for f in doc["saturated_family"]),
        "maximal": sorted(
            (back(s), back(a), o, d)
            for s, a, o, d in zip(doc["maximal_sets"], doc["maximal_ass"],
                                  doc["localization_orders"], doc["localization_division"])
        ),
        "radical": back(doc["radical"]),
        "localizable": back(doc["localizable"]),
        "completely_localizable": back(doc["completely_localizable"]),
        "non_localizable": back(doc["non_localizable"]),
        "verdict": (doc["verdict"]["localizable"], doc["verdict"]["partial"],
                    [(r["name"], r["ran"], r["value"]) for r in doc["verdict"]["routes"]]),
        "decomposition": (dec["succeeded"], dec["n_factors"],
                          [(c["name"], c["holds"]) for c in dec["conditions"]],
                          sorted(zip(dec.get("factor_orders", []), dec.get("factor_division", [])))),
    }


class ProfileLadder(Workload):
    name = "profile-ladder"

    def setup(self) -> None:
        for spec in LADDER:
            self._relabel(spec)

    def _profile(self, spec: str, variant: int) -> tuple[int, str]:
        doc = O.localization_profile(self.rings[(spec, variant)]).to_doc()
        self.results[(spec, variant)] = doc
        return 0, json.dumps(doc, sort_keys=True)

    def ops(self, variant: int) -> list[Op]:
        return [Op(spec, lambda spec=spec: self._profile(spec, variant)) for spec in LADDER]

    def check(self) -> list[str]:
        errs = []
        for spec in LADDER:
            digests = []
            for variant in (0, 1):
                if (spec, variant) not in self.results:  # a run of a single pass
                    self._profile(spec, variant)
                ring, doc = self.rings[(spec, variant)], self.results[(spec, variant)]
                errs += self._check_profile_doc(f"{spec} v{variant}", ring, doc, spec)
                digests.append(_profile_digest(doc, self.perms[(spec, variant)]))
            if digests[0] != digests[1]:
                errs.append(f"{spec}: profile changes under relabelling")
        return errs


LAW_RINGS = (
    # n <= 8: brute-force Ore and denominator enumeration runs
    "zmod(4)",
    "zmod(6)",
    "zmod(8)",
    "product(gf(2),gf(2))",
    "gf(7)",
    "upper_triangular(gf(2),2)",
    # medium: the law context recomputes the same structures
    "zmod(12)",
    "matrix(gf(2),2)",
    "upper_triangular(gf(3),2)",
)


class LawSuite(Workload):
    name = "law-suite"

    def setup(self) -> None:
        for spec in LAW_RINGS:
            self._relabel(spec)

    def _laws(self, spec: str, variant: int) -> tuple[int, str]:
        docs = [r.to_doc() for r in O.run_laws(self.rings[(spec, variant)])]
        self.results[(spec, variant)] = docs
        return 0, json.dumps(docs, sort_keys=True)

    def ops(self, variant: int) -> list[Op]:
        return [Op(spec, lambda spec=spec: self._laws(spec, variant)) for spec in LAW_RINGS]

    def check(self) -> list[str]:
        errs = []
        n_laws = len(O.law_ids())
        for (spec, variant), docs in self.results.items():
            if len(docs) != n_laws:
                errs.append(f"{spec} v{variant}: {len(docs)} laws ran, expected {n_laws}")
            for d in docs:
                if d["applicable"] and not d["holds"]:
                    errs.append(f"{spec} v{variant}: law {d['id']} ({d['name']}) fails: {d['detail']}")
        return errs


GUARD_RINGS = (
    "zmod(128)",
    "product(gf(2),zmod(64))",
    "product(gf(4),gf(8),gf(5))",
    "zmod(256)",
)
# info enumerates the ideal lattice; on zmod(256) that alone takes 4.5 s
INFO_RINGS = GUARD_RINGS[:3]
# the saturated family and the Goldie route on the first ring only, to
# keep one pass near 10 s
FAMILY_RING = "zmod(128)"
GENERATORS_PER_RING = 3


class GuardOrder(Workload):
    name = "guard-order"

    def setup(self) -> None:
        self.paths = {}
        for spec in GUARD_RINGS:
            self._relabel(spec)
            for variant in (0, 1):
                path = os.path.join(self.workdir, f"{_slug(spec)}-v{variant}.ring")
                O.save_ring_file(self.rings[(spec, variant)], path)
                self.paths[(spec, variant)] = path
        self.generators = {
            key: ref.permutation(ring.order, f"{self.name}/{self.seed}/gens/{key}")[:GENERATORS_PER_RING]
            for key, ring in self.rings.items()
        }
        # uniform dimension enumerates left ideals, guarded at 64 by default
        self.wide_guards = dataclasses.replace(O.DEFAULT_GUARDS, left_ideals=O.DEFAULT_GUARDS.order)

    def _store(self, label: str, variant: int, value, text: str) -> tuple[int, str]:
        self.results[(label, variant)] = value
        return 0, text

    def ops(self, variant: int) -> list[Op]:
        ops = []
        for spec in INFO_RINGS:
            label = f"info {spec}"
            ops.append(Op(label, lambda spec=spec, label=label: self._cli_op(
                label, variant, ["info", self.paths[(spec, variant)], "--format", "json"])))
        for spec in GUARD_RINGS:
            label = f"check-axioms {spec}"
            ops.append(Op(label, lambda spec=spec, label=label: self._cli_op(
                label, variant, ["check-axioms", self.paths[(spec, variant)], "--format", "json"])))
        ops.append(Op(f"family {FAMILY_RING}", lambda: self._family(variant)))
        ops.append(Op(f"goldie {FAMILY_RING}", lambda: self._goldie(variant)))
        for spec in GUARD_RINGS:
            ops.append(Op(f"units {spec}", lambda spec=spec: self._units(spec, variant)))
            ops.append(Op(f"closures {spec}", lambda spec=spec: self._closures(spec, variant)))
        return ops

    def _cli_op(self, label: str, variant: int, argv: list[str]) -> tuple[int, str]:
        code, text = _cli(argv)
        self.results[(label, variant)] = (code, text)
        return (0 if code == 0 else 1), text

    def _family(self, variant: int) -> tuple[int, str]:
        fam = O.saturated_denominator_sets(self.rings[(FAMILY_RING, variant)])
        value = [(sorted(a), sorted(s)) for a, s in fam.items()]
        return self._store(f"family {FAMILY_RING}", variant, value, json.dumps(value))

    def _goldie(self, variant: int) -> tuple[int, str]:
        ring = self.rings[(FAMILY_RING, variant)]
        value = {"semiprime": O.is_semiprime(ring),
                 "uniform_dimension": O.uniform_dimension(ring, self.wide_guards)}
        return self._store(f"goldie {FAMILY_RING}", variant, value, json.dumps(value, sort_keys=True))

    def _units(self, spec: str, variant: int) -> tuple[int, str]:
        ring = self.rings[(spec, variant)]
        u = O.MulSet(ring, O.units(ring))
        value = {
            "units": sorted(u.elements),
            "ore": O.is_left_ore(u).holds,
            "denominator": O.is_left_denominator(u).holds,
            "ass": sorted(O.ass(u)),
            "core": sorted(O.core(u)),
        }
        return self._store(f"units {spec}", variant, value, json.dumps(value, sort_keys=True))

    def _closures(self, spec: str, variant: int) -> tuple[int, str]:
        ring = self.rings[(spec, variant)]
        value = []
        for g in self.generators[(spec, variant)]:
            try:
                s = O.mul_closure(ring, [g])
            except O.ZeroAbsorbed:
                value.append({"generator": g, "zero_absorbed": True})
                continue
            value.append({
                "generator": g,
                "zero_absorbed": False,
                "set": sorted(s.elements),
                "ore": O.is_left_ore(s).holds,
                "denominator": O.is_left_denominator(s).holds,
                "ass": sorted(O.ass(s)),
                "core": sorted(O.core(s)),
            })
        return self._store(f"closures {spec}", variant, value, json.dumps(value, sort_keys=True))

    def check(self) -> list[str]:
        errs = []
        for (label, variant), value in sorted(self.results.items()):
            verb, spec = label.split(" ", 1)
            ring = self.rings[(spec, variant)]
            exp = ref.expected_counts(spec)
            nil = ref.nonzero_nilpotents(ring.mul, ring.zero)
            tag = f"{label} v{variant}"
            if verb in ("info", "check-axioms"):
                code, text = value
                if code != 0:
                    errs.append(f"{tag}: exit {code}")
                    continue
                doc = json.loads(text)
                if doc["order"] != ring.order:
                    errs.append(f"{tag}: order {doc['order']}")
                if verb == "info" and (len(doc["units"]) != exp["units"]
                                       or len(doc["two_sided_ideals"]) != exp["ideals"]):
                    errs.append(f"{tag}: {len(doc['units'])} units, {len(doc['two_sided_ideals'])} "
                                f"ideals; expected {exp['units']} and {exp['ideals']}")
            elif verb == "family":
                sets = [set(s) for _, s in value]
                maximal = [s for s in sets if not any(s < t for t in sets)]
                if len(maximal) != exp["max_den"]:
                    errs.append(f"{tag}: {len(maximal)} maximal sets, expected {exp['max_den']}")
                for a, s in value:
                    if set(a) != ref.left_annihilated(ring.mul, ring.zero, s):
                        errs.append(f"{tag}: family key differs from ass of its set")
            elif verb == "goldie":
                # a commutative ring is semiprime exactly when it is reduced,
                # and Z/n has uniform dimension equal to its prime count
                if not ref.is_commutative(ring.mul):
                    errs.append(f"{tag}: expected a commutative ring")
                if value["semiprime"] is not (not nil):
                    errs.append(f"{tag}: semiprime={value['semiprime']} with {len(nil)} nilpotents")
                if value["uniform_dimension"] != exp["max_den"]:
                    errs.append(f"{tag}: uniform dimension {value['uniform_dimension']}")
            elif verb == "units":
                if len(value["units"]) != exp["units"]:
                    errs.append(f"{tag}: {len(value['units'])} units, expected {exp['units']}")
                if not (value["ore"] and value["denominator"]):
                    errs.append(f"{tag}: the unit group failed the denominator test")
                if value["ass"] != [ring.zero] or value["core"] != value["units"]:
                    errs.append(f"{tag}: ass or core of the unit group is wrong")
            elif verb == "closures":
                for c in value:
                    g = c["generator"]
                    if c["zero_absorbed"] != (g in nil or g == ring.zero):
                        errs.append(f"{tag}: closure of {g} absorbed zero={c['zero_absorbed']}")
                        continue
                    if c["zero_absorbed"]:
                        continue
                    if set(c["set"]) != ref.powers_closure(ring.mul, ring.one, g):
                        errs.append(f"{tag}: closure of {g} is not its powers")
                    a = ref.left_annihilated(ring.mul, ring.zero, c["set"])
                    kernel_is_a = [s for s in c["set"]
                                   if ref.left_annihilated(ring.mul, ring.zero, [s]) == a]
                    if not (c["ore"] and c["denominator"]) or set(c["ass"]) != a \
                            or c["core"] != sorted(kernel_is_a):
                        errs.append(f"{tag}: Ore data of the closure of {g} is wrong")
        for key, path in self.paths.items():
            ring, back = self.rings[key], O.load_ring_file(path)
            if (back.add, back.mul, back.zero, back.one) != (ring.add, ring.mul, ring.zero, ring.one):
                errs.append(f"{key[0]} v{key[1]}: ring file does not round-trip")
        return errs


WORKLOADS = {w.name: w for w in (CatalogBatch, ProfileLadder, LawSuite, GuardOrder)}
