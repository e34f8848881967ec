"""Command line front end.

Verbs: info, check-axioms, ore, localize, profile, verify, batch.
Targets are either constructor expressions like zmod(6) or paths to
ring table files.  Exit codes: 0 all checks passed, 1 a mathematical
check failed, 2 usage or parse error, 3 a size guard refused the work.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .catalog import canonical_hash, construct, load_ring_file, parse_manifest
from .errors import (
    DEFAULT_GUARDS,
    BadSpec,
    Guards,
    OreLabError,
    ParseError,
    SizeGuardExceeded,
    guards_from_env,
)
from .laws import law_ids, run_laws
from .localize import build_fraction_ring, quotient_model_isomorphism
from .maxden import localization_profile
from .oresets import MulSet, ore_report
from .rings import FiniteRing, is_division_ring, two_sided_ideals, units

__all__ = ["run", "main"]


class _Usage(Exception):
    pass


def _load_target(target: str, guards: Guards) -> FiniteRing:
    if os.path.exists(target):
        return load_ring_file(target, guards)
    return construct(target, guards)


def _parse_indices(ring: FiniteRing, text: str) -> list[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            val = int(tok)
        except ValueError:
            raise _Usage(f"element {tok!r} is not an integer index")
        if not 0 <= val < ring.order:
            raise _Usage(f"element {val} outside the carrier 0..{ring.order - 1}")
        out.append(val)
    if not out:
        raise _Usage("--set needs at least one element")
    return out


def _fmt_set(ring: FiniteRing, xs) -> str:
    return "{" + ", ".join(ring.name_of(x) for x in sorted(xs)) + "}"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# -- text renderers -------------------------------------------------------


def _render_info(label: str, ring: FiniteRing, ideals: list) -> str:
    u = units(ring)
    lines = [
        f"ring: {label} (order {ring.order})",
        f"zero: {ring.name_of(ring.zero)}  one: {ring.name_of(ring.one)}",
        f"units ({len(u)}): {_fmt_set(ring, u)}",
        f"two-sided ideals ({len(ideals)}):",
    ]
    lines += [f"  {_fmt_set(ring, i)}" for i in ideals]
    lines.append(f"canonical hash: {canonical_hash(ring)}")
    return "\n".join(lines)


def _info_doc(label: str, ring: FiniteRing, ideals: list) -> dict:
    return {
        "target": label,
        "order": ring.order,
        "zero": ring.zero,
        "one": ring.one,
        "units": sorted(units(ring)),
        "two_sided_ideals": [sorted(i) for i in ideals],
        "canonical_hash": canonical_hash(ring),
    }


def _render_ore(label: str, ring: FiniteRing, rep) -> str:
    lines = [
        f"ring: {label} (order {ring.order})",
        f"set: {_fmt_set(ring, rep.mulset.elements)}",
        f"left Ore: {_yesno(rep.left_ore.holds)}"
        + (f" (witness {rep.left_ore.witness})" if rep.left_ore.witness else ""),
        f"left denominator: {_yesno(rep.left_denominator.holds)}"
        + (f" (witness {rep.left_denominator.witness})" if rep.left_denominator.witness else ""),
        f"ass: {_fmt_set(ring, rep.annihilator)}",
    ]
    if rep.core is not None:
        lines.append(f"core: {_fmt_set(ring, rep.core)}")
    if rep.saturation is not None:
        lines.append(f"saturation: {_fmt_set(ring, rep.saturation.elements)}")
    lines.append(f"sidedness: {rep.sidedness}")
    return "\n".join(lines)


def _render_localize(label: str, ring: FiniteRing, fr) -> str:
    kernel = fr.sigma.kernel()
    names = [fr.ring.name_of(i) for i in range(fr.ring.order)]
    lines = [
        f"ring: {label} (order {ring.order})",
        f"denominator set: {_fmt_set(ring, fr.dens)}",
        f"ass: {_fmt_set(ring, kernel)}",
        f"fraction ring order: {fr.ring.order}",
        f"representatives: {', '.join(names)}",
        "quotient model: isomorphic to the quotient by ass",
    ]
    return "\n".join(lines)


def _render_profile(label: str, prof) -> str:
    ring = prof.ring
    lines = [
        f"ring: {label} (order {ring.order})",
        f"saturated denominator sets: {len(prof.saturated)}",
        f"maximal denominator sets: {len(prof.maximal)}",
    ]
    for a, s, fr in zip(prof.maximal_ass, prof.maximal, prof.localizations):
        division = " (division ring)" if fr.ring.order > 1 and is_division_ring(fr.ring) else ""
        lines.append(
            f"  set {_fmt_set(ring, s)}  ass {_fmt_set(ring, a)}"
            f"  localization order {fr.ring.order}{division}"
        )
    lines += [
        f"localization radical: {_fmt_set(ring, prof.radical)}",
        f"localizable elements: {_fmt_set(ring, prof.localizable)}",
        f"completely localizable elements: {_fmt_set(ring, prof.completely_localizable)}",
        f"non-localizable elements: {_fmt_set(ring, prof.non_localizable)}",
        f"left localizable: {_yesno(prof.verdict.localizable)}",
    ]
    for route in prof.verdict.routes:
        lines.append(f"  route {route.name}: {_yesno(route.value)}")
    dec = prof.decomposition
    if dec.succeeded:
        orders = ", ".join(str(f.order) for f in dec.factors)
        word = "single factor" if dec.n_factors == 1 else f"{dec.n_factors} factors"
        lines.append(f"splitting: {word} of order{'s' if dec.n_factors > 1 else ''} {orders}")
    else:
        lines.append("splitting: failed")
    for cond in dec.conditions:
        lines.append(f"  condition {cond.name}: {_yesno(cond.holds)}")
    return "\n".join(lines)


def _render_laws(label: str, ring: FiniteRing, results) -> str:
    lines = [f"ring: {label} (order {ring.order})"]
    for r in results:
        if not r.applicable:
            mark = "n/a "
        elif r.holds:
            mark = "pass"
        else:
            mark = "FAIL"
        lines.append(f"  {mark}  {r.law_id:<9}  {r.name}: {r.detail}")
    passed = sum(1 for r in results if r.holds and r.applicable)
    failed = sum(1 for r in results if not r.holds)
    na = sum(1 for r in results if not r.applicable)
    lines.append(f"checked {len(results)}, passed {passed}, failed {failed}, not applicable {na}")
    return "\n".join(lines)


# -- batch ----------------------------------------------------------------


_SUMMARY_HEADER = ("ring", "order", "|maxDen_l|", "|ll_R|", "localizable?", "decomposable?")


def _batch_entry(work: tuple) -> dict:
    """Analyze one manifest entry; run in a worker process."""
    spec, analyses, fmt, guards = work
    out: dict = {"target": spec, "status": "ok"}
    sections: list[str] = []
    docs: dict = {}
    try:
        ring = _load_target(spec, guards)
        for analysis in analyses:
            if analysis == "profile":
                prof = localization_profile(ring, guards)
                dec = prof.decomposition
                out["row"] = (
                    spec,
                    str(ring.order),
                    str(len(prof.maximal)),
                    str(len(prof.radical)),
                    _yesno(prof.verdict.localizable),
                    _yesno(dec.succeeded),
                )
                if fmt == "json":
                    docs["profile"] = prof.to_doc()
                else:
                    sections.append(_render_profile(spec, prof))
            elif analysis == "ore-report":
                rep = ore_report(MulSet(ring, units(ring)))
                if fmt == "json":
                    docs["ore_report"] = rep.to_doc()
                else:
                    sections.append(_render_ore(spec, ring, rep))
            elif analysis == "axioms":
                if fmt == "json":
                    docs["axioms"] = {"ok": True, "order": ring.order}
                else:
                    sections.append(f"ring: {spec} (order {ring.order})\naxioms: ok")
        if "row" not in out:
            out["row"] = (spec, str(ring.order), "-", "-", "-", "-")
    except SizeGuardExceeded as e:
        out["status"] = "guard"
        out["error"] = str(e)
    except (BadSpec, ParseError) as e:
        out["status"] = "parse"
        out["error"] = str(e)
    except OreLabError as e:
        out["status"] = "math"
        out["error"] = str(e)
    if out["status"] != "ok":
        out["row"] = (spec, "-", "-", "-", "-", "-")
        sections = [f"error ({out['status']}): {out['error']}"]
        docs = {}
    out["report"] = "\n\n".join(sections)
    out["docs"] = docs
    return out


def _render_summary(rows: list[tuple]) -> str:
    table = [_SUMMARY_HEADER] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(_SUMMARY_HEADER))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _slug(spec: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in spec).strip("-")


def _run_batch(args, guards: Guards, stdout) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = parse_manifest(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read manifest: {e}", file=stdout)
        return 2
    except ParseError as e:
        print(f"parse error: {e}", file=stdout)
        return 2
    jobs = args.jobs if args.jobs is not None else (manifest.jobs or 1)
    out_dir = args.out or manifest.out

    work = [(spec, manifest.analyses, args.format, guards) for spec in manifest.specs]
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_batch_entry, work))
    else:
        entries = [_batch_entry(w) for w in work]

    rows = [e["row"] for e in entries]
    if args.format == "json":
        doc = {
            "entries": [
                {
                    "target": e["target"],
                    "status": e["status"],
                    **({"error": e["error"]} if "error" in e else {}),
                    **e["docs"],
                }
                for e in entries
            ],
            "summary": [dict(zip(_SUMMARY_HEADER, r)) for r in rows],
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        parts = [f"== {e['target']} ==\n{e['report']}" for e in entries]
        failed = sum(1 for e in entries if e["status"] != "ok")
        parts.append("summary:\n" + _render_summary(rows))
        if failed:
            parts.append(f"{failed} of {len(entries)} entries failed")
        text = "\n\n".join(parts)
    print(text, file=stdout)

    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
            ext = "json" if args.format == "json" else "txt"
            for i, e in enumerate(entries):
                path = os.path.join(out_dir, f"{i:03d}_{_slug(e['target'])}.{ext}")
                with open(path, "w", encoding="utf-8") as fh:
                    if args.format == "json":
                        json.dump({"target": e["target"], "status": e["status"], **e["docs"]}, fh, indent=2, sort_keys=True)
                        fh.write("\n")
                    else:
                        fh.write(e["report"] + "\n")
            with open(os.path.join(out_dir, f"summary.{ext}"), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print(f"cannot write report: {e}", file=stdout)
            return 2

    statuses = {e["status"] for e in entries}
    if "math" in statuses:
        return 1
    if "parse" in statuses:
        return 2
    if "guard" in statuses:
        return 3
    return 0


# -- argument handling ----------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one argparse parser, built on the first run of a process;
    parsing leaves it unchanged, so every later run reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--guard-order", type=int, default=None, metavar="N")
    common.add_argument("--guard-bruteforce", type=int, default=None, metavar="N")
    common.add_argument("--out", default=None, metavar="DIR")

    parser = argparse.ArgumentParser(
        prog="orelab",
        description="Analyze left Ore localization on finite rings given by tables.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", parents=[common], help="order, units, ideals")
    p.add_argument("target")
    p = sub.add_parser("check-axioms", parents=[common], help="validate the ring axioms")
    p.add_argument("target")
    p = sub.add_parser("ore", parents=[common], help="analyze one multiplicative set")
    p.add_argument("target")
    p.add_argument("--set", required=True, metavar="I,J,K")
    p = sub.add_parser("localize", parents=[common], help="build the fraction ring at a set")
    p.add_argument("target")
    p.add_argument("--set", required=True, metavar="I,J,K")
    p = sub.add_parser("profile", parents=[common], help="full localization profile")
    p.add_argument("target")
    p = sub.add_parser("verify", parents=[common], help="run the law suite")
    p.add_argument("target")
    p.add_argument("--theorems", default="all", metavar="all|ID,ID")
    p = sub.add_parser("batch", parents=[common], help="run a manifest of rings")
    p.add_argument("--manifest", required=True)
    p.add_argument("--jobs", type=int, default=None, metavar="N")
    return parser


def _write_single_report(out_dir: str, verb: str, label: str, text: str, fmt: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    ext = "json" if fmt == "json" else "txt"
    path = os.path.join(out_dir, f"{verb}_{_slug(label)}.{ext}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def run(argv=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        guards = guards_from_env(DEFAULT_GUARDS).with_overrides(
            order=args.guard_order, brute_force=args.guard_bruteforce
        )
    except ValueError as e:
        print(f"bad guard value: {e}", file=stdout)
        return 2

    if args.verb == "batch":
        if args.jobs is not None and args.jobs < 1:
            print("--jobs must be positive", file=stdout)
            return 2
        return _run_batch(args, guards, stdout)

    exit_code = 0
    as_json = args.format == "json"
    try:
        ring = _load_target(args.target, guards)
        # each verb builds only the requested format: a JSON doc or the text
        if args.verb == "info":
            ideals = two_sided_ideals(ring, guards)
            out = (_info_doc if as_json else _render_info)(args.target, ring, ideals)
        elif args.verb == "check-axioms":
            if as_json:
                out = {"target": args.target, "order": ring.order, "axioms": "ok"}
            else:
                out = f"ring: {args.target} (order {ring.order})\naxioms: ok"
        elif args.verb == "ore":
            elems = _parse_indices(ring, args.set)
            try:
                mset = MulSet(ring, elems)
            except ValueError as e:
                raise _Usage(f"not a multiplicative set: {e}")
            rep = ore_report(mset)
            out = {"target": args.target, **rep.to_doc()} if as_json else _render_ore(args.target, ring, rep)
        elif args.verb == "localize":
            elems = _parse_indices(ring, args.set)
            try:
                mset = MulSet(ring, elems)
            except ValueError as e:
                raise _Usage(f"not a multiplicative set: {e}")
            fr = build_fraction_ring(ring, mset)
            quotient_model_isomorphism(fr)
            if as_json:
                out = {"target": args.target, **fr.to_doc(), "quotient_model": "isomorphic"}
            else:
                out = _render_localize(args.target, ring, fr)
        elif args.verb == "profile":
            prof = localization_profile(ring, guards)
            out = {"target": args.target, **prof.to_doc()} if as_json else _render_profile(args.target, prof)
        elif args.verb == "verify":
            if args.theorems.strip() == "all":
                ids = None
            else:
                ids = [t.strip() for t in args.theorems.split(",") if t.strip()]
                unknown = [t for t in ids if t not in law_ids()]
                if unknown:
                    raise _Usage(f"unknown theorem ids: {', '.join(unknown)}")
                if not ids:
                    raise _Usage("--theorems needs 'all' or a comma-separated id list")
            results = run_laws(ring, ids, guards)
            all_hold = all(r.holds for r in results)
            if as_json:
                out = {"target": args.target, "laws": [r.to_doc() for r in results], "all_hold": all_hold}
            else:
                out = _render_laws(args.target, ring, results)
            if not all_hold:
                exit_code = 1
        else:  # pragma: no cover - argparse restricts the verbs
            raise _Usage(f"unknown verb {args.verb!r}")
    except _Usage as e:
        print(f"usage error: {e}", file=stdout)
        return 2
    except (BadSpec, ParseError) as e:
        print(f"parse error: {e}", file=stdout)
        return 2
    except SizeGuardExceeded as e:
        print(f"size guard: {e}", file=stdout)
        return 3
    except OreLabError as e:
        print(f"mathematical check failed: {e}", file=stdout)
        return 1

    rendered = json.dumps(out, indent=2, sort_keys=True) if as_json else out
    print(rendered, file=stdout)
    if args.out:
        try:
            _write_single_report(args.out, args.verb, args.target, rendered, args.format)
        except OSError as e:
            print(f"cannot write report: {e}", file=stdout)
            return 2
    return exit_code


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
