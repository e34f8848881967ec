"""Command line front end.

Verbs: info, check-axioms, ore, localize, profile, verify, batch.
Targets are either constructor expressions like zmod(6) or paths to
ring table files.  Exit codes: 0 all checks passed, 1 a mathematical
check failed, 2 usage or parse error, 3 a size guard refused the work.

``run`` and ``batch`` share one front door: ``_report`` builds the report
of each verb (a batch analysis is a verb: profile, ore at the unit group,
check-axioms), ``_FAILURES`` maps each error type to its batch status,
exit code and message prefix, and ``_write_reports`` writes --out files.
A batch exits with the least nonzero code among its entries: a failed
mathematical check (1) over a parse error (2) over a size guard (3).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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


def _info_doc(ring: FiniteRing, ideals: list) -> dict:
    return {
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


# -- one report per verb, one failure table --------------------------------


def _parse_set(ring: FiniteRing, text: str) -> MulSet:
    """The multiplicative set named by a --set value."""
    elems = []
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
        elems.append(val)
    if not elems:
        raise _Usage("--set needs at least one element")
    try:
        return MulSet(ring, elems)
    except ValueError as e:
        raise _Usage(f"not a multiplicative set: {e}")


def _parse_theorems(text: str) -> list[str] | None:
    """The law ids named by a --theorems value; None for all of them."""
    if text.strip() == "all":
        return None
    ids = [t.strip() for t in text.split(",") if t.strip()]
    unknown = [t for t in ids if t not in law_ids()]
    if unknown:
        raise _Usage(f"unknown theorem ids: {', '.join(unknown)}")
    if not ids:
        raise _Usage("--theorems needs 'all' or a comma-separated id list")
    return ids


def _report(verb: str, label: str, ring: FiniteRing, args, guards: Guards) -> tuple:
    """One verb's report on one ring, for ``run`` and ``batch`` alike.

    Returns (out, code, found): out is the JSON doc without its target
    under --format json, else the text, and only that format is built;
    code is the exit code; found is the value the report was made from,
    which batch reads its summary row off.  An ``ore`` with no --set
    runs at the unit group.
    """
    as_json = args.format == "json"
    code = 0
    if verb == "info":
        found = two_sided_ideals(ring, guards)
        out = _info_doc(ring, found) if as_json else _render_info(label, ring, found)
    elif verb == "check-axioms":
        found = ring
        out = {"order": ring.order, "axioms": "ok"} if as_json else f"ring: {label} (order {ring.order})\naxioms: ok"
    elif verb == "ore":
        found = ore_report(MulSet(ring, units(ring)) if args.set is None else _parse_set(ring, args.set))
        out = found.to_doc() if as_json else _render_ore(label, ring, found)
    elif verb == "localize":
        found = build_fraction_ring(ring, _parse_set(ring, args.set))
        quotient_model_isomorphism(found)
        out = {**found.to_doc(), "quotient_model": "isomorphic"} if as_json else _render_localize(label, ring, found)
    elif verb == "profile":
        found = localization_profile(ring, guards)
        out = found.to_doc() if as_json else _render_profile(label, found)
    elif verb == "verify":
        found = run_laws(ring, _parse_theorems(args.theorems), guards)
        all_hold = all(r.holds for r in found)
        out = {"laws": [r.to_doc() for r in found], "all_hold": all_hold} if as_json else _render_laws(label, ring, found)
        code = 0 if all_hold else 1
    else:  # pragma: no cover - argparse and _ANALYSES restrict the verbs
        raise _Usage(f"unknown verb {verb!r}")
    return out, code, found


# How an error ends a report: (error types, batch status, exit code, message
# prefix).  The first row that matches decides, so the subclasses of
# OreLabError come before it.  Any other exception is a bug and propagates.
_FAILURES = (
    ((_Usage,), "usage", 2, "usage error"),
    ((BadSpec, ParseError), "parse", 2, "parse error"),
    ((SizeGuardExceeded,), "guard", 3, "size guard"),
    ((OreLabError,), "math", 1, "mathematical check failed"),
)
_FAILING = tuple(t for types, *_ in _FAILURES for t in types)
_EXIT_CODES = {status: code for _, status, code, _ in _FAILURES}


def _failure(e: Exception) -> tuple[str, int, str]:
    """The (batch status, exit code, message prefix) of a caught error."""
    return next(row[1:] for row in _FAILURES if isinstance(e, row[0]))


def _write_reports(out_dir: str, fmt: str, reports: dict, stdout) -> bool:
    """Write each report as ``out_dir/<stem>.txt`` (or ``.json``) with a final
    newline; if one cannot be written, say so on stdout and return False."""
    ext = "json" if fmt == "json" else "txt"
    try:
        os.makedirs(out_dir, exist_ok=True)
        for stem, text in reports.items():
            with open(os.path.join(out_dir, f"{stem}.{ext}"), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except OSError as e:
        print(f"cannot write report: {e}", file=stdout)
        return False
    return True


def _slug(spec: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in spec).strip("-")


# -- batch ----------------------------------------------------------------


_SUMMARY_HEADER = ("ring", "order", "|maxDen_l|", "|ll_R|", "localizable?", "decomposable?")

# manifest analysis -> (the verb that reports it, its key in a JSON entry)
_ANALYSES = {
    "profile": ("profile", "profile"),
    "ore-report": ("ore", "ore_report"),
    "axioms": ("check-axioms", "axioms"),
}


def _batch_entry(work: tuple) -> dict:
    """Analyze one manifest entry; run in a worker process."""
    spec, analyses, fmt, guards = work
    args = argparse.Namespace(format=fmt, set=None)
    sections: list[str] = []
    docs: dict = {}
    try:
        ring = _load_target(spec, guards)
        row = (spec, str(ring.order), "-", "-", "-", "-")
        for analysis in analyses:
            verb, key = _ANALYSES[analysis]
            out, _, found = _report(verb, spec, ring, args, guards)
            if verb == "profile":
                row = row[:2] + (
                    str(len(found.maximal)),
                    str(len(found.radical)),
                    _yesno(found.verdict.localizable),
                    _yesno(found.decomposition.succeeded),
                )
            if fmt != "json":
                sections.append(out)
            elif verb == "check-axioms":
                docs[key] = {"ok": out["axioms"] == "ok", "order": out["order"]}
            else:
                docs[key] = out
    except _FAILING as e:
        status = _failure(e)[0]
        return {"target": spec, "status": status, "error": str(e), "row": (spec,) + ("-",) * 5,
                "report": f"error ({status}): {e}", "docs": {}}
    return {"target": spec, "status": "ok", "row": row, "report": "\n\n".join(sections), "docs": docs}


def _render_summary(rows: list[tuple]) -> str:
    table = [_SUMMARY_HEADER] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(_SUMMARY_HEADER))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _run_batch(args, guards: Guards, stdout) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = parse_manifest(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read manifest: {e}", file=stdout)
        return 2
    except _FAILING as e:
        _, code, prefix = _failure(e)
        print(f"{prefix}: {e}", file=stdout)
        return code
    jobs = args.jobs if args.jobs is not None else (manifest.jobs or 1)
    out_dir = args.out or manifest.out

    work = [(spec, manifest.analyses, args.format, guards) for spec in manifest.specs]
    # a fork pool starts all of its workers at once, so it gets no more than
    # there are entries to run and CPUs to run them on
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays for its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_batch_entry, work))
    else:
        entries = [_batch_entry(w) for w in work]

    rows = [e["row"] for e in entries]
    # files are generators: a report file's text is built only when --out writes it
    if args.format == "json":
        docs = [{k: e[k] for k in ("target", "status", "error") if k in e} | e["docs"] for e in entries]
        text = json.dumps({"entries": docs, "summary": [dict(zip(_SUMMARY_HEADER, r)) for r in rows]},
                          indent=2, sort_keys=True)
        files = (json.dumps(d, indent=2, sort_keys=True) for d in docs)
    else:
        parts = [f"== {e['target']} ==\n{e['report']}" for e in entries]
        failed = sum(1 for e in entries if e["status"] != "ok")
        parts.append("summary:\n" + _render_summary(rows))
        if failed:
            parts.append(f"{failed} of {len(entries)} entries failed")
        text = "\n\n".join(parts)
        files = (e["report"] for e in entries)
    print(text, file=stdout)

    if out_dir:
        reports = {f"{i:03d}_{_slug(e['target'])}": f for i, (e, f) in enumerate(zip(entries, files))}
        reports["summary"] = text
        if not _write_reports(out_dir, args.format, reports, stdout):
            return 2
    # the least nonzero code: a math failure over a parse error over a guard
    return min((_EXIT_CODES[e["status"]] for e in entries if e["status"] != "ok"), default=0)


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

    try:
        ring = _load_target(args.target, guards)
        out, exit_code, _ = _report(args.verb, args.target, ring, args, guards)
    except _FAILING as e:
        _, code, prefix = _failure(e)
        print(f"{prefix}: {e}", file=stdout)
        return code

    if args.format == "json":
        out = json.dumps({"target": args.target, **out}, indent=2, sort_keys=True)
    print(out, file=stdout)
    if args.out and not _write_reports(args.out, args.format, {f"{args.verb}_{_slug(args.target)}": out}, stdout):
        return 2
    return exit_code


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
