"""Command line behavior: verbs, exit codes, formats, batch determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

from orelab import DEFAULT_CATALOG, DEFAULT_GUARDS, BadSpec, Guards, construct, parse_spec, save_ring_file
from orelab.cli import _batch_entry, run


def _run(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


def test_profile_text():
    code, out = _run(["profile", "zmod(6)"])
    assert code == 0
    assert "maximal denominator sets: 2" in out
    assert "left localizable: yes" in out
    assert "route every-nonzero-element-localizable: yes" in out


def test_profile_json():
    code, out = _run(["profile", "zmod(6)", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == "zmod(6)"
    assert doc["localizable"] == [1, 2, 3, 4, 5]


def test_ore_reference_example():
    code, out = _run(["ore", "zmod(6)", "--set", "1,3"])
    assert code == 0
    assert "left Ore: yes" in out
    assert "left denominator: yes" in out
    assert "ass: {0, 2, 4}" in out
    assert "core: {3}" in out


def test_localize_verb():
    code, out = _run(["localize", "zmod(6)", "--set", "1,3"])
    assert code == 0
    assert "fraction ring order: 2" in out
    assert "quotient model: isomorphic" in out


def test_verify_single_theorem():
    code, out = _run(["verify", "zmod(4)", "--theorems", "29Nov12"])
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_verify_all(z6):
    code, out = _run(["verify", "zmod(6)", "--theorems", "all"])
    assert code == 0
    assert "checked 22, passed 22, failed 0" in out


def test_info_verb():
    code, out = _run(["info", "gf(4)"])
    assert code == 0
    assert "units (3): {1, x, x+1}" in out
    assert "canonical hash:" in out


def test_check_axioms_ok():
    code, out = _run(["check-axioms", "upper_triangular(gf(2),2)"])
    assert code == 0
    assert "axioms: ok" in out


def test_file_target(tmp_path, t2f2):
    path = tmp_path / "ring.txt"
    save_ring_file(t2f2, str(path))
    code, out = _run(["info", str(path)])
    assert code == 0
    assert "(order 8)" in out


def test_check_axioms_broken_file(tmp_path, z4):
    path = tmp_path / "broken.ring"
    save_ring_file(z4, str(path))
    lines = path.read_text().splitlines()
    mul_at = lines.index("mul")
    row = lines[mul_at + 3].split()
    row[-1] = "1" if row[-1] != "1" else "2"
    lines[mul_at + 3] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    code, out = _run(["check-axioms", str(path)])
    assert code == 1
    assert "mathematical check failed" in out


def test_usage_errors():
    assert _run(["profile", "zmod(nope)"])[0] == 2
    assert _run(["verify", "zmod(6)", "--theorems", "bogus"])[0] == 2
    assert _run(["ore", "zmod(6)", "--set", "2,4"])[0] == 2
    assert _run(["ore", "zmod(6)", "--set", "1,99"])[0] == 2
    assert _run(["localize", "zmod(6)", "--set", ""])[0] == 2
    assert _run(["info", "no/such/file.ring"])[0] == 2


def test_profile_opposite_spec():
    code, out = _run(["profile", "opposite(upper_triangular(gf(2),2))"])
    assert code == 0
    assert out.startswith("ring: opposite(upper_triangular(gf(2),2)) (order 8)")


def test_module_entry_point():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "orelab.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    ok = module("info", "zmod(4)")
    assert ok.returncode == 0
    assert ok.stdout.startswith("ring: zmod(4) (order 4)\n")
    bad = module("info", "zmod(nope)")
    assert bad.returncode == 2
    assert bad.stdout.startswith("parse error:")


def _nested(depth: int) -> str:
    return "quotient(" * depth + "zmod(4)" + ",0)" * depth


def test_deep_nesting_exit_code(tmp_path):
    deep = _nested(2000)
    code, out = _run(["info", deep])
    assert code == 2 and out.startswith("parse error:")
    work = (deep, ("profile",), "json", DEFAULT_GUARDS)
    assert _batch_entry(work)["status"] == "parse"
    manifest = tmp_path / "deep.txt"
    manifest.write_text(f"ring zmod(4)\nring {deep}\n")
    code, out = _run(["batch", "--manifest", str(manifest)])
    assert code == 2 and out.startswith("parse error:")


def test_nesting_at_the_recursion_limit_ends_in_an_exit_code():
    # building recurses a few frames deeper than parsing, so the depths just
    # below the deepest parsable spec must be refused cleanly as well
    lo, hi = 1, sys.getrecursionlimit()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse_spec(_nested(mid))
            lo = mid
        except BadSpec:
            hi = mid - 1
    codes = {_run(["info", _nested(d)])[0] for d in range(lo - 12, lo + 2)}
    assert codes == {0, 2}


def test_guard_exit_code():
    assert _run(["profile", "matrix(gf(3),3)"])[0] == 3
    assert _run(["profile", "zmod(6)", "--guard-order", "4"])[0] == 3


def test_ring_file_obeys_the_order_guard(tmp_path):
    path = tmp_path / "z300.ring"
    save_ring_file(construct("zmod(300)", Guards(order=300)), str(path))
    code, out = _run(["info", str(path)])
    assert code == 3 and out.startswith(f"size guard: ring file {path}: size 300")
    assert _run(["check-axioms", f"file({path})"])[0] == 3
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"ring file({path})\nanalysis axioms\n")
    code, out = _run(["batch", "--manifest", str(manifest), "--jobs", "1"])
    assert code == 3 and "error (guard): ring file" in out
    assert _run(["check-axioms", str(path), "--guard-order", "300"])[0] == 0


def test_batch_workers_receive_the_guards(tmp_path):
    # the Guards object itself goes to each worker process, overrides included
    manifest = tmp_path / "m.txt"
    manifest.write_text("ring zmod(2)\nring zmod(6)\nanalysis axioms\n")
    code, out = _run(["batch", "--manifest", str(manifest), "--jobs", "2", "--guard-order", "4"])
    assert code == 3
    assert "error (guard): zmod(6): size 6 exceeds guard 4" in out
    assert "axioms: ok" in out  # zmod(2) fits the guard


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("ORELAB_GUARD_ORDER", "4")
    assert _run(["profile", "zmod(6)"])[0] == 3
    # explicit flag wins over the environment
    assert _run(["profile", "zmod(6)", "--guard-order", "64"])[0] == 0
    monkeypatch.setenv("ORELAB_GUARD_ORDER", "not-a-number")
    assert _run(["profile", "zmod(6)"])[0] == 2


def test_math_failure_exit_code(tmp_path):
    # a denominator-set failure during localize is a math error, not usage
    code, out = _run(["localize", "upper_triangular(gf(2),2)", "--set", "4,5,6,7"])
    assert code == 1
    assert "failed" in out


def test_out_dir(tmp_path):
    out_dir = tmp_path / "reports"
    code, _ = _run(["profile", "zmod(6)", "--out", str(out_dir)])
    assert code == 0
    files = os.listdir(out_dir)
    assert len(files) == 1 and files[0].startswith("profile_")


def test_unwritable_out_exits_2(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out = _run(["info", "zmod(4)", "--out", str(taken)])
    assert code == 2 and out.splitlines()[-1].startswith("cannot write report:")


def test_batch_unwritable_out_exits_2(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    manifest = tmp_path / "m.txt"
    manifest.write_text("ring zmod(4)\n")
    code, out = _run(["batch", "--manifest", str(manifest), "--jobs", "1", "--out", str(taken)])
    assert code == 2 and out.splitlines()[-1].startswith("cannot write report:")


def test_batch_roundtrip(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        "ring zmod(6)\nring zmod(4)\nring matrix(gf(3),3)\nanalysis profile\n"
    )
    code1, out1 = _run(["batch", "--manifest", str(manifest), "--jobs", "1"])
    code2, out2 = _run(["batch", "--manifest", str(manifest), "--jobs", "4"])
    assert code1 == code2 == 3  # the guard entry fails, others succeed
    assert out1 == out2
    assert "1 of 3 entries failed" in out1
    assert "|maxDen_l|" in out1


def test_batch_pool_is_bounded_by_the_entries(tmp_path, monkeypatch):
    # a fork pool starts max_workers processes at its first submit; this
    # fake records the request, maps serially and starts no process
    import concurrent.futures

    asked = []

    class SerialExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    manifest = tmp_path / "m.txt"
    manifest.write_text("ring zmod(6)\nring gf(4)\nanalysis axioms\n")
    serial = _run(["batch", "--manifest", str(manifest), "--jobs", "1"])
    assert asked == []
    assert _run(["batch", "--manifest", str(manifest), "--jobs", "10000"]) == serial
    manifest.write_text("ring zmod(6)\nring gf(4)\nanalysis axioms\njobs 10000\n")
    assert _run(["batch", "--manifest", str(manifest)]) == serial
    assert asked == [2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _run(["batch", "--manifest", str(manifest)]) == serial
    assert asked == [2, 2]  # one CPU known: the serial path


def test_batch_empty(tmp_path):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("# nothing to do\n")
    code, out = _run(["batch", "--manifest", str(manifest)])
    assert code == 0
    assert "summary:" in out


def test_batch_json_and_out(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("ring zmod(6)\nring gf(4)\nanalysis profile\nanalysis axioms\n")
    out_dir = tmp_path / "reports"
    code, out = _run(
        ["batch", "--manifest", str(manifest), "--format", "json", "--out", str(out_dir)]
    )
    assert code == 0
    doc = json.loads(out)
    assert [e["target"] for e in doc["entries"]] == ["zmod(6)", "gf(4)"]
    assert doc["summary"][0]["localizable?"] == "yes"
    assert doc["entries"][0]["axioms"] == {"ok": True, "order": 6}
    assert sorted(os.listdir(out_dir)) == ["000_zmod-6.json", "001_gf-4.json", "summary.json"]


def test_failed_batch_entry_keeps_its_error_in_its_out_file(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("ring zmod(1)\nring matrix(gf(3),3)\nring zmod(4)\n")
    out_dir = tmp_path / "reports"
    code, out = _run(["batch", "--manifest", str(manifest), "--format", "json", "--out", str(out_dir)])
    assert code == 2
    entries = json.loads(out)["entries"]
    for i, name in enumerate(["000_zmod-1.json", "001_matrix-gf-3--3.json", "002_zmod-4.json"]):
        assert json.loads((out_dir / name).read_text()) == entries[i]
    assert entries[0]["error"] == "zmod(n) needs n >= 2"
    assert entries[1]["error"] == "matrix ring of order 3^9: size 19683 exceeds guard 256"
    assert "error" not in entries[2]


def test_import_leaves_the_process_pool_unloaded():
    # concurrent.futures is imported only by a batch with --jobs above 1
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import sys, orelab.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_batch_missing_manifest(tmp_path):
    assert _run(["batch", "--manifest", "/definitely/missing.txt"])[0] == 2
    undecodable = tmp_path / "manifest.bin"
    undecodable.write_bytes(b"\xff\xfe\x00")
    code, out = _run(["batch", "--manifest", str(undecodable)])
    assert code == 2 and out.startswith("cannot read manifest:")


def test_undecodable_ring_file_is_a_parse_error(tmp_path):
    path = tmp_path / "ring.bin"
    path.write_bytes(b"\xff\xfe\x00")
    code, out = _run(["info", str(path)])
    assert code == 2 and out.startswith("parse error:")


def test_unknown_verb_and_missing_args():
    assert run(["frobnicate", "zmod(6)"], stdout=io.StringIO()) == 2
    assert run(["ore", "zmod(6)"], stdout=io.StringIO()) == 2  # --set required


@pytest.mark.parametrize("at,line,message", [
    (1, "one 9", "line 2: identity index 9 outside 0..3"),
    (-1, "a a b c", "line 15: names row repeats the name 'a'"),
])
def test_bad_identity_or_repeated_name_is_a_parse_error(tmp_path, z4, at, line, message):
    path = tmp_path / "z4.ring"
    save_ring_file(z4, str(path))
    lines = path.read_text().splitlines()
    lines[at] = line
    path.write_text("\n".join(lines) + "\n")
    code, out = _run(["check-axioms", str(path)])
    assert (code, out) == (2, f"parse error: {message}\n")


def test_check_axioms_oversized_entry(tmp_path, z4):
    # an entry too large for int64 is refused like any entry outside the carrier
    path = tmp_path / "oversized.ring"
    save_ring_file(z4, str(path))
    lines = path.read_text().splitlines()
    row_at = lines.index("mul") + 2  # the row of 1
    row = lines[row_at].split()
    row[1] = "99999999999999999999999"
    lines[row_at] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "orelab.cli", "check-axioms", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert "ring axiom 'closure' fails at ('mul', 1, 1)" in done.stdout
    assert "Traceback" not in done.stderr


# -- one parser per process, one rendering per call -------------------------


def test_the_parser_is_built_once_per_process(monkeypatch):
    import argparse

    from orelab import cli

    made = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for argv in (["info", "zmod(4)"], ["check-axioms", "gf(4)", "--format", "json"],
                 ["ore", "zmod(6)", "--set", "1,5"], ["info", "zmod(4)", "--bogus"],
                 ["profile", "zmod(6)"], ["info", "zmod(4)"]):
        _run(argv)
    in_runs = list(made)
    made.clear()
    cli._build_parser.__wrapped__()
    assert in_runs == made and "orelab" in made
    assert cli._build_parser.cache_info().misses == 1


INTERLEAVED = [
    ["ore", "zmod(6)", "--set", "1,3"],
    ["info", "gf(4)", "--format", "json"],
    ["verify", "zmod(4)", "--theorems", "29Nov12,a4Dec12"],
    ["profile", "zmod(6)", "--no-such-flag"],
    ["profile", "upper_triangular(gf(2),2)"],
    ["ore", "zmod(6)", "--set", "1,3", "--format", "json"],
]

_RUN_CALLS = """
import contextlib, io, json, sys
from orelab.cli import run
out = []
for argv in json.loads(sys.argv[1]):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, stdout=buf)
    out.append([code, buf.getvalue(), err.getvalue()])
print(json.dumps(out))
"""


def test_a_reused_parser_answers_as_a_fresh_process(monkeypatch):
    # the same calls in one process, and in a fresh one in the other order
    import contextlib

    monkeypatch.setenv("COLUMNS", "80")
    here = []
    for argv in INTERLEAVED:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv, stdout=buf)
        here.append([code, buf.getvalue(), err.getvalue()])
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _RUN_CALLS, json.dumps(INTERLEAVED[::-1])],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    fresh = json.loads(done.stdout)[::-1]
    assert [c for c, _, _ in here] == [0, 0, 0, 2, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in here[3][2]
    assert here == fresh


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_info_hashes_and_lists_units_once(monkeypatch, fmt):
    from orelab import cli

    calls = []

    def counted(name):
        real = getattr(cli, name)

        def wrapper(ring):
            calls.append(name)
            return real(ring)

        return wrapper

    for name in ("canonical_hash", "units"):
        monkeypatch.setattr(cli, name, counted(name))
    code, out = _run(["info", "zmod(12)", "--format", fmt])
    assert code == 0 and "canonical" in out
    assert sorted(calls) == ["canonical_hash", "units"]


# sha256 of every output of the six single-target verbs in both formats on
# the catalog rings, recorded before each verb stopped building the format it
# does not print; a deliberate change of an output must update its digest
OUTPUT_DIGESTS = {
    "info text": "923cafcdec83ee03c5e146a284728c2bbe664e9f3ac60f0074288eae72d2655c",
    "info json": "832a3b5ab64c3fd11f4a0afde574c4122cb4004bfad6bd99226543a4e92f7ca2",
    "check-axioms text": "0b79603062a76dbfd514e2abf9a5e723d5fd9579f92a761bc9d69204828a1a99",
    "check-axioms json": "8df9996e79b6c9058d360b03d00c76951e014fd1bb26d5a0e400d7b2d92c8faa",
    "ore text": "818b981171b0df11875f81e4f7e78e5f789f1db7ae37f9b2ed8d20fdc7576f98",
    "ore json": "44866f2661edad8a1e3810307564692dd7dcb499fa0e622e892552561a1c1fce",
    "localize text": "8ee4c9fe63401166e23f6fe34f8f596043a64af4415ebc668b6b5f122231824d",
    "localize json": "b8977dcf3d62ffbc5cd76f2773f553232f307a40f18179fea8f34b10b54bf591",
    "profile text": "f9e0d8adc8e0eb5ce8234c18edb1fb9def517c1fb7ce9eb828283a465e6f965f",
    "profile json": "45eff0c498ba2495f6c9b857ad43fb995694061f2bddf3a7130c56bb3bf167c1",
    "verify text": "308741a47a406c7c7b580e5d24e516b9b4b289a6aa89ed5fc6726d6e9d90d707",
    "verify json": "e6c9929c44e480f9353ccdfcc90f7ebb2e02e944e815a013c6d40406a5733fb3",
}


@pytest.mark.parametrize("key", list(OUTPUT_DIGESTS))
def test_catalog_outputs_are_unchanged(catalog_rings, catalog_profiles, key):
    # ore and localize run at the unit group and at each maximal denominator set
    import hashlib

    from orelab import units

    verb, fmt = key.split()
    digest = hashlib.sha256()
    for spec in DEFAULT_CATALOG:
        if verb in ("ore", "localize"):
            sets = [sorted(units(catalog_rings[spec]))] + [sorted(s) for s in catalog_profiles[spec].maximal]
            argvs = [[verb, spec, "--set", ",".join(map(str, s))] for s in sets]
        else:
            argvs = [[verb, spec]]
        for argv in argvs:
            code, out = _run(argv + ["--format", fmt])
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == OUTPUT_DIGESTS[key]


# sha256 of batch over the catalog plus a guard entry and an entry that fails
# to build, with all three analyses, in both formats with --out, recorded
# before run and batch came to share one report function per verb, then
# re-pinned when a failed entry's --out JSON file came to carry its error
BATCH_DIGEST = "42c77171ff57a44e2cc4dc1a2eced755cc9c3789d543cc41c057fe8ee7053d35"


def test_catalog_batch_outputs_are_unchanged(tmp_path):
    import hashlib

    manifest = tmp_path / "catalog.txt"
    specs = list(DEFAULT_CATALOG) + ["matrix(gf(3),3)", "zmod(1)"]
    manifest.write_text("".join(f"ring {s}\n" for s in specs)
                        + "analysis profile\nanalysis ore-report\nanalysis axioms\n")
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        out_dir = tmp_path / fmt
        code, out = _run(["batch", "--manifest", str(manifest), "--format", fmt, "--out", str(out_dir)])
        assert code == 2
        digest.update(f"{code}\n{out}".encode())
        for name in sorted(os.listdir(out_dir)):
            digest.update((out_dir / name).read_bytes())
    assert digest.hexdigest() == BATCH_DIGEST


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_exit_code_prefers_math_then_parse_then_guard(tmp_path, z4, jobs):
    broken = tmp_path / "broken.ring"
    save_ring_file(z4, str(broken))
    lines = broken.read_text().splitlines()
    at = lines.index("mul") + 3  # the row of 2
    row = lines[at].split()
    row[-1] = "1" if row[-1] != "1" else "2"
    lines[at] = " ".join(row)
    broken.write_text("\n".join(lines) + "\n")
    specs = [f"file({broken})", "zmod(1)", "matrix(gf(3),3)", "zmod(4)"]
    manifest = tmp_path / "m.txt"
    for first, want in ((0, 1), (1, 2), (2, 3), (3, 0)):
        manifest.write_text("".join(f"ring {s}\n" for s in specs[first:]))
        code, out = _run(["batch", "--manifest", str(manifest), "--jobs", jobs])
        assert code == want, out
        failed = 3 - first
        assert (f"{failed} of {4 - first} entries failed" in out) == (failed > 0)
