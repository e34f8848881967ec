"""Oversized specs end in exit 3 (size guard) or 2 (bad spec), never in a
traceback: sizes are compared before anything is built or multiplied, a
huge size is stated compactly, and a huge integer literal is refused.

Each spec runs in a child process capped at 2 GB of address space, so a
regression fails there instead of exhausting the machine."""

import os
import resource
import subprocess
import sys

import pytest

from orelab import SizeGuardExceeded, construct, direct_product

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BIG = "9" * 5000


def _capped():
    cap = 2_000_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _child(args, timeout=60):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("ORELAB_GUARD_ORDER", None)
    env.pop("ORELAB_GUARD_BRUTEFORCE", None)
    return subprocess.run([sys.executable, *args], env=env, preexec_fn=_capped,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("spec, code, message", [
    ("matrix(gf(4),200)", 3, "size guard: matrix ring of order 4^40000: size 4^40000 exceeds guard 256"),
    ("upper_triangular(gf(2),3000)", 3,
     "size guard: matrix ring of order 2^4501500: size 2^4501500 exceeds guard 256"),
    ("matrix(gf(4),9999)", 3, "size guard: matrix ring of order 4^99980001: size 4^99980001 exceeds guard 256"),
    ("product(" + ",".join(["gf(9)"] * 5000) + ")", 3,
     "size guard: direct product of the first 3 of 5000 factors: size 729 exceeds guard 256"),
    (f"zmod({BIG})", 2, "parse error: integer literal longer than 18 digits at position 5 in "),
    (f"gf({BIG})", 2, "parse error: integer literal longer than 18 digits at position 3 in "),
    (f"matrix(zmod({BIG}),2)", 2, "parse error: integer literal longer than 18 digits at position 12 in "),
])
def test_oversized_spec_exits_with_one_line(spec, code, message):
    run = _child(["-m", "orelab.cli", "info", spec])
    assert run.returncode == code, run.stderr[-2000:]
    assert run.stderr == ""
    assert run.stdout.count("\n") == 1 and run.stdout.startswith(message)


@pytest.mark.parametrize("spec", [
    f"zmod({BIG})", f"gf({BIG})", f"matrix(zmod({BIG}),2)", "opposite(" * 5000 + "zmod(2)" + ")" * 5000,
], ids=["zmod", "gf", "matrix", "nested"])
def test_a_refused_spec_is_quoted_by_its_head(spec):
    run = _child(["-m", "orelab.cli", "info", spec])
    assert run.returncode == 2, run.stderr[-2000:]
    assert run.stdout.count("\n") == 1 and len(run.stdout) < 200
    assert f"{spec[:40]!r}..." in run.stdout


def test_matrix_guard_trips_before_any_allocation():
    script = (
        "import tracemalloc\n"
        "from orelab import SizeGuardExceeded, construct\n"
        "base = construct('gf(4)')\n"
        "from orelab.catalog import _matrix_ring\n"
        "from orelab import DEFAULT_GUARDS\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    _matrix_ring(base, 9999, False, DEFAULT_GUARDS)\n"
        "except SizeGuardExceeded:\n"
        "    print(tracemalloc.get_traced_memory()[1])\n"
    )
    run = _child(["-c", script])
    assert run.returncode == 0, run.stderr[-2000:]
    assert int(run.stdout) < 64 * 1024


def test_small_sizes_are_stated_in_full():
    with pytest.raises(SizeGuardExceeded, match=r"^matrix ring of order 3\^9: size 19683 exceeds guard 256$"):
        construct("matrix(gf(3),3)")
    with pytest.raises(SizeGuardExceeded, match=r"^direct product: size 512 exceeds guard 256$"):
        construct("product(zmod(16),zmod(32))")
    with pytest.raises(SizeGuardExceeded, match=r"^direct product of the first 2 of 3 factors: size 400 "):
        construct("product(zmod(200),zmod(2),zmod(2))")


def test_a_huge_product_is_stated_by_its_digit_count():
    gf9 = construct("gf(9)")
    with pytest.raises(SizeGuardExceeded, match=r"^direct product: size of 4772 digits exceeds guard 256$"):
        direct_product(*[gf9] * 5000)


def test_an_eighteen_digit_literal_still_parses():
    with pytest.raises(SizeGuardExceeded, match=r"^zmod\(999999999999999999\): size 999999999999999999 "):
        construct("zmod(999999999999999999)")
