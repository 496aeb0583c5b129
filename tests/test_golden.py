"""Golden reports: CLI stdout on a small spec corpus, compared byte for byte.

Every report is built from Howell forms, which are canonical per span, so a
refactor of the linear algebra must leave these outputs unchanged.  The
expected files under ``tests/golden/`` are rewritten from the current code
with ``PYTHONPATH=src python tests/test_golden.py --record``; do that only for
a deliberate report-format change.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from groupshift.cli import main

GOLDEN = Path(__file__).parent / "golden"
SPECS = ["full-z4", "delay-rep", "z6", "z8-z4", "z9-z3", "order-witness",
         "scale-witness", "mixed-witness", "catastrophic", "cut-block", "long-span"]
#: Specs that are not order-controllable and have no encoder to encode with.
NEGATIVE = {"order-witness": 1, "scale-witness": 1, "mixed-witness": 1}
#: Order-controllable specs whose canonical encoder `certify` refuses, so
#: that they are not encoded with either.
REFUSED = {"catastrophic": 1, "cut-block": 1}

#: (command arguments before the spec, extra trailing argument, exit code)
COMMANDS = {
    "analyze": (["analyze"], [], NEGATIVE),
    "generators": (["generators"], [], NEGATIVE),
    "certify-window": (["certify", "--window", "0:2"], [], {**NEGATIVE, **REFUSED}),
    "certify-presentation": (["certify", "--check-presentation"], [],
                             {"z6": 2, "z8-z4": 1, "z9-z3": 1, **NEGATIVE,
                              "mixed-witness": 2, **REFUSED}),
    "oracle": (["oracle", "--window", "0:1"], [], {}),
    "encode": (["encode"], ["{spec}.msg"], {}),
    "encode-window": (["encode", "--window=-1:2"], ["{spec}.msg"], {}),
    "encode-long": (["encode"], ["{spec}-long.msg"], {}),
    "encode-long-window": (["encode", "--window=100:140"], ["{spec}-long.msg"], {}),
}

# Only the delay rep has a long (600-symbol) message: its length-2 tap
# overlaps at every position, so the encode sum is checked where placed taps
# collide.  The order-witness spec pins the failing search's witness; the
# scale-witness spec fails at two scales with different witnesses at the
# last candidate, so it pins the first failing scale in ascending order.
# The mixed-witness spec fails the order search over Z/12, so it pins the
# witness on a composite modulus; its generator has order 12, so the
# presentation audit refuses it as a usage error.  The catastrophic spec's
# canonical encoder fails independent-block and noncatastrophic: the F_2[D]
# determinant of its torsion words is (1+D)^2.  The cut-block spec's is
# basic but fails independent-block, as a torsion word placed at -1 and cut
# at the block's left edge equals the other one at 0.  The long-span spec
# (span 23) has indices 22 and memory 21, past the fixed caps 16 and 8 that
# the defaults were before they rose to the near-end fixed reach R = 44.
CASES = [(spec, name) for spec in SPECS for name in COMMANDS
         if (spec == "delay-rep" or "-long" not in name)
         and (spec not in {**NEGATIVE, **REFUSED} or not name.startswith("encode"))]


def _argv(spec: str, name: str) -> tuple[list[str], int]:
    head, tail, codes = COMMANDS[name]
    argv = head + [str(GOLDEN / f"{spec}.spec")]
    argv += [str(GOLDEN / t.format(spec=spec)) for t in tail]
    return argv, codes.get(spec, 0)


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("spec, name", CASES)
def test_golden_report(spec, name):
    argv, expected_code = _argv(spec, name)
    code, out = _run(argv)
    assert out == (GOLDEN / f"{spec}.{name}.out").read_text(encoding="utf-8")
    assert code == expected_code


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    for spec, name in CASES:
        argv, _ = _argv(spec, name)
        _, out = _run(argv)
        (GOLDEN / f"{spec}.{name}.out").write_text(out, encoding="utf-8")
