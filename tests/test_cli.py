import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshift.cli import main
from groupshift.specfmt import SpecParseError, parse_message, parse_spec
from groupshift.groups import FiniteAbelianGroup, parse_orders

from conftest import format_spec


FULL_Z4 = "group: Z4\ngen @0: 1\n"
DELAY_REP = "group: Z2 x Z2\ngen @0: (1,0) (0,1)\n"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# -- parsing -------------------------------------------------------------------


def test_parse_simple_spec():
    spec = parse_spec("group: Z2\ngen @0: 1 1\n")
    assert spec.shift.alphabet.orders == (2,)
    assert [w.format() for w in spec.shift.generators] == ["@0: 1 1"]


def test_parse_two_factor_negative_start():
    spec = parse_spec("group: Z4 x Z2\ngen @-1: (1,0) (2,1)\n")
    w = spec.shift.generators[0]
    assert (w.first, w.last) == (-1, 0)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SpecParseError) as err:
        parse_spec("group: Z4\ngen @0: 7\n")
    assert err.value.line_no == 2
    with pytest.raises(SpecParseError):
        parse_spec("group: Z0\n")
    with pytest.raises(SpecParseError):
        parse_spec("group: Z4\ngen @0:\n")
    with pytest.raises(SpecParseError):
        parse_spec("gen @0: 1\n")
    with pytest.raises(SpecParseError):
        parse_spec("group: Z4\nmemory: 0\n")


@pytest.mark.parametrize("key", ["memory", "horizon"])
def test_repeated_spec_key_is_a_parse_error(tmp_path, capsys, key):
    text = f"group: Z4\ngen @0: 1\n{key}: 2\n{key}: 3\n"
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert err.value.line_no == 4
    path = tmp_path / "repeated.spec"
    path.write_text(text)
    code, out = run_cli(["analyze", str(path)], capsys)
    assert code == 2
    assert f"line 4: duplicate {key} line" in out


def test_spec_roundtrip():
    text = "group: Z4 x Z2\nmemory: 2\ngen @-1: (1,0) (2,1)\ngen @0: (0,1)\n"
    spec = parse_spec(text)
    assert parse_spec(format_spec(spec)) == spec


def test_parse_message_roundtrip():
    src = FiniteAbelianGroup.parse("Z4")
    msg = parse_message("0: 1\n2: 3\n", src)
    assert msg.value_at(0) == (1,) and msg.value_at(2) == (3,)
    with pytest.raises(SpecParseError):
        parse_message("0: 9\n", src)
    with pytest.raises(SpecParseError):
        parse_message("0: 1\n0: 2\n", src)


# -- commands ------------------------------------------------------------------


def test_certify_full_shift_exit_zero(tmp_path, capsys):
    path = tmp_path / "full-z4.spec"
    path.write_text(FULL_Z4)
    code, out = run_cli(["certify", str(path)], capsys)
    assert code == 0
    assert "certificate: complete" in out
    assert "verdict: pass" in out
    assert "encoder.tap.1: @0: 1" in out


def test_generators_and_certify_at_the_largest_prime_modulus(tmp_path, capsys):
    # the initial-value projection of Z/(2^31 - 1) has 2^31 - 1 elements, so
    # a generator pick that listed them ran out of memory
    path = tmp_path / "large-prime.spec"
    path.write_text("group: Z2147483647\ngen @0: 1 5\n")
    code, out = run_cli(["generators", str(path)], capsys)
    assert code == 0
    code, out = run_cli(["certify", str(path)], capsys)
    assert code == 0
    assert "certificate: complete" in out


def test_analyze_delay_rep(tmp_path, capsys):
    path = tmp_path / "delay.spec"
    path.write_text(DELAY_REP)
    code, out = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    assert "controllability_index: 1" in out
    assert "order_controllability_index: 1" in out
    assert "finite_type_memory: 1" in out


def test_finite_type_memory_reads_no_window_horizon(tmp_path, capsys):
    # the delay shift has memory 5, decided at the near-end fixed point,
    # whatever window horizon the flag or the spec's horizon: key gives
    delay = "group: Z2 x Z2\ngen @0: (1,0) (0,0) (0,0) (0,0) (0,0) (0,0) (0,1)\n"
    path, keyed = tmp_path / "delay.spec", tmp_path / "delay-h1.spec"
    path.write_text(delay)
    keyed.write_text(delay + "horizon: 1\n")
    for argv in ([path, "--horizon", "1"], [path, "--horizon", "4"], [path], [keyed]):
        code, out = run_cli(["analyze", *map(str, argv)], capsys)
        assert code == 0 and "finite_type_memory: 5\n" in out, argv


def test_certify_prints_the_window_image_with_the_presentation_audit(tmp_path, capsys):
    path = tmp_path / "delay-rep.spec"
    path.write_text(DELAY_REP)
    images = []
    for audit in ([], ["--check-presentation"]):
        code, out = run_cli(["certify", str(path), "--window", "0:2", *audit], capsys)
        assert code == 0, audit
        images.append([line for line in out.splitlines() if line.startswith("window_image.")])
    assert len(images[0]) == 5 and images[1] == images[0]


def test_presentation_audit_checks_every_prime_of_a_mixed_presentation(tmp_path, capsys):
    # the encoder is the direct sum of its one-prime parts, so the two Z2
    # taps fail the independence check beside the Z3 one as they do alone,
    # and the witness keeps the whole encoder's tap indices
    two = "gen @0: 3 3\ngen @0: 3\n"
    lines = {}
    for name, gens in (("two", two), ("mixed", two + "gen @0: 2\n"),
                       ("z3-first", "gen @0: 2\n" + two)):
        path = tmp_path / f"{name}.spec"
        path.write_text("group: Z6\n" + gens)
        code, out = run_cli(["certify", "--check-presentation", str(path)], capsys)
        assert code == 1, name
        lines[name] = [line for line in out.splitlines()
                       if line.startswith("presentation.check.")]
    assert "presentation.check.independent-block: fail (no block <= 16)" in lines["mixed"]
    assert lines["mixed"] == lines["two"]
    assert "presentation.check.dependent-combination: tap1@-1*1 tap2@0*1" in lines["z3-first"]


def test_analyze_negative_verdict_with_tight_cap(tmp_path, capsys):
    path = tmp_path / "delay.spec"
    path.write_text(DELAY_REP)
    code, out = run_cli(["analyze", str(path), "--n-cap", "0"], capsys)
    assert code == 1
    assert "controllability_index: not-found<=0" in out
    assert "controllability.witness:" in out
    assert "verdict: negative" in out


def test_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("group: Z0\n")
    code, out = run_cli(["analyze", str(path)], capsys)
    assert code == 2
    assert "error:" in out


def test_encode_roundtrip(tmp_path, capsys):
    spec = tmp_path / "full-z4.spec"
    spec.write_text(FULL_Z4)
    msg = tmp_path / "msg.txt"
    msg.write_text("0: 1\n1: 3\n3: 2\n")
    code, out = run_cli(["encode", str(spec), str(msg)], capsys)
    assert code == 0
    assert "word: @0: 1 3 0 2" in out


def test_encode_out_of_range_exit_two(tmp_path, capsys):
    spec = tmp_path / "full-z4.spec"
    spec.write_text(FULL_Z4)
    msg = tmp_path / "msg.txt"
    msg.write_text("0: 9\n")
    code, out = run_cli(["encode", str(spec), str(msg)], capsys)
    assert code == 2


def test_oracle_matches_certify_window_image(tmp_path, capsys):
    path = tmp_path / "delay.spec"
    path.write_text(DELAY_REP)
    code1, out1 = run_cli(["certify", str(path), "--window", "0:2"], capsys)
    code2, out2 = run_cli(["oracle", str(path), "--window", "0:2"], capsys)
    assert code1 == 0 and code2 == 0
    image1 = [l for l in out1.splitlines() if l.startswith("window_image")]
    image2 = [l for l in out2.splitlines() if l.startswith("window_image")]
    assert image1 == image2 and image1


def test_reports_byte_identical(tmp_path, capsys):
    path = tmp_path / "delay.spec"
    path.write_text(DELAY_REP)
    _, out1 = run_cli(["certify", str(path)], capsys)
    _, out2 = run_cli(["certify", str(path)], capsys)
    assert out1 == out2


def test_generators_command(tmp_path, capsys):
    path = tmp_path / "full-z8.spec"
    path.write_text("group: Z8\ngen @0: 1\n")
    code, out = run_cli(["generators", str(path)], capsys)
    assert code == 0
    assert "prime.2.entry.1.height: 2" in out
    assert "prime.2.entry.1.tap: @0: 1" in out


def test_usage_error_exit_two(capsys):
    assert main(["certify"]) == 2


def test_missing_file_exit_two(capsys):
    assert main(["certify", "/nonexistent/file.spec"]) == 2


# -- written alphabet -> decomposed storage ------------------------------------


@pytest.mark.parametrize("text, group, generator", [
    ("group: Z6\ngen @0: 5 1\n", "Z2 x Z3", "@0: (1,2) (1,1)"),
    ("group: Z12\ngen @0: 7\n", "Z4 x Z3", "@0: (3,1)"),
    ("group: Z2 x Z6\ngen @-1: (1,5) (0,3)\n", "Z2 x Z2 x Z3",
     "@-1: (1,1,2) (0,1,0)"),
])
def test_written_symbols_map_to_decomposed_coords(text, group, generator):
    spec = parse_spec(text)
    assert spec.shift.alphabet.format() == group
    assert [w.format() for w in spec.shift.generators] == [generator]
    assert parse_spec(format_spec(spec)) == spec


def test_written_range_check_uses_written_order():
    with pytest.raises(SpecParseError) as err:
        parse_spec("group: Z6\ngen @0: 6\n")
    assert err.value.line_no == 2


def test_parse_message_multi_factor_source():
    src = FiniteAbelianGroup.parse("Z4 x Z2")
    msg = parse_message("0: (1,0)\n2: (3,1)\n", src)
    assert msg.value_at(0) == (1, 0) and msg.value_at(2) == (3, 1)
    with pytest.raises(SpecParseError):
        parse_message("0: 1\n", src)


WRITTEN_GROUPS = ["Z6", "Z10", "Z12", "Z36", "Z4", "Z9", "Z12 x Z6", "Z2 x Z6"]


def split_symbol(orders, written):
    """The written-to-split map as a reference: a coordinate x mod n becomes
    x % p**e for each prime-power factor p**e of n, in order."""
    return tuple(x % p ** e for x, n in zip(written, orders)
                 for p, e in FiniteAbelianGroup.from_orders([n]).factors)


def written_symbol(coords) -> str:
    return str(coords[0]) if len(coords) == 1 else f"({','.join(map(str, coords))})"


@st.composite
def written_generators(draw):
    group = draw(st.sampled_from(WRITTEN_GROUPS))
    orders = parse_orders(group)
    symbol = st.tuples(*(st.integers(0, n - 1) for n in orders))
    gens = draw(st.lists(st.tuples(st.integers(-3, 3), st.lists(symbol, min_size=1, max_size=6)),
                         min_size=1, max_size=3))
    return group, orders, [(start, syms) for start, syms in gens if any(map(any, syms))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(written_generators(), st.data())
def test_written_symbols_split_as_the_reference(drawn, data):
    group, orders, gens = drawn
    lines = [f"group: {group}", "# written symbols"]
    lines += [f"gen @{start}: " + " ".join(map(written_symbol, syms)) for start, syms in gens]
    spec = parse_spec("\n".join(lines) + "\n")
    assert spec.shift.alphabet == FiniteAbelianGroup.from_orders(orders)
    assert len(spec.shift.generators) == len(gens)
    for w, (start, syms) in zip(spec.shift.generators, gens):
        assert start <= w.first and w.last < start + len(syms)
        assert [w.value_at(start + i) for i in range(len(syms))] == \
            [split_symbol(orders, s) for s in syms]
    # one coordinate out of its written range fails on its own line
    if gens:
        row = data.draw(st.integers(0, len(gens) - 1))
        syms = gens[row][1]
        k = data.draw(st.integers(0, len(orders) - 1))
        bad = data.draw(st.sampled_from([-1, orders[k], orders[k] + 5]))
        sym = syms[-1][:k] + (bad,) + syms[-1][k + 1:]
        lines[2 + row] += " " + written_symbol(sym)
        with pytest.raises(SpecParseError) as err:
            parse_spec("\n".join(lines) + "\n")
        assert err.value.line_no == 3 + row
        assert str(err.value) == f"line {3 + row}: coordinate {bad} out of range [0,{orders[k]})"


@st.composite
def split_messages(draw):
    source = FiniteAbelianGroup.parse(draw(st.sampled_from(WRITTEN_GROUPS)))
    symbol = st.tuples(*(st.integers(0, n - 1) for n in source.orders))
    return source, draw(st.lists(symbol, min_size=1, max_size=8))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(split_messages())
def test_parse_message_keeps_split_symbols(drawn):
    source, syms = drawn
    text = "".join(f"{i}: {written_symbol(s)}\n" for i, s in enumerate(syms))
    msg = parse_message(text, source)
    assert [msg.value_at(i) for i in range(len(syms))] == syms


# -- exit codes ----------------------------------------------------------------


def test_internal_error_exit_three(tmp_path, capsys, monkeypatch):
    import groupshift.cli as cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_certify", boom)
    path = tmp_path / "full-z4.spec"
    path.write_text(FULL_Z4)
    code = main(["certify", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "error: internal: RuntimeError: boom\n"
    assert "Traceback" in captured.err


def test_value_error_after_parsing_is_internal(tmp_path, capsys, monkeypatch):
    import groupshift.cli as cli

    def boom(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_certify", boom)
    path = tmp_path / "full-z4.spec"
    path.write_text(FULL_Z4)
    code = main(["certify", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "error: internal: ValueError: boom\n"


@pytest.mark.parametrize("command", ["analyze", "generators", "certify", "oracle"])
def test_unreadable_spec_exit_two(tmp_path, capsys, command):
    binary = tmp_path / "binary.spec"
    binary.write_bytes(b"group: Z4\ngen @0: \xff\xfe\n")
    for path in (tmp_path, binary):
        argv = [command, str(path)] + (["--window", "0:1"] if command == "oracle" else [])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, captured
        assert captured.out.startswith("error: ") and "internal" not in captured.out
        assert "Traceback" not in captured.err


def test_unreadable_message_exit_two(tmp_path, capsys):
    spec = tmp_path / "full-z4.spec"
    spec.write_text(FULL_Z4)
    msg = tmp_path / "msg.txt"
    msg.write_bytes(b"0: \xff\n")
    for path in (msg, tmp_path):
        code, out = run_cli(["encode", str(spec), str(path)], capsys)
        assert code == 2 and out.startswith("error: ") and "internal" not in out


def test_group_exponent_above_the_modulus_cap_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "big.spec"
    path.write_text("group: Z4294967296\ngen @0: 1\n")
    for command in ("analyze", "certify"):
        code, out = run_cli([command, str(path)], capsys)
        assert code == 2
        assert out == "error: line 1: group exponent exceeds the 2**31 cap\n"


@pytest.mark.parametrize("value", ["0", "4", "-3", "1", "x", "2147483659"])
def test_prime_flag_accepts_primes_only(tmp_path, capsys, value):
    path = tmp_path / "full-z4.spec"
    path.write_text(FULL_Z4)
    code = main(["generators", str(path), "--prime", value])
    captured = capsys.readouterr()
    assert code == 2
    assert "argument --prime: " in captured.err
    assert captured.out == ""


def test_prime_flag_selects_one_prime(tmp_path, capsys):
    path = tmp_path / "z6.spec"
    path.write_text("group: Z6\ngen @0: 1\n")
    code, out = run_cli(["generators", str(path), "--prime", "3"], capsys)
    assert code == 0
    assert "prime.3.generator_count: 1" in out and "prime.2." not in out
    code, out = run_cli(["generators", str(path)], capsys)
    assert "prime.2.generator_count: 1" in out and "prime.3.generator_count: 1" in out


# -- limits become failing stages ----------------------------------------------


def test_support_cap_fails_a_certify_stage(tmp_path, capsys):
    path = tmp_path / "delay-rep.spec"
    path.write_text(DELAY_REP)
    code, out = run_cli(["certify", str(path), "--support-cap", "1"], capsys)
    assert code == 1
    assert ("prime.2.check.initial-basis: fail (initial-value basis incomplete: "
            "0 of 1 directions with support <= 1; raise --support-cap)") in out
    assert "certificate: partial" in out
    assert "internal" not in out


def test_support_cap_fails_generators(tmp_path, capsys):
    path = tmp_path / "delay-rep.spec"
    path.write_text(DELAY_REP)
    code, out = run_cli(["generators", str(path), "--support-cap", "1"], capsys)
    assert code == 1
    assert ("prime.2.failure: initial-basis: initial-value basis incomplete: "
            "0 of 1 directions with support <= 1; raise --support-cap") in out
    assert "verdict: negative" in out
    assert "internal" not in out


def test_enum_cap_is_an_oracle_flag_only(tmp_path, capsys):
    path = tmp_path / "full-z4.spec"
    path.write_text(FULL_Z4)
    for command in ("analyze", "generators", "certify"):
        code = main([command, str(path), "--enum-cap", "5"])
        assert code == 2
        assert "unrecognized arguments: --enum-cap 5" in capsys.readouterr().err


def test_enum_cap_fails_oracle(tmp_path, capsys):
    path = tmp_path / "full-z4.spec"
    path.write_text(FULL_Z4)
    code, out = run_cli(["oracle", str(path), "--window", "0:3",
                         "--enum-cap", "10"], capsys)
    assert code == 1
    assert out.endswith("window: 0..3\n"
                        "failure: window code exceeds 10 elements; raise --enum-cap\n"
                        "verdict: negative\n")
    # 0 means 0, as for the other commands; the default cap lists all 256
    code, out = run_cli(["oracle", str(path), "--window", "0:0",
                         "--enum-cap", "0"], capsys)
    assert code == 1 and "window code exceeds 0 elements" in out
    code, out = run_cli(["oracle", str(path), "--window", "0:3"], capsys)
    assert code == 0 and "code_size: 256" in out


# -- numeric flags are checked at parse time -----------------------------------


@pytest.mark.parametrize("argv, flag", [
    (["certify", "{spec}", "--horizon", "0"], "--horizon"),
    (["certify", "{spec}", "--horizon", "-1"], "--horizon"),
    (["analyze", "{spec}", "--horizon", "0"], "--horizon"),
    (["analyze", "{spec}", "--n-cap", "-1"], "--n-cap"),
    (["generators", "{spec}", "--support-cap", "0"], "--support-cap"),
    (["certify", "{spec}", "--block-cap", "-1"], "--block-cap"),
    (["certify", "{spec}", "--n-cap", "-1"], "--n-cap"),
    (["encode", "{spec}", "{spec}", "--horizon", "0"], "--horizon"),
    (["encode", "{spec}", "{spec}", "--block-cap", "x"], "--block-cap"),
    (["analyze", "{spec}", "--ft-cap", "0"], "--ft-cap"),
    (["oracle", "{spec}", "--window", "0:1", "--list-cap", "-1"], "--list-cap"),
    (["oracle", "{spec}", "--window", "0:1", "--enum-cap", "-1"], "--enum-cap"),
    (["certify", "{spec}", "--window", "-1"], "--window"),
    (["encode", "{spec}", "{spec}", "--window", "2:1"], "--window"),
    (["oracle", "{spec}", "--window", "-1:-2"], "--window"),
])
def test_numeric_flags_rejected_at_parse_time(tmp_path, capsys, argv, flag):
    path = tmp_path / "full-z4.spec"
    path.write_text(FULL_Z4)
    code = main([a.format(spec=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert f"argument {flag}: " in captured.err
    assert "internal" not in captured.out + captured.err


@pytest.mark.parametrize("argv", [
    ["certify", "{spec}", "--window", "-1:2"],
    ["encode", "{spec}", "{msg}", "--window", "-1:2"],
    ["oracle", "{spec}", "--window", "-1:0"],
    ["oracle", "{spec}", "--window", "-3:-1", "--list-cap", "0"],
    ["certify", "{spec}", "--win", "-1:2"],
])
def test_window_below_zero_reads_the_same_spaced_or_joined(tmp_path, capsys, argv):
    # argparse takes "-1:2" for an option string unless it is joined to its flag
    spec, msg = tmp_path / "delay.spec", tmp_path / "msg.txt"
    spec.write_text(DELAY_REP)
    msg.write_text("-1: 1\n1: 1\n")
    spaced = [a.format(spec=spec, msg=msg) for a in argv]
    i = next(k for k, arg in enumerate(spaced) if arg.startswith("--win"))
    joined = spaced[:i] + [f"{spaced[i]}={spaced[i + 1]}"] + spaced[i + 2:]
    runs = [run_cli(args, capsys) for args in (spaced, joined)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and spaced[i + 1].replace(":", "..") in runs[0][1]


@pytest.mark.parametrize("argv", [
    ["analyze", "{spec}", "--trials", "4"],
    ["generators", "{spec}", "--seed", "1"],
    ["encode", "{spec}", "{spec}", "--trials", "4"],
    ["certify", "{spec}", "--trials", "-1"],
    ["certify", "{spec}", "--check-presentation", "--seed", "1"],
    ["encode", "{spec}", "{spec}", "--seed", "1"],
    ["certify", "{spec}", "--margin", "-1"],
    ["encode", "{spec}", "{spec}", "--margin", "x"],
])
def test_flags_only_on_commands_that_read_them(tmp_path, capsys, argv):
    # no check draws random messages, so no command reads --trials or
    # --seed, and no verdict reads the margin; each flag is a usage error
    # everywhere
    path = tmp_path / "full-z4.spec"
    path.write_text(FULL_Z4)
    code = main([a.format(spec=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


# -- horizon precedence: flag, then spec key, then derived default --------------


def test_analyze_horizon_echo_matches_windows(tmp_path, capsys):
    path = tmp_path / "h.spec"
    path.write_text("group: Z4 x Z2\ngen @0: (1,0) (2,1)\nhorizon: 6\n")
    _, out = run_cli(["analyze", str(path), "--horizon", "3"], capsys)
    assert "horizon.window_horizon: 3" in out
    assert "weakly_controllable.windows: [0,0] [0,1] [0,2]\n" in out
    _, out = run_cli(["analyze", str(path)], capsys)
    assert "horizon.window_horizon: 6" in out
    assert "weakly_controllable.windows: [0,0] [0,1] [0,2] [0,3] [0,4] [0,5]\n" in out


def test_horizon_key_honoured_by_certify_and_generators(tmp_path, capsys):
    path = tmp_path / "full-z4-h7.spec"
    path.write_text(FULL_Z4 + "horizon: 7\n")
    code, out = run_cli(["certify", str(path)], capsys)
    assert code == 0
    assert "horizon.window_horizon: 7" in out
    assert "prime.2.check.window-surjectivity: pass [windows [0,0]..[0,7]]" in out
    _, out = run_cli(["certify", str(path), "--horizon", "2"], capsys)
    assert "horizon.window_horizon: 2" in out
    assert "prime.2.check.window-surjectivity: pass [windows [0,0]..[0,2]]" in out
    _, out = run_cli(["generators", str(path)], capsys)
    assert "horizon.window_horizon: 7" in out


# -- fuzzing the command line ---------------------------------------------------

FUZZ_GROUPS = ["Z2", "Z3", "Z4", "Z6", "Z9", "Z2 x Z2", "Z2 x Z4"]

#: Flags per command with values drawn from a small range that includes
#: out-of-range ones; the common pipeline flags apply to every command but
#: oracle.
COMMON_FLAGS = {"--support-cap": (-1, 4), "--block-cap": (-1, 4), "--n-cap": (-1, 4),
                "--horizon": (-1, 4)}
FUZZ_FLAGS = {
    "analyze": dict(COMMON_FLAGS, **{"--ft-cap": (-1, 3)}),
    "generators": dict(COMMON_FLAGS, **{"--prime": (-1, 5)}),
    "certify": COMMON_FLAGS,
    "certify --check-presentation": COMMON_FLAGS,
    "encode": COMMON_FLAGS,
    "oracle": {"--list-cap": (-1, 4), "--enum-cap": (-1, 40)},
}


@st.composite
def fuzz_specs(draw):
    group = draw(st.sampled_from(FUZZ_GROUPS))
    orders = [int(part.strip()[1:]) for part in group.split("x")]

    def symbol():
        return written_symbol([draw(st.integers(0, n - 1)) for n in orders])

    lines = [f"group: {group}"]
    for _ in range(draw(st.integers(0, 2))):
        body = " ".join(symbol() for _ in range(draw(st.integers(1, 2))))
        lines.append(f"gen @{draw(st.integers(-1, 1))}: {body}")
    for key, lo, hi in (("memory", 0, 3), ("horizon", 0, 4)):
        if draw(st.booleans()):
            lines.append(f"{key}: {draw(st.integers(lo, hi))}")
    return "\n".join(lines) + "\n"


@st.composite
def fuzz_commands(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    argv = command.split()
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        argv += [flag, str(draw(st.integers(*flags[flag])))]
    if command in ("certify", "encode", "oracle") and (command == "oracle" or draw(st.booleans())):
        lo = draw(st.integers(-2, 2))
        argv += ["--window", f"{lo}:{lo + draw(st.integers(-1, 2))}"]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(fuzz_specs(), fuzz_commands(), st.sampled_from(["0: 1\n", "0: (1,0)\n1: (0,1)\n", ""]))
def test_cli_fuzz_exit_codes_and_determinism(spec, argv, message):
    # random specs, commands and flag values, in range or not: the exit code
    # is a verdict or a usage error, never an internal error, and a rerun
    # (warm caches) prints the same report
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, msg_path = Path(tmp, "fuzz.spec"), Path(tmp, "fuzz.msg")
        spec_path.write_text(spec)
        msg_path.write_text(message)
        args = argv[:1] + [str(spec_path)] + (
            [str(msg_path)] if argv[0] == "encode" else []) + argv[1:]
        runs = []
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(args)
            runs.append((code, out.getvalue()))
    (code, out), rerun = runs
    assert code in (0, 1, 2), (spec, args, out)
    assert "error: internal" not in out, (spec, args, out)
    assert rerun == (code, out), (spec, args)
