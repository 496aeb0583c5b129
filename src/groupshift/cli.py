"""Command-line front end: analyze, generators, encode, certify, oracle.

Reports are line-oriented ``key: value`` text on stdout, deterministic for
fixed inputs and flags (timing goes to stderr).  Exit codes: 0 all checks
passed, 1 a verdict was negative, 2 usage or parse error, 3 internal error
(an unexpected exception; its traceback goes to stderr).  A numeric flag out
of range, or a spec or message file that cannot be read, is a usage error;
only oracle, which enumerates, has --enum-cap.
"""

from __future__ import annotations

import argparse
import operator
import re
import sys
import time
import traceback
from pathlib import Path

from .control import analyze_controllability, socle_controllability
from .encoders import (CanonicalGeneratorSet, ConjugacyCertificate, Encoder,
                       Horizons, PipelineFailure, canonical_generators,
                       check_injectivity, check_noncatastrophic,
                       conjugacy_certificate, encode, independent_block_check,
                       presentation_encoder, primary_shift)
from .groups import FiniteAbelianGroup, is_prime
from .residues import (ENUM_CAP, MAX_MODULUS, EnumerationCapExceeded, HowellForm,
                       howell_form)
from .shifts import GroupShift, enumerate_window_code, finite_type_memory
from .specfmt import ShiftSpec, SpecParseError, parse_message, parse_spec
from .words import format_symbols


class UsageError(Exception):
    """Input the command cannot run on; reported with exit code 2."""


DISCLAIMER = ("all verdicts are window-scale certificates at the recorded "
              "horizons, not infinite-horizon claims")


class Report:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "yes" if value else "no"
        self.lines.append(f"{key}: {value}")

    def emit(self) -> None:
        sys.stdout.write("\n".join(self.lines) + "\n")

    def finish(self, negative: bool) -> int:
        """Scope and verdict lines, emit, and the verdict's exit code."""
        self.add("scope", DISCLAIMER)
        self.add("verdict", "pass" if not negative else "negative")
        self.emit()
        return 1 if negative else 0

    def fail(self, failure: str) -> int:
        """A failure line and a negative verdict, emitted; exit code 1."""
        self.add("failure", failure)
        self.add("verdict", "negative")
        self.emit()
        return 1


def _check_value(passed: bool, detail: str = "") -> str:
    """pass or fail, followed by " [detail]" on a pass, " (detail)" on a fail."""
    if not detail:
        return "pass" if passed else "fail"
    return f"pass [{detail}]" if passed else f"fail ({detail})"


def _window_image_lines(report: Report, group: FiniteAbelianGroup, lo: int, hi: int,
                        form: HowellForm) -> None:
    """Size and Howell rows, as symbols, of a window image on [lo, hi]."""
    r = group.rank
    report.add(f"window_image.{lo}..{hi}.size", form.size())
    for i, row in enumerate(form.rows, start=1):
        report.add(f"window_image.{lo}..{hi}.row.{i}",
                   format_symbols(group, [group.scaled_to_coords(row[k:k + r])
                                          for k in range(0, len(row), r)]))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _start(args, command: str) -> tuple[ShiftSpec, Report]:
    """The parsed spec file, and a report that opens with the input echo."""
    spec = parse_spec(_read_text(args.spec))
    shift = spec.shift
    report = Report()
    report.add("report", command)
    report.add("spec", Path(args.spec).name)
    report.add("group", shift.alphabet.format())
    report.add("generator_count", len(shift.generators))
    for i, g in enumerate(shift.generators, start=1):
        report.add(f"generator.{i}", g.format())
    if shift.memory_hint is not None:
        report.add("declared_memory", shift.memory_hint)
    return spec, report


def _echo_horizons(report: Report, horizons: Horizons) -> None:
    for name in ("margin", "support_cap", "block_cap", "window_horizon", "n_cap"):
        report.add(f"horizon.{name}", getattr(horizons, name))


def _horizons_from_args(spec: ShiftSpec, args) -> Horizons:
    """Flag first, then the spec's horizon: key, then the derived default."""
    horizon = args.horizon if args.horizon is not None else spec.horizon_override
    return Horizons.derive(spec.shift, support_cap=args.support_cap,
                           block_cap=args.block_cap, n_cap=args.n_cap,
                           window_horizon=horizon)


def _genset_lines(report: Report, prefix: str, genset: CanonicalGeneratorSet) -> None:
    report.add(f"{prefix}.order_controllability_index", genset.order_index)
    report.add(f"{prefix}.socle_rank", genset.socle_rank)
    report.add(f"{prefix}.generator_count", len(genset.entries))
    for i, e in enumerate(genset.entries, start=1):
        report.add(f"{prefix}.entry.{i}.height", e.height)
        report.add(f"{prefix}.entry.{i}.torsion_word", e.torsion_word.format())
        report.add(f"{prefix}.entry.{i}.tap", e.tap.format())


def _encoder_lines(report: Report, prefix: str, encoder: Encoder) -> None:
    report.add(f"{prefix}.source", encoder.source.format())
    report.add(f"{prefix}.memory", encoder.memory)
    for i, tap in enumerate(encoder.taps, start=1):
        report.add(f"{prefix}.tap.{i}", tap.format())


def cmd_analyze(args) -> int:
    spec, report = _start(args, "analyze")
    shift = spec.shift
    horizons = _horizons_from_args(spec, args)
    _echo_horizons(report, horizons)
    ctrl = analyze_controllability(shift, cap=horizons.n_cap,
                                   horizon=horizons.window_horizon)
    report.add("weakly_controllable", ctrl.weakly_controllable)
    report.add("weakly_controllable.windows",
               " ".join(f"[{a},{b}]" for a, b in ctrl.weak_witness_windows))
    negative = not ctrl.weakly_controllable

    for p in shift.alphabet.primes():
        socle = socle_controllability(shift, p, horizons)
        report.add(f"socle.{p}.weakly_controllable", socle.holds)
        if not socle.holds:
            report.add(f"socle.{p}.detail", socle.detail)
            negative = True

    ft = finite_type_memory(shift, cap=args.ft_cap)
    report.add("finite_type_memory",
               ft.memory if ft.memory is not None else f"not-verified<={ft.cap}")
    negative |= ft.memory is None

    for label, search in (("controllability", ctrl.plain),
                          ("order_controllability", ctrl.ordered)):
        idx = search.index
        report.add(f"{label}_index",
                   idx if idx is not None else f"not-found<={search.cap}")
        report.add(f"{label}.past_horizons",
                   " ".join(str(x) for x in search.past_horizons))
        report.add(f"{label}.condition_table",
                   " ".join("ok" if b else "fail" for b in search.condition_table))
        # the past horizons reach the near-end states' fixed point, where the
        # steering condition is monotone in n (control.default_past_horizon)
        report.add(f"{label}.monotone", True)
        if search.witness is not None:
            report.add(f"{label}.witness", search.witness.format())
        negative |= idx is None
    if ctrl.n_c is not None and ctrl.n_o is not None:
        # the plain condition is the order condition's scale exp(H), so n_c <= n_o
        report.add("index_consistency.n_c_le_n_o", True)
    return report.finish(negative)


def cmd_generators(args) -> int:
    spec, report = _start(args, "generators")
    shift = spec.shift
    horizons = _horizons_from_args(spec, args)
    _echo_horizons(report, horizons)
    primes = [args.prime] if args.prime is not None else list(shift.alphabet.primes())
    negative = False
    for p in primes:
        part = primary_shift(shift, p)
        try:
            genset = canonical_generators(part, p, horizons)
            _genset_lines(report, f"prime.{p}", genset)
        except PipelineFailure as exc:
            report.add(f"prime.{p}.failure", f"{exc.stage}: {exc.detail}")
            negative = True
    return report.finish(negative)


def _certificate_report(report: Report, cert: ConjugacyCertificate) -> bool:
    negative = False
    for pc in cert.primaries:
        prefix = f"prime.{pc.prime}"
        if pc.genset is not None:
            _genset_lines(report, prefix, pc.genset)
        for check in pc.checks:
            report.add(f"{prefix}.check.{check.name}",
                       _check_value(check.passed, check.detail))
        report.add(f"{prefix}.complete", pc.complete)
        negative |= not pc.complete
    for check in cert.global_checks:
        report.add(f"check.{check.name}", _check_value(check.passed))
        negative |= not check.passed
    if cert.product_encoder is not None:
        _encoder_lines(report, "encoder", cert.product_encoder)
    report.add("certificate", "complete" if cert.complete else "partial")
    return negative or not cert.complete


def _presentation_audit(report: Report, shift: GroupShift,
                        horizons: Horizons) -> bool:
    """Audit the presentation's own generators as encoder taps."""
    try:
        encoder = presentation_encoder(shift)
    except ValueError as exc:  # a generator of composite order is no tap
        raise UsageError(str(exc)) from None
    _encoder_lines(report, "presentation_encoder", encoder)
    inj = check_injectivity(encoder, horizons.block_cap)
    check = independent_block_check(inj, horizons.block_cap)
    report.add(f"presentation.check.{check.name}", _check_value(check.passed, check.detail))
    if inj.block is None and inj.dependent_combination:
        combo = " ".join(f"tap{j}@{t}*{c}" for j, t, c in inj.dependent_combination)
        report.add("presentation.check.dependent-combination", combo)
    negative = inj.block is None
    noncat = check_noncatastrophic(encoder, shift, horizons.window_horizon)
    report.add("presentation.check.noncatastrophic", _check_value(noncat.ok))
    if not noncat.ok and noncat.witness is not None:
        report.add("presentation.check.witness",
                   f"{noncat.witness.format()} has no finite preimage at "
                   f"horizon {noncat.horizon}")
    negative |= not noncat.ok
    report.add("presentation.complete", not negative)
    return negative


def cmd_certify(args) -> int:
    spec, report = _start(args, "certify")
    shift = spec.shift
    horizons = _horizons_from_args(spec, args)
    _echo_horizons(report, horizons)
    if args.check_presentation:
        negative = _presentation_audit(report, shift, horizons)
    else:
        negative = _certificate_report(report, conjugacy_certificate(shift, horizons))
    if args.window:
        lo, hi = args.window
        _window_image_lines(report, shift.alphabet, lo, hi, shift.window(lo, hi).form)
    return report.finish(negative)


def cmd_encode(args) -> int:
    spec, report = _start(args, "encode")
    cert = conjugacy_certificate(spec.shift, _horizons_from_args(spec, args))
    if cert.product_encoder is None:
        return report.fail("encoder synthesis failed; run certify for details")
    encoder = cert.product_encoder
    message = parse_message(_read_text(args.message), encoder.source)
    window = tuple(args.window) if args.window else None
    image = encode(encoder, message, window)
    report.add("source", encoder.source.format())
    report.add("message", message.format())
    if window:
        report.add("window", f"{window[0]}..{window[1]}")
    report.add("word", image.format())
    report.add("verdict", "pass")
    report.emit()
    return 0


def cmd_oracle(args) -> int:
    spec, report = _start(args, "oracle")
    shift = spec.shift
    lo, hi = args.window
    report.add("window", f"{lo}..{hi}")
    try:
        elements = enumerate_window_code(shift, lo, hi, cap=args.enum_cap)
    except EnumerationCapExceeded as exc:
        return report.fail(f"{exc}; raise --enum-cap")
    report.add("code_size", len(elements))
    group = shift.alphabet
    r = group.rank
    if len(elements) <= args.list_cap:
        for i, flat in enumerate(elements, start=1):
            report.add(f"element.{i}", format_symbols(
                group, [flat[k:k + r] for k in range(0, len(flat), r)]))
    # enumerated coordinates are reduced, so scaling needs no reduction
    factors = group.scale_factors * (hi - lo + 1)
    scaled = [tuple(map(operator.mul, flat, factors)) for flat in elements]
    _window_image_lines(report, group, lo, hi,
                        howell_form(scaled, group.modulus))
    report.add("verdict", "pass")
    report.emit()
    return 0


def _window_arg(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("window must look like a:b")
    if hi < lo:
        raise argparse.ArgumentTypeError("window must satisfy a <= b")
    return lo, hi


def _int_arg(ok, need: str):
    """argparse type: an integer n with ok(n); else "must be <need>"."""
    def parse(text: str) -> int:
        n = int(text)
        if not ok(n):
            raise argparse.ArgumentTypeError(f"must be {need}, got {n}")
        return n
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _at_least(lo: int):
    return _int_arg(lambda n: n >= lo, f">= {lo}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--support-cap", type=_at_least(1), default=None,
                        help="max support length for generator searches")
    parser.add_argument("--block-cap", type=_at_least(0), default=None,
                        help="injectivity block search cap")
    parser.add_argument("--n-cap", type=_at_least(0), default=None,
                        help="controllability index search cap")
    parser.add_argument("--horizon", type=_at_least(1), default=None,
                        help="window horizon for module checks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupshift",
        description="group shifts over finite abelian alphabets: "
                    "controllability, canonical generators, encoders")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="controllability and finite-type analysis")
    p.add_argument("spec")
    p.add_argument("--ft-cap", type=_at_least(1), default=None,
                   help="finite-type memory search cap")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generators", help="canonical generating sets per prime")
    p.add_argument("spec")
    p.add_argument("--prime", default=None,
                   type=_int_arg(lambda n: n < MAX_MODULUS and is_prime(n),
                                 "a prime below 2**31"),
                   help="report only this prime")
    _add_common(p)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("certify", help="full conjugacy certificate pipeline")
    p.add_argument("spec")
    p.add_argument("--window", type=_window_arg, default=None,
                   help="also print the window image a:b")
    p.add_argument("--check-presentation", action="store_true",
                   help="audit the spec's own generators as encoder taps "
                        "instead of synthesizing a canonical set")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("encode", help="encode a message file with the "
                                      "synthesized encoder")
    p.add_argument("spec")
    p.add_argument("message")
    p.add_argument("--window", type=_window_arg, default=None,
                   help="restrict the output to the window a:b")
    _add_common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("oracle", help="brute-force window code enumeration")
    p.add_argument("spec")
    p.add_argument("--window", type=_window_arg, required=True)
    p.add_argument("--list-cap", type=_at_least(0), default=64,
                   help="print elements only up to this count")
    p.add_argument("--enum-cap", type=_at_least(0), default=ENUM_CAP,
                   help="window code element cap")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a window like "-1:2" as an option string: join it to its
    # flag, which may be abbreviated
    for i in reversed(range(len(argv) - 1)):
        flag, value = argv[i:i + 2]
        if len(flag) > 2 and "--window".startswith(flag) and re.match(r"-\d", value):
            argv[i:i + 2] = [f"{flag}={value}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        code = args.func(args)
    except (SpecParseError, UsageError) as exc:
        sys.stdout.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stdout.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return 3
    finally:
        sys.stderr.write(f"elapsed: {time.monotonic() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
