"""Text formats: shift spec files and encoder message files.

Spec file:
    group: Z4 x Z2
    gen @-1: (1,0) (2,1)
    memory: 2            # optional declared memory N (splice block [0, N])
    horizon: 6           # optional window horizon (the --horizon flag wins)

Symbols are comma-separated coordinate tuples, one coordinate per factor as
written in the group line, each below its written order (one integer mod 6 for
"Z6"); for a single-factor alphabet bare integers are accepted.  Message files
carry one line per time index, "index: (c_1,...,c_m)", over the encoder's
(already decomposed) source alphabet.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .groups import FiniteAbelianGroup, _prime_power_factors, parse_orders
from .residues import MAX_MODULUS
from .shifts import GroupShift
from .words import Word


class SpecParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_GEN_RE = re.compile(r"^gen\s*@\s*(-?\d+)\s*:\s*(.*)$", re.IGNORECASE)
_TUPLE_RE = re.compile(r"\(([^()]*)\)|(-?\d+)")


def _parse_symbols(body: str, orders: tuple[int, ...],
                   line_no: int) -> list[tuple[int, ...]]:
    """The symbols of `body`, one coordinate in [0, n) per written order n."""
    rank = len(orders)
    symbols = []
    pos = 0
    for match in _TUPLE_RE.finditer(body):
        between = body[pos:match.start()]
        if between.strip():
            raise SpecParseError(line_no, f"unexpected text {between.strip()!r}")
        pos = match.end()
        if match.group(1) is not None:
            parts = [x.strip() for x in match.group(1).split(",")]
            try:
                coords = tuple(int(x) for x in parts)
            except ValueError:
                raise SpecParseError(line_no, f"bad symbol {match.group(0)!r}")
        else:
            if rank != 1:
                raise SpecParseError(
                    line_no, "bare integers need a single-factor alphabet; "
                             "use (c_1,...,c_k)")
            coords = (int(match.group(2)),)
        if len(coords) != rank:
            raise SpecParseError(
                line_no, f"symbol has {len(coords)} coordinates, alphabet has "
                         f"{rank} factors")
        for c, n in zip(coords, orders):
            if not 0 <= c < n:
                raise SpecParseError(line_no, f"coordinate {c} out of range [0,{n})")
        symbols.append(coords)
    if body[pos:].strip():
        raise SpecParseError(line_no, f"unexpected text {body[pos:].strip()!r}")
    if not symbols:
        raise SpecParseError(line_no, "empty generator")
    return symbols


@dataclass(frozen=True)
class ShiftSpec:
    shift: GroupShift
    horizon_override: int | None


def parse_spec(text: str) -> ShiftSpec:
    orders: tuple[int, ...] | None = None
    generators: list[Word] = []
    options: dict[str, int | None] = {"memory": None, "horizon": None}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith("group:"):
            if orders is not None:
                raise SpecParseError(line_no, "duplicate group line")
            try:
                orders = parse_orders(line.split(":", 1)[1].strip())
                group = FiniteAbelianGroup.from_orders(orders)
            except ValueError as exc:
                raise SpecParseError(line_no, str(exc))
            # from_orders splits each written order into its prime-power factors,
            # in order; each factor gets a copy of its written coordinate
            spread = [i for i, n in enumerate(orders) for _ in _prime_power_factors(n)]
            if group.exponent > MAX_MODULUS:
                raise SpecParseError(line_no, "group exponent exceeds the 2**31 cap")
            continue
        key = next((k for k in options if lowered.startswith(k + ":")), None)
        if key:
            if options[key] is not None:
                raise SpecParseError(line_no, f"duplicate {key} line")
            try:
                options[key] = int(line.split(":", 1)[1])
            except ValueError:
                raise SpecParseError(line_no, f"{key} must be an integer")
            if options[key] < 1:
                raise SpecParseError(line_no, f"{key} must be positive")
            continue
        m = _GEN_RE.match(line)
        if m:
            if orders is None:
                raise SpecParseError(line_no, "generator before group line")
            start = int(m.group(1))
            symbols = _parse_symbols(m.group(2), orders, line_no)
            w = Word.make(group, start, [[s[i] for i in spread] for s in symbols])
            if w.is_zero:
                raise SpecParseError(line_no, "generator is the zero word")
            generators.append(w)
            continue
        raise SpecParseError(line_no, f"unrecognized line {line!r}")
    if orders is None:
        raise SpecParseError(0, "missing group line")
    return ShiftSpec(GroupShift.make(group, generators, options["memory"]),
                     options["horizon"])


_MSG_RE = re.compile(r"^(-?\d+)\s*:\s*(.*)$")


def parse_message(text: str, source: FiniteAbelianGroup) -> Word:
    """Message word from "index: (c_1,...,c_m)" lines over the source."""
    values: dict[int, tuple[int, ...]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _MSG_RE.match(line)
        if not m:
            raise SpecParseError(line_no, f"unrecognized message line {line!r}")
        idx = int(m.group(1))
        if idx in values:
            raise SpecParseError(line_no, f"duplicate index {idx}")
        symbols = _parse_symbols(m.group(2), source.orders, line_no)
        if len(symbols) != 1:
            raise SpecParseError(line_no, "one symbol per message line")
        values[idx] = symbols[0]
    if not values:
        return Word.zero(source)
    lo, hi = min(values), max(values)
    syms = [values.get(i, source.zero()) for i in range(lo, hi + 1)]
    return Word.make(source, lo, syms)
