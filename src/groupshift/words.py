"""Finitely supported bi-infinite sequences over a finite abelian alphabet;
a word built by `Word.make` holds one reduced tuple per distinct symbol."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

from .groups import Coords, FiniteAbelianGroup
from .residues import pack_rows, placed_rows


@dataclass(frozen=True)
class Word:
    """A word in H^(Z): symbols on [start, start+len-1], zero elsewhere.

    Stored trimmed, so the first and last symbols are nonzero unless the word
    is zero; the zero word is normalized to start 0 with no symbols.
    """

    group: FiniteAbelianGroup
    start: int
    symbols: tuple[Coords, ...]

    @classmethod
    def make(cls, group: FiniteAbelianGroup, start: int,
             symbols: Iterable[Sequence[int]]) -> "Word":
        """The trimmed word of `symbols` from `start`: each distinct symbol
        is reduced once (`reduce_coords`), and its positions share that tuple."""
        reduced: dict[tuple, Coords] = {}
        syms = []
        for s in symbols:
            key = tuple(s)
            sym = reduced.get(key)
            if sym is None:
                sym = reduced[key] = group.reduce_coords(key)
            syms.append(sym)
        return cls.trimmed(group, start, syms)

    @classmethod
    def trimmed(cls, group: FiniteAbelianGroup, start: int,
                syms: Sequence[Coords]) -> "Word":
        """The word of already reduced symbols placed from `start`, with the
        zero symbols at both ends dropped."""
        lo = 0
        while lo < len(syms) and not any(syms[lo]):
            lo += 1
        hi = len(syms)
        while hi > lo and not any(syms[hi - 1]):
            hi -= 1
        if lo == hi:
            return cls(group, 0, ())
        return cls(group, start + lo, tuple(syms[lo:hi]))

    @classmethod
    def zero(cls, group: FiniteAbelianGroup) -> "Word":
        return cls(group, 0, ())

    @property
    def is_zero(self) -> bool:
        return not self.symbols

    @property
    def first(self) -> int | None:
        """First support index, None for the zero word."""
        return self.start if self.symbols else None

    @property
    def last(self) -> int | None:
        return self.start + len(self.symbols) - 1 if self.symbols else None

    @property
    def support_length(self) -> int:
        return len(self.symbols)

    def value_at(self, i: int) -> Coords:
        if self.symbols and self.start <= i < self.start + len(self.symbols):
            return self.symbols[i - self.start]
        return self.group.zero()

    def shifted(self, n: int) -> "Word":
        """The word w' with w'(i) = w(i + n); support translates by -n."""
        if self.is_zero:
            return self
        return Word(self.group, self.start - n, self.symbols)

    @classmethod
    def combine(cls, group: FiniteAbelianGroup,
                terms: Iterable[tuple[int, "Word", int]]) -> "Word":
        """The sum of c * word.shifted(-t) over the (c, word, t) terms, built
        in one buffer."""
        placed = []
        for c, w, t in terms:
            if w.group != group:
                raise ValueError("words over different alphabets")
            if c and w.symbols:
                placed.append((c, w.symbols, w.start + t))
        if not placed:
            return cls.zero(group)
        lo = min(s for _, _, s in placed)
        hi = max(s + len(syms) for _, syms, s in placed) - 1
        buf = [[0] * group.rank for _ in range(lo, hi + 1)]
        for c, syms, s in placed:
            for acc, sym in zip(buf[s - lo:], syms):
                for k, x in enumerate(sym):
                    acc[k] += c * x
        return cls.make(group, lo, buf)

    def __add__(self, other: "Word") -> "Word":
        return Word.combine(self.group, ((1, self, 0), (1, other, 0)))

    def __neg__(self) -> "Word":
        return self.scaled(-1)

    def __sub__(self, other: "Word") -> "Word":
        return self + (-other)

    def scaled(self, k: int) -> "Word":
        if self.is_zero:
            return self
        g = self.group
        return Word.make(g, self.start, [g.scale(k, s) for s in self.symbols])

    def order(self) -> int:
        """Order of the word in the group H^(Z)."""
        return reduce(math.lcm, (self.group.order_of(s) for s in self.symbols), 1)

    # -- window vectors (scaled embedding into Z/exp(H)) ----------------------

    def window_vector(self, lo: int, hi: int) -> tuple[int, ...]:
        """Flattened scaled coordinates of the restriction to [lo, hi]."""
        r = self.group.rank
        out = [0] * ((hi - lo + 1) * r)
        for i in range(max(lo, self.start), min(hi + 1, self.start + len(self.symbols))):
            out[(i - lo) * r:(i - lo + 1) * r] = \
                self.group.coords_to_scaled(self.symbols[i - self.start])
        return tuple(out)

    @cached_property
    def _packed(self) -> int:
        """The window vector on the support packed once at the lanes of
        `group.modulus`; a placement is one shift and one mask of it."""
        vec = self.window_vector(self.start, self.start + len(self.symbols) - 1)
        return pack_rows([vec], self.group.modulus, len(vec))[0]

    def placed_rows(self, placements: Iterable[int], lo: int, ncols: int) -> list[int]:
        """One packed row (`residues.placed_rows`) per placement t: the window
        vector of shifted(-t) on the `ncols` columns from position `lo`."""
        r = self.group.rank
        return placed_rows(self._packed, self.group.modulus,
                           [(self.start + t - lo) * r for t in placements], ncols)

    @classmethod
    def from_window_vector(cls, group: FiniteAbelianGroup, lo: int,
                           vec: Sequence[int]) -> "Word":
        r = group.rank
        if r == 0:
            return cls.zero(group)
        if len(vec) % r:
            raise ValueError("vector length is not a multiple of the group rank")
        syms = [group.scaled_to_coords(tuple(vec[i:i + r]))
                for i in range(0, len(vec), r)]
        return cls.make(group, lo, syms)

    def format(self) -> str:
        """Render like a generator line body: "@start: sym sym ..."."""
        if self.is_zero:
            return "0"
        return f"@{self.start}: " + format_symbols(self.group, self.symbols)


def format_symbols(group: FiniteAbelianGroup, symbols: Iterable[Coords]) -> str:
    """Space-separated symbols: bare integers over a single-factor alphabet,
    "(c_1,...,c_k)" tuples otherwise; "0" when there are none."""
    if group.rank == 1:
        parts = [str(s[0]) for s in symbols]
    else:
        parts = ["(" + ",".join(str(c) for c in s) + ")" for s in symbols]
    return " ".join(parts) if parts else "0"

