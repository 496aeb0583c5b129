"""Group shifts presented by finite-support generator words.

A presentation stands for the closed shift-invariant subgroup generated by
all integer shifts of its generator words.  The projection of that group onto
a finite window [a, b] is the module spanned by the restrictions of every
shifted generator whose support meets the window, including the partial
overlaps at the window edges; this makes weak controllability hold by
construction, and membership of finite words is certified window by window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
import math
from typing import Sequence

from .groups import FiniteAbelianGroup, primary_component
from .residues import (ENUM_CAP, EnumerationCapExceeded, HowellForm, PackedRows,
                       howell_form, projection_heads)
from .words import Word, word_span


class SpliceFailed(Exception):
    """No splice word was found inside the solver window."""


@dataclass(frozen=True)
class GroupShift:
    """Presentation of a group shift by finite-support generator words."""

    alphabet: FiniteAbelianGroup
    generators: tuple[Word, ...]
    memory_hint: int | None = None

    @classmethod
    def make(cls, alphabet: FiniteAbelianGroup, generators: Sequence[Word],
             memory_hint: int | None = None) -> "GroupShift":
        gens = tuple(g for g in generators if not g.is_zero)
        for g in gens:
            if g.group != alphabet:
                raise ValueError("generator alphabet mismatch")
        if memory_hint is not None and memory_hint < 1:
            raise ValueError("declared memory must be positive")
        return cls(alphabet, gens, memory_hint)

    @cached_property
    def span(self) -> int:
        """Longest generator support length (0 for the zero shift)."""
        return max((g.support_length for g in self.generators), default=0)

    @cached_property
    def exponent(self) -> int:
        """Exponent of the generated group: lcm of the generator orders."""
        return reduce(math.lcm, (g.order() for g in self.generators), 1)

    def exponent_exponent(self, p: int) -> int:
        """e with exp(G) == p^e, for a shift of p-power exponent."""
        e = 0
        n = self.exponent
        while n % p == 0:
            n //= p
            e += 1
        if n != 1:
            raise ValueError("shift exponent is not a power of the given prime")
        return e

    def contributors(self, lo: int, hi: int) -> tuple[tuple[int, int], ...]:
        """All (generator index, placement t) whose support meets [lo, hi].

        Placement t means the generator translated to start t positions later,
        i.e. the word shifted(-t).
        """
        out = []
        for gi, g in enumerate(self.generators):
            f, l = g.first, g.last
            for t in range(lo - l, hi - f + 1):
                out.append((gi, t))
        return tuple(out)

    def placed(self, gi: int, t: int) -> Word:
        return self.generators[gi].shifted(-t)

    def window(self, lo: int, hi: int) -> "WindowModule":
        return _window_module(self, lo, hi)

    def default_margin(self) -> int:
        return self.memory_hint if self.memory_hint is not None else max(self.span, 1)


def primary_shift(shift: GroupShift, p: int) -> GroupShift:
    """The p-primary component of the shift, presented over the p-part of H."""
    part = primary_component(shift.alphabet, p)
    gens = []
    for g in shift.generators:
        syms = [part.project_coords(s) for s in g.symbols]
        gens.append(Word.make(part.group, g.start, syms))
    return GroupShift.make(part.group, gens)


@dataclass(frozen=True)
class WindowModule:
    """The projection of a group shift onto the window [lo, hi]: the scaled
    restriction of each contributor as one packed row, which `form`, the
    constrained projections and their heads keep packed."""

    shift: GroupShift
    lo: int
    hi: int
    packed: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.shift.alphabet.modulus

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def rank_width(self) -> int:
        return self.width * self.shift.alphabet.rank

    @cached_property
    def form(self) -> HowellForm:
        return howell_form(PackedRows(self.packed, self.rank_width), self.modulus)

    def size(self) -> int:
        return self.form.size()

    def contains_word(self, w: Word) -> bool:
        return self.form.contains(w.window_vector(self.lo, self.hi))

    # -- constrained submodules ------------------------------------------------

    def constrained_projection(self, keep_lo: int, keep_hi: int,
                               zero_positions: Sequence[int] = (),
                               kill_scale: int | None = None,
                               kill_positions: Sequence[int] | None = None) -> HowellForm:
        """Canonical form of the projection to [keep_lo, keep_hi] of the
        submodule {v : v == 0 on zero_positions, kill_scale*v == 0 on
        kill_positions}; the torsion condition covers the whole window when
        kill_positions is None."""
        kept, _ = self.projection_heads(keep_lo, keep_hi, zero_positions,
                                        kill_scale, kill_positions)
        return howell_form(PackedRows(kept.packed, kept.ncols), self.modulus)

    def projection_heads(self, keep_lo: int, keep_hi: int, zero_positions: Sequence[int],
                         kill_scale: int | None = None,
                         kill_positions: Sequence[int] | None = None
                         ) -> tuple[HowellForm, list[int]]:
        """`residues.projection_heads` for `constrained_projection` with and
        without `zero_positions`: one elimination, and the projection is the
        same for both exactly when every head lies in the kept form."""
        lo, r = self.lo, self.shift.alphabet.rank
        if kill_positions is None:
            kill_positions = range(lo, self.hi + 1)
        kill = [((p - lo) * r, r, kill_scale) for p in kill_positions if kill_scale is not None]
        return projection_heads(self.packed, self.modulus, kill,
                                [((p - lo) * r, r) for p in zero_positions],
                                (keep_lo - lo) * r, (keep_hi - lo + 1) * r)


@lru_cache(maxsize=64)
def _window_module(shift: GroupShift, lo: int, hi: int) -> WindowModule:
    if hi < lo:
        raise ValueError("empty window")
    # one row per contributor (gi, t) of `GroupShift.contributors`, in order
    ncols = (hi - lo + 1) * shift.alphabet.rank
    packed = [row for g in shift.generators
              for row in g.placed_rows(range(lo - g.last, hi - g.first + 1), lo, ncols)]
    return WindowModule(shift, lo, hi, tuple(packed))


@dataclass(frozen=True)
class MembershipCertificate:
    """Window-scale membership verdict for a finite word."""

    word: Word
    margin: int
    window: tuple[int, int]
    certified_in: bool


def member(shift: GroupShift, w: Word, margin: int | None = None) -> MembershipCertificate:
    """Certify membership of w on its support padded by the margin.

    certified-in means the padded restriction lies in the window module; for
    shifts of finite type with memory <= margin the verdict is exact.
    """
    if margin is None:
        margin = shift.default_margin()
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if w.is_zero:
        return MembershipCertificate(w, margin, (0, 0), True)
    lo, hi = w.first - margin, w.last + margin
    module = shift.window(lo, hi)
    return MembershipCertificate(w, margin, (lo, hi), module.contains_word(w))


# -- certified words with prescribed support --------------------------------


@dataclass(frozen=True)
class SupportedWords:
    """Module of window-certified words supported inside [lo, hi]."""

    shift: GroupShift
    lo: int
    hi: int
    form: HowellForm

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(Word.from_window_vector(self.shift.alphabet, self.lo, row)
                     for row in self.form.rows)


@lru_cache(maxsize=64)
def supported_words(shift: GroupShift, lo: int, hi: int, margin: int,
                    torsion_scale: int | None = None) -> SupportedWords:
    """Certified-at-margin words of the shift supported inside [lo, hi]."""
    module = shift.window(lo - margin, hi + margin)
    pads = list(range(lo - margin, lo)) + list(range(hi + 1, hi + margin + 1))
    form = module.constrained_projection(lo, hi, zero_positions=pads,
                                         kill_scale=torsion_scale)
    return SupportedWords(shift, lo, hi, form)


# maxsize=0 caches nothing, as no key repeats on the bench pools, and keeps
# the `cache_clear` that perfbench/record.py calls on each shifts cache
@lru_cache(maxsize=0)
def torsion_window_projection(shift: GroupShift, lo: int, hi: int, margin: int,
                              p: int) -> HowellForm:
    """Projection onto [lo, hi] of the margin-padded p-torsion submodule."""
    module = shift.window(lo - margin, hi + margin)
    return module.constrained_projection(lo, hi, kill_scale=p)


@dataclass(frozen=True)
class Horizons:
    """All window sizes and caps used by the pipeline, kept for reports."""

    margin: int          # membership certification margin
    support_cap: int     # max support length searched for generator words
    block_cap: int       # injectivity block search bound
    window_horizon: int  # windows [0, T] checked up to this T
    n_cap: int           # controllability index search cap

    @classmethod
    def derive(cls, shift: GroupShift, **overrides) -> "Horizons":
        span = max(shift.span, 1)
        values = dict(
            margin=max(span, shift.memory_hint or 0, 2),
            support_cap=2 * span + 2,
            block_cap=max(16, 2 * span + 2),
            window_horizon=max(4, span + 2),
            n_cap=16,
        )
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


def torsion_presentation(shift: GroupShift, p: int,
                         horizons: Horizons) -> tuple[GroupShift, int | None]:
    """The p-torsion subshift G[p] presented by the distinct translates to 0
    of the certified p-torsion words supported in [0, support_cap - 1], and
    the least t <= window_horizon for which that presentation does not
    generate the p-torsion projection of G's window [0, t] (None when every
    window passes, which is G[p]'s weak controllability at these horizons).
    The presentation's window module on [0, t] is the projection of the one
    on [0, H], so each is read off that one form by `HowellForm.prefix`."""
    words = supported_words(shift, 0, horizons.support_cap - 1, horizons.margin,
                            torsion_scale=p).words
    result = GroupShift.make(shift.alphabet,
                             list(dict.fromkeys(w.shifted(w.first) for w in words)))
    top, r = result.window(0, horizons.window_horizon).form, shift.alphabet.rank
    failing = next((t for t in range(horizons.window_horizon + 1)
                    if not top.prefix((t + 1) * r).spans_same(
                        torsion_window_projection(shift, 0, t, horizons.margin, p))),
                   None)
    return result, failing


# -- finite type -------------------------------------------------------------


@dataclass(frozen=True)
class FiniteTypeReport:
    memory: int | None
    cap: int


def _splice_property_holds(shift: GroupShift, n: int, reach: int) -> bool:
    """Splice check on the window [-reach, n + reach] with the block [0, n].

    Every module element vanishing on the block must split as (something
    vanishing on the whole left half) matching it on the strict right part:
    zeroing the left half keeps the right projection of the block-vanishing
    submodule, decided by one elimination.
    """
    module = shift.window(-reach, n + reach)
    kept, heads = module.projection_heads(n + 1, n + reach, range(-reach, 0),
                                          kill_scale=1, kill_positions=range(0, n + 1))
    return all(map(kept.contains, heads))


def finite_type_memory(shift: GroupShift, cap: int,
                       horizon: int | None = None) -> FiniteTypeReport:
    """Least N <= cap with the verified splice property, scanning window
    reaches up to the horizon; absent when no candidate passes."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if horizon is None:
        horizon = shift.span + 2
    for n in range(1, cap + 1):
        if all(_splice_property_holds(shift, n, reach)
               for reach in range(1, horizon + n + 1)):
            return FiniteTypeReport(n, cap)
    return FiniteTypeReport(None, cap)


def splice(shift: GroupShift, x1: Word, x2: Word, k: int, n: int,
           margin: int | None = None) -> Word:
    """The word equal to x1 left of k+n and to x2 right of k, certified.

    The inputs must agree on the block [k, k+n]; the gluing is unique and the
    work is certifying membership inside a bounded window.
    """
    if x1.group != shift.alphabet or x2.group != shift.alphabet:
        raise ValueError("alphabet mismatch")
    if not x1.agrees_on(x2, k, k + n):
        raise ValueError("words disagree on the splice block")
    cert1 = member(shift, x1, margin)
    cert2 = member(shift, x2, margin)
    if not (cert1.certified_in and cert2.certified_in):
        raise ValueError("splice inputs must be certified members")
    span = word_span([x1, x2])
    if span is None:
        return Word.zero(shift.alphabet)
    lo = min(span[0], k) - 1
    hi = max(span[1], k + n) + 1
    glued = Word.make(shift.alphabet, lo,
                      [x1.value_at(i) if i <= k + n else x2.value_at(i)
                       for i in range(lo, hi + 1)])
    solver_margin = shift.span + n if margin is None else margin + n
    cert = member(shift, glued, solver_margin)
    if not cert.certified_in:
        raise SpliceFailed(
            f"glued word not certified within margin {solver_margin}; "
            f"evidence against finite type at N={n}")
    return glued


# -- brute-force window code enumeration (independent oracle path) -----------


def enumerate_window_code(shift: GroupShift, lo: int, hi: int,
                          cap: int = ENUM_CAP) -> tuple[tuple[int, ...], ...]:
    """All window configurations of the code on [lo, hi], by coset closure.

    Works directly on unscaled symbol tuples and never touches the canonical
    form machinery, so it can serve as an independent cross-check.  With idx
    the least k > 0 such that k*g lies in the code E built so far, E + <g> is
    the disjoint union of the cosets E + k*g for 0 <= k < idx: each element
    is built once, and a contributor already in E costs one membership probe.
    """
    orders = shift.alphabet.orders * (hi - lo + 1)

    def add(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    elements = {tuple([0] * len(orders))}
    for gi, t in shift.contributors(lo, hi):
        placed = shift.placed(gi, t)
        g = tuple(x for i in range(lo, hi + 1) for x in placed.value_at(i))
        multiples = [g]  # k*g for k = 1..idx
        while multiples[-1] not in elements:
            if len(elements) * (len(multiples) + 1) > cap:
                raise EnumerationCapExceeded(f"window code exceeds {cap} elements")
            multiples.append(add(multiples[-1], g))
        elements = elements.union(*({add(e, kg) for e in elements}
                                    for kg in multiples[:-1]))
    return tuple(sorted(elements))
