"""Group shifts presented by finite-support generator words.

A presentation stands for the closed shift-invariant subgroup generated by
all integer shifts of its generator words.  The projection of that group onto
a finite window [a, b] is the module spanned by the restrictions of every
shifted generator whose support meets the window, including the partial
overlaps at the window edges; this makes weak controllability hold by
construction.  A steering condition (`control`), the splice property of
`finite_type_memory`, the certified words of a width (`supported_words`: one
form, read off by `zero_prefix` for narrower windows), the p-torsion windows
(`torsion_presentation`) or the backward noncatastrophicity of an
encoder's taps is one elimination on a boundary window around its block,
with near-end states of one kind per side for the placements wholly on
either side, kept with the verdicts in one table per shift
(`GroupShift.boundary_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import count
import math
from typing import Sequence

from .groups import FiniteAbelianGroup, primary_component
from .residues import (ENUM_CAP, EnumerationCapExceeded, HowellForm, PackedRows,
                       _eliminate, _lane_layout, howell_form, placed_rows,
                       projection_heads)
from .words import Word, word_span


class SpliceFailed(Exception):
    """The glued word is not in the shift."""


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
    def boundary_table(self) -> dict:
        """The near-end state sequences of `_near_end` under "states", per
        (side, kind) (side True: mirrored), the reversed mirrored states
        under "tails" and the verdicts of `_boundary_heads` per argument
        tuple, shared by every search."""
        return {}

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

    # -- constrained submodules ------------------------------------------------

    def constrained_projection(self, keep_lo: int, keep_hi: int,
                               zero_positions: Sequence[int] = (),
                               kill_scale: int | None = None,
                               kill_positions: Sequence[int] | None = None) -> HowellForm:
        """Canonical form of the projection to [keep_lo, keep_hi] of the
        submodule {v : v == 0 on zero_positions, kill_scale*v == 0 on
        kill_positions}; the torsion condition covers the whole window when
        kill_positions is None; only the tests call it."""
        lo, r = self.lo, self.shift.alphabet.rank
        if kill_positions is None:
            kill_positions = range(lo, self.hi + 1)
        kill = [((p - lo) * r, r, kill_scale) for p in kill_positions if kill_scale is not None]
        kept, _ = projection_heads(self.packed, self.modulus, kill,
                                   [((p - lo) * r, r) for p in zero_positions],
                                   (keep_lo - lo) * r, (keep_hi - lo + 1) * r)
        return howell_form(PackedRows(kept.packed, kept.ncols), self.modulus)


@lru_cache(maxsize=64)
def _window_module(shift: GroupShift, lo: int, hi: int) -> WindowModule:
    if hi < lo:
        raise ValueError("empty window")
    # one row per contributor (gi, t) of `GroupShift.contributors`, in order
    ncols = (hi - lo + 1) * shift.alphabet.rank
    packed = [row for g in shift.generators
              for row in g.placed_rows(range(lo - g.last, hi - g.first + 1), lo, ncols)]
    return WindowModule(shift, lo, hi, tuple(packed))


# -- certified words with prescribed support --------------------------------


@lru_cache(maxsize=64)
def supported_words(shift: GroupShift, width: int,
                    torsion_scale: int | None = None) -> HowellForm:
    """The certified words supported inside [0, width-1] (torsion_scale * w
    == 0 when given), exactly and with no margin: moved to the block [1,
    width], the elements of its boundary window (`_boundary_rows`, cut states
    at their fixed points) vanishing on both near ends, so torsion binds the
    block.  G is shift-invariant and a Howell form is unique for its span, so
    the words on [0, t] are `zero_prefix((width-1-t) * rank)`, moved to 0."""
    rows, ncols, a, b = _boundary_rows(shift, width, math.inf, math.inf)
    kill = [] if torsion_scale is None else [(a, b - a, torsion_scale)]
    kept, _ = projection_heads(rows, shift.alphabet.modulus, kill,
                               [(0, a), (b, ncols - b)], a, b)
    return howell_form(PackedRows(kept.packed, kept.ncols), shift.alphabet.modulus)


def member(shift: GroupShift, w: Word) -> bool:
    """Whether w lies in the shift, exactly: a lookup in the certified words
    of w's support length, translated to start at 0 so that every word of
    one length shares one form."""
    return w.is_zero or supported_words(shift, w.support_length).contains(
        w.window_vector(w.first, w.last))


# the tests' reference of `torsion_presentation`'s exact windows; maxsize=0
# caches nothing and keeps the `cache_clear` that perfbench/record.py calls
@lru_cache(maxsize=0)
def torsion_window_projection(shift: GroupShift, lo: int, hi: int, margin: int,
                              p: int) -> HowellForm:
    """Projection onto [lo, hi] of the margin-padded p-torsion submodule."""
    module = shift.window(lo - margin, hi + margin)
    return module.constrained_projection(lo, hi, kill_scale=p)


@dataclass(frozen=True)
class Horizons:
    """All window sizes and caps used by the pipeline, kept for reports."""

    margin: int          # support pad of the tap-lift searches
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


def torsion_presentation(shift: GroupShift, p: int, horizons: Horizons
                         ) -> tuple[HowellForm, HowellForm, int | None]:
    """(F, T, t): the window form F on [0, window_horizon] = [0, H] of the
    p-torsion subshift G[p] presented by the distinct translates to 0 of the
    certified p-torsion words supported in [0, support_cap - 1]
    (`encoders.socle_shift` builds that presentation), the p-torsion form T
    of G on [0, H], and the least t <= H at which F does not generate T's
    window (None when every window passes, which is G[p]'s weak
    controllability at these horizons).

    F is built from the candidates' packed rows: each is moved down to its
    first nonzero position, and each distinct one is placed at every offset
    that meets [0, H].  T is exact: the block [1, H+1] of its boundary window
    (`_boundary_rows`) with T_p at its fixed point on both near ends and
    p*v == 0 on every column.  Their windows [0, t] are `HowellForm.prefix`es."""
    r, m, top = shift.alphabet.rank, shift.alphabet.modulus, horizons.window_horizon
    cands = supported_words(shift, horizons.support_cap, torsion_scale=p)
    ncols = (top + 1) * r
    pos = r * _lane_layout(m, ncols)[0]  # bits per position
    starts = dict.fromkeys(x >> ((x & -x).bit_length() - 1) // pos * pos for x in cands.packed)
    rows = [row for x in starts for row in placed_rows(
        x, m, range(-((x.bit_length() - 1) // pos) * r, ncols, r), ncols)]
    form = howell_form(PackedRows(tuple(rows), ncols), m)
    rows, width, a, b = _boundary_rows(shift, top + 1, math.inf, math.inf, (p, p))
    kept, _ = projection_heads(rows, m, [(0, width, p)], [], a, b)
    torsion = howell_form(PackedRows(kept.packed, kept.ncols), m)
    failing = next((t for t in range(top + 1) if not form.prefix((t + 1) * r).spans_same(
        torsion.prefix((t + 1) * r))), None)
    return form, torsion, failing


# -- boundary windows with near-end states -----------------------------------


def _near_end(shift: GroupShift, width: float, mirror: bool,
              kind: int | str = 1) -> HowellForm:
    """The near-end state T_d(width) of kind d: the span of the placements
    ending at or before width-1, cut at position 0, with d*v == 0 on
    [0, width-s] (s the span), projected to the last s-1 positions of
    [0, width-1] as a canonical form (positions below 0 read zero); d = 1 is
    the cut state S.  `mirror` reverses every generator's symbols.  Of kind
    "whole" (d = 1) a placement reaching below 0 is left out instead of cut,
    as a finite message places whole generators: these states rise with
    the width, and `math.inf` reads their fixed point.

    T_d(W+1) = (T_d(W) + placements ending at W) ∩ {d*v == 0 at W-s+1}: the
    s-position frame [W-s+1, W] is eliminated with its first position scaled
    by d, which `zero_prefix` drops.  From W = s-1 on no placement is cut or
    left out, so the step is a fixed map and the sequence stops at its first
    repeat.  The placements' frame rows and the sequence live in the
    shift's table."""
    s, r = shift.span, shift.alphabet.rank
    m, cols = shift.alphabet.modulus, s * r
    table = shift.boundary_table.setdefault("states", {})
    if (mirror, kind) not in table:
        gens = [Word(g.group, 0, g.symbols[::-1]) if mirror else g for g in shift.generators]
        frame = [(len(g.symbols), x) for g in gens
                 for x in g.placed_rows([-g.last], 1 - s, cols)]
        table[mirror, kind] = frame, [HowellForm(m, max(cols - r, 0), (), ())]
    frame, states = table[mirror, kind]
    w, _, red = _lane_layout(m, cols)
    while s > 1 and len(states) <= width and not (len(states) > s and
                                                  states[-1].packed == states[-2].packed):
        cut = max(s - len(states), 0) * r * w  # frame positions below 0
        step = [x for n, x in frame if n <= len(states)] if kind == "whole" else \
            [x >> cut << cut for _, x in frame]
        rows = [*states[-1].packed, *step]
        if kind not in (1, "whole"):  # scale the first position, below m^2 per lane
            rows = [red(x + (kind - 1) * (x & (1 << r * w) - 1)) for x in rows]
        done, pivots = _eliminate(rows, m, cols, 0)
        states.append(HowellForm(m, cols, tuple(done), tuple(pivots)).zero_prefix(r))
    return states[min(width, len(states) - 1)]


def _states_fixed(shift: GroupShift, past: int, tail: int) -> bool:
    """True when s <= 1, or when S(width) is fixed from width `past` >= s-1
    on and the mirrored one from width `tail` >= s-1 on."""
    return shift.span <= 1 or all(
        _near_end(shift, w + 1, mirror).packed == _near_end(shift, w, mirror).packed
        for w, mirror in ((past, False), (tail, True)))


def _boundary_rows(shift: GroupShift, block: int, past: float, tail: float,
                   kinds: tuple = (1, 1)) -> tuple[list[int], int, int, int]:
    """(rows, ncols, block column, tail column) of the boundary window
    [lo, hi] = [2-s, block+s-1] clipped to [1-past, block+tail], s the span
    (at least 1), around the block [1, block]: the past state of kind
    kinds[0] at width `past` on [lo, 0], the mirrored shift's of kind
    kinds[1] at width `tail`, reversed once per state by lane shifts, on
    [block+1, hi] (`_near_end`), and every placement that meets the block."""
    s, r, m = max(shift.span, 1), shift.alphabet.rank, shift.alphabet.modulus
    lo, hi = max(2 - s, 1 - past), min(block + s - 1, block + tail)
    ncols, tail_col = (hi - lo + 1) * r, (block + 1 - lo) * r
    w = _lane_layout(m, ncols)[0]
    # the states read zero where the window is clipped, so the lanes that
    # these shifts move out of [lo, hi] are zero
    rows = [x >> (lo + s - 2) * r * w for x in _near_end(shift, past, False, kinds[0]).packed]
    state = _near_end(shift, tail, True, kinds[1]).packed
    tails = shift.boundary_table.setdefault("tails", {})
    if state not in tails:
        tails[state] = [sum((x >> i * r * w & (1 << r * w) - 1) << (s - 2 - i) * r * w
                            for i in range(s - 1)) for x in state]
    rows += [x << tail_col * w for x in tails[state]]
    for g in shift.generators:
        rows += g.placed_rows(range(1 - g.last, block - g.first + 1), lo, ncols)
    return rows, ncols, (1 - lo) * r, tail_col


def _boundary_heads(shift: GroupShift, block: int, d: int | None, past: int,
                    tail: int) -> tuple[HowellForm, list[int], bool]:
    """(kept, heads, verdict) of the window question on the block [1, block]
    with d*v == 0 there (d None: no condition), a past [1-past, 0] and a tail
    [block+1, block+tail]: one elimination on the boundary window of
    `_boundary_rows`, made once per shift into its table.  It keeps the past
    near end [lo, 0] and zeroes the tail one; the verdict, that zeroing the
    tail keeps the past projection, holds when every head lies in the kept
    rows.

    A placement wholly in the past or the tail meets the rest of the full
    window only on the near-end positions, so standing in the submodule it
    generates there for it changes either past projection of the full window
    only by the span of the past-only placements.  With s <= 1 no placement
    straddles a position and nothing is eliminated."""
    key, table = (block, d, past, tail), shift.boundary_table
    if key in table:
        return table[key]
    if shift.span <= 1:
        return HowellForm(shift.alphabet.modulus, 0, (), ()), [], True
    rows, ncols, block_col, tail_col = _boundary_rows(shift, block, past, tail)
    kill = [] if d is None else [(block_col, block * shift.alphabet.rank, d)]
    kept, heads = projection_heads(rows, shift.alphabet.modulus, kill,
                                   [(tail_col, ncols - tail_col)], 0, block_col)
    table[key] = kept, heads, all(map(kept.contains, heads))
    return table[key]


# -- finite type -------------------------------------------------------------


@dataclass(frozen=True)
class FiniteTypeReport:
    memory: int | None
    cap: int


def finite_type_memory(shift: GroupShift, cap: int,
                       horizon: int | None = None) -> FiniteTypeReport:
    """Least N <= cap with the splice property at every reach R <= horizon
    + N (the horizon defaults to span + 2), absent when none has it.  At R,
    every element of [-R, N+R] vanishing on the block [0, N] matches on
    [N+1, N+R] one that also vanishes on [-R, -1]; that is, the submodule
    vanishing on the block splits into its parts vanishing on either side,
    so the left side may be kept instead: `_boundary_heads` at scale 1 on
    the block translated to [1, N+1].  From the first R >= s-1 where both
    states are fixed the window is unclipped and every verdict is the same,
    so the scan stops there."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if horizon is None:
        horizon = shift.span + 2
    fixed = next(R for R in count(max(shift.span - 1, 1)) if _states_fixed(shift, R, R))
    for n in range(1, cap + 1):
        if all(_boundary_heads(shift, n + 1, 1, reach, reach)[2]
               for reach in range(1, min(horizon + n, fixed) + 1)):
            return FiniteTypeReport(n, cap)
    return FiniteTypeReport(None, cap)


def splice(shift: GroupShift, x1: Word, x2: Word, k: int, n: int) -> Word:
    """The word equal to x1 left of k+n and to x2 right of k, checked.

    The inputs must be members that agree on the block [k, k+n]; the gluing
    is unique, and a member whenever n is at least the shift's memory.
    """
    if x1.group != shift.alphabet or x2.group != shift.alphabet:
        raise ValueError("alphabet mismatch")
    if not x1.agrees_on(x2, k, k + n):
        raise ValueError("words disagree on the splice block")
    if not (member(shift, x1) and member(shift, x2)):
        raise ValueError("splice inputs must be members")
    span = word_span([x1, x2])
    if span is None:
        return Word.zero(shift.alphabet)
    lo = min(span[0], k) - 1
    hi = max(span[1], k + n) + 1
    glued = Word.make(shift.alphabet, lo,
                      [x1.value_at(i) if i <= k + n else x2.value_at(i)
                       for i in range(lo, hi + 1)])
    if not member(shift, glued):
        raise SpliceFailed(f"glued word is not in the shift: no splice at N={n}")
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
