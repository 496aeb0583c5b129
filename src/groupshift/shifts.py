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
with near-end states of one kind, stored in window orientation, at their
fixed points on both sides for the placements wholly on either side, kept
with the verdicts in one table per shift (`GroupShift.boundary_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import count
import math
from typing import Sequence

from .groups import FiniteAbelianGroup, primary_component
from .residues import (ENUM_CAP, EnumerationCapExceeded, HowellForm, PackedRows,
                       _lane_layout, howell_form, projection_heads)
from .words import Word


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
        (side, kind) (side True: the tail), and the verdicts of
        `_boundary_heads` per (block, scale), shared by every search."""
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
    """The p-primary component of the shift, presented over the p-part of H:
    the shift itself when H is a p-group, so that every stage shares its
    table of near-end states and verdicts (`boundary_table`)."""
    part = primary_component(shift.alphabet, p)
    if part.group == shift.alphabet:
        return shift
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
        return projection_heads(self.packed, self.modulus, kill,
                                [((p - lo) * r, r) for p in zero_positions],
                                (keep_lo - lo) * r, (keep_hi - lo + 1) * r)[0]


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
    rows, ncols, a, b = _boundary_rows(shift, width)
    kill = [] if torsion_scale is None else [(a, b - a, torsion_scale)]
    return projection_heads(rows, shift.alphabet.modulus, kill,
                            [(0, a), (b, ncols - b)], a, b)[0]


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

    margin: int          # echoed in the report only; no stage reads it
    support_cap: int     # max support length searched for generator words
    block_cap: int       # injectivity block search bound
    window_horizon: int  # windows [0, T] checked up to this T
    n_cap: int           # controllability index search cap, at least R

    @classmethod
    def derive(cls, shift: GroupShift, **overrides) -> "Horizons":
        span = max(shift.span, 1)
        values = dict(
            margin=max(span, shift.memory_hint or 0, 2),
            support_cap=2 * span + 2,
            block_cap=max(16, 2 * span + 2),
            window_horizon=max(4, span + 2),
            n_cap=max(16, _fixed_reach(shift)),
        )
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


def torsion_presentation(shift: GroupShift, p: int, horizons: Horizons
                         ) -> tuple[HowellForm, HowellForm, int | None]:
    """(F, T, t): the window form F on [0, window_horizon] = [0, H] of the
    finite p-torsion words of G, of any support, which present the p-torsion
    subshift G[p] when it is weakly controllable, the p-torsion form T of G
    on [0, H], and the least t <= H at which F does not generate T's window
    (None when every window passes, which is G[p]'s weak controllability at
    the window horizon).

    Both are exact: the block [1, H+1] of its boundary window
    (`_boundary_rows`) with p*v == 0 on every column, with U_p at its fixed
    point (elements zero far out) on both near ends for F and T_p at its
    fixed point (every element) for T.  Their windows [0, t] are
    `HowellForm.prefix`es."""
    r, m, top = shift.alphabet.rank, shift.alphabet.modulus, horizons.window_horizon
    forms = []
    for kind in (("far", p), p):
        rows, width, a, b = _boundary_rows(shift, top + 1, kind)
        forms.append(projection_heads(rows, m, [(0, width, p)], [], a, b)[0])
    form, torsion = forms
    failing = next((t for t in range(top + 1) if not form.prefix((t + 1) * r).spans_same(
        torsion.prefix((t + 1) * r))), None)
    return form, torsion, failing


# -- boundary windows with near-end states -----------------------------------


def _near_end(shift: GroupShift, tail: bool,
              kind: int | str | tuple = 1) -> HowellForm:
    """The near-end state T_d of kind d at its fixed point, as the boundary
    window reads it.  Past side: T_d(W) is the canonical projection to the
    last s-1 positions of [0, W-1] (s the span) of the span of the
    placements ending at or before W-1, cut at 0, with d*v == 0 on
    [0, W-s]; the tail side is its reflection (placements starting at or
    after 0, cut at W-1, d*v == 0 on [s-1, W-1], projected to [0, s-2]).
    d = 1 is the cut state S.  Of kind "whole" (d = 1) no placement is cut,
    as a finite message places whole generators.  Of kind ("far", d) the
    first state is S's fixed point, "zero far out": U_d is the footprint of
    the elements that vanish far out and are d-torsion beyond the near s-1.

    From W = s-1 on no placement is cut, so T_d(W+1) = M(T_d(W)) for one
    fixed M: one `projection_heads` on the s-position frame of the state
    (the tail's moved up one position) and the placements ending at its
    last position (tail: starting at its first), with d*v == 0 on the
    position that leaves it and the other s-1 kept.  A cut kind starts at
    T_d(s-1), one projection of the placements ending (tail: starting) on
    [0, s-2], cut there, for every d, as [0, W-s] is empty at W = s-1.
    "whole" starts at 0: M is monotone, so M^k(0) rises to M's least fixed
    point; the chain of the images of the messages wholly in [0, W-1] lies
    between M^k(0) and it and stops at a fixed point, so at that one.  Each
    sequence stops at its first repeat; it and the frame rows live in the
    shift's table."""
    s, r = shift.span, shift.alphabet.rank
    m, cols = shift.alphabet.modulus, s * r
    table = shift.boundary_table.setdefault("states", {})
    if (tail, kind) not in table:
        edges = [(g, g.first if tail else g.last) for g in shift.generators]
        if isinstance(kind, tuple):
            start = _near_end(shift, tail)
        elif kind == "whole" or s <= 1:
            start = HowellForm(m, max(cols - r, 0), (), ())
        else:
            start = projection_heads([x for g, a in edges for x in g.placed_rows(
                range(-a, s - 1 - a), 0, cols - r)], m, [], [], 0, cols - r)[0]
        frame = [x for g, a in edges for x in g.placed_rows([(0 if tail else s - 1) - a], 0, cols)]
        table[tail, kind] = frame, [start]
    frame, states = table[tail, kind]
    d = kind[1] if isinstance(kind, tuple) else 1 if kind == "whole" else kind
    up, cond, keep = (r * _lane_layout(m, cols)[0], cols - r, 0) if tail else (0, 0, r)
    while s > 1 and (len(states) == 1 or states[-1].packed != states[-2].packed):
        states.append(projection_heads([*(x << up for x in states[-1].packed), *frame], m,
                                       [(cond, r, d)], [], keep, keep + cols - r)[0])
    return states[-1]


def _fixed_reach(shift: GroupShift) -> int:
    """The least reach R >= max(s-1, 1) from which the cut states S(W) of
    both sides are fixed (R = 1 when s <= 1, where no state moves), read off
    the lengths of the two stored sequences: each starts at W = s-1 and
    stops one state past its first fixed one.  From R on both near ends of
    a window of past and tail width L read the fixed points, so every
    verdict of `_boundary_heads` is the one at every such L."""
    for tail in (False, True):
        _near_end(shift, tail)
    states = shift.boundary_table["states"]
    return max(1, *(shift.span - 3 + len(states[tail, 1][1]) for tail in (False, True)))


def _boundary_rows(shift: GroupShift, block: int,
                   kind: int | str | tuple = 1) -> tuple[list[int], int, int, int]:
    """(rows, ncols, block column, tail column) of the boundary window
    [2-s, block+s-1], s the span (at least 1), around the block [1, block]:
    the near-end states of `kind` at their fixed points (`_near_end`) on
    [2-s, 0] and, moved by lane shifts, on [block+1, block+s-1], and every
    placement that meets the block."""
    s, r, m = max(shift.span, 1), shift.alphabet.rank, shift.alphabet.modulus
    ncols, tail_col = (block + 2 * s - 2) * r, (block + s - 1) * r
    w = _lane_layout(m, ncols)[0]
    rows = [*_near_end(shift, False, kind).packed,
            *(x << tail_col * w for x in _near_end(shift, True, kind).packed)]
    for g in shift.generators:
        rows += g.placed_rows(range(1 - g.last, block - g.first + 1), 2 - s, ncols)
    return rows, ncols, (s - 1) * r, tail_col


def _boundary_heads(shift: GroupShift, block: int,
                    d: int | None) -> tuple[HowellForm, list[int], bool]:
    """(kept, heads, verdict) of the window question on the block [1, block]
    with d*v == 0 there (d None: no condition): one elimination on the
    boundary window of `_boundary_rows`, made once per shift into its table.
    It keeps the past near end [2-s, 0] and zeroes the tail one; the
    verdict, that zeroing the tail keeps the past projection, holds when
    every head lies in the kept rows.  It is the verdict on every window
    [-L, block+L] with L >= `_fixed_reach`.  The condition is vacuous at
    block 0, where there is no position to constrain, and for d a multiple
    of exp(G), such as exp(H), so those scales share the verdict of d None.

    A placement wholly in the past or the tail meets the rest of the full
    window only on the near-end positions, so standing in the submodule it
    generates there for it changes either past projection of the full window
    only by the span of the past-only placements.  With s <= 1 no placement
    straddles a position: both near ends are empty, so there are no kept
    rows and no heads, and the verdict holds."""
    if block == 0 or d is not None and d % shift.exponent == 0:
        d = None
    key, table = (block, d), shift.boundary_table
    if key in table:
        return table[key]
    rows, ncols, block_col, tail_col = _boundary_rows(shift, block)
    kill = [] if d is None else [(block_col, block * shift.alphabet.rank, d)]
    kept, heads = projection_heads(rows, shift.alphabet.modulus, kill,
                                   [(tail_col, ncols - tail_col)], 0, block_col)
    table[key] = kept, heads, all(map(kept.contains, heads))
    return table[key]


# -- finite type -------------------------------------------------------------


@dataclass(frozen=True)
class FiniteTypeReport:
    memory: int
    cap: int | None


def finite_type_memory(shift: GroupShift, cap: int | None = None,
                       horizon: int | None = None) -> FiniteTypeReport:
    """Least N >= 1 with the splice property at every reach.  At reach K,
    every element of G|[-K, N+K] vanishing on the block [0, N] matches on
    [N+1, N+K] one that also vanishes on [-K, -1]; that is, the submodule
    vanishing on the block splits into its parts vanishing on either side,
    so the left side may be kept instead:
    `_boundary_heads` at scale 1 on the block translated to [1, N+1], the
    verdict at every reach from `_fixed_reach` on, which the order search
    shares as its scale-1 verdict on that block.

    It decides the reaches below too, as the splice is monotone in the
    reach.  Suppose it holds at K+1, and take x in G|[-K, N+K] vanishing on
    the block.  Extend x to x' in G|[-K-1, N+K+1]; x' still vanishes on the
    block.  Split x' at K+1, and restrict to [-K, N+K] the part that
    vanishes on the left: it vanishes on [-K, -1] and on the block, and
    matches x on [N+1, N+K], so it splits x at K.

    The scan ends: a group shift X is of finite type (Kitchens 1987), with
    some M >= 1 such that blocks of M+1 positions decide membership.  For
    N >= M and x in X vanishing on [0, N], the point z that is 0 up to N and
    x after it lies in X, as each such block lies in (-oo, N], where z is 0,
    or in [0, oo), where z is x; and z splits x at every reach.  `cap` is
    only echoed into the report and `horizon` is ignored; both stay as
    `perfbench/ops.py:run_analyze` passes them."""
    return FiniteTypeReport(next(n for n in count(1)
                                 if _boundary_heads(shift, n + 1, 1)[2]), cap)


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
