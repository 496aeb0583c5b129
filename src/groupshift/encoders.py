"""Canonical generating sets and homomorphic encoders for group shifts.

For an order-controllable shift over a p-group alphabet the pipeline selects
finite-support p-torsion words x_j starting at position 0 whose initial
symbols form a basis of the initial-value space of one-sided torsion
members, each with the maximal height h_j realized as x_j = p^{h_j} * y_j
with y_j a certified finite word.  The taps y_j induce the sliding
homomorphism onto the shift; injectivity, noncatastrophicity and window
surjectivity are certified at recorded horizons, and a mixed alphabet is
handled one primary component at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .control import order_controllability_index
from .groups import FiniteAbelianGroup, _prime_power_factors, primary_component
from .residues import (HowellForm, PackedRows, Vec, _bytes_to_lanes, _lane_bytes,
                       _lane_layout, _lanes_to_bytes, combine_rows, howell_form,
                       placed_rows, projection_heads, residue_table, row_solver, unpack_rows)
from .shifts import (GroupShift, Horizons, _boundary_rows, primary_shift,
                     supported_words, torsion_presentation)
from .words import Word


class PipelineFailure(Exception):
    """A pipeline stage could not establish its contract at the horizon."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


# -- derived shifts ----------------------------------------------------------


def multiple_shift(shift: GroupShift, p: int, r: int) -> GroupShift:
    """Presentation of p^r G: generators scaled by p^r (zero words dropped)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return shift
    if p ** r >= shift.alphabet.modulus:
        raise ValueError(f"p^r = {p ** r} must stay below exp(H)")
    scale = p ** r
    return GroupShift.make(shift.alphabet, [g.scaled(scale) for g in shift.generators])


def scaled_finite_words_check(shift: GroupShift, p: int, r: int,
                              horizons: Horizons) -> tuple[bool, str]:
    """Window-scale equality of p^r * (certified words of G) and the
    certified words of the p^r G presentation on every [0, t], t <= H: one
    form on [0, H] per shift, each [0, t] read off it by `zero_prefix`."""
    h, rank, factor = horizons.window_horizon, shift.alphabet.rank, p ** r
    base = supported_words(shift, h + 1)
    scaled = supported_words(multiple_shift(shift, p, r), h + 1)
    m, red = base.modulus, _lane_layout(base.modulus, base.ncols)[2]  # products < m^2
    for t in range(h + 1):
        target = scaled.zero_prefix((h - t) * rank)
        rows = tuple(red(factor * x) for x in base.zero_prefix((h - t) * rank).packed)
        if not howell_form(PackedRows(rows, target.ncols), m).spans_same(target):
            return False, f"finite-word modules differ on [0,{t}] for r={r}"
    return True, ""


def _socle_failure(failing: int, horizons: Horizons) -> str:
    return (f"p-torsion window [0,{failing}] not generated by finite torsion "
            f"members with support <= {horizons.support_cap}")


def socle_shift(shift: GroupShift, p: int,
                horizons: Horizons | None = None) -> GroupShift:
    """Presentation of the p-torsion subshift G[p] by the distinct translates
    to 0 of its certified finite torsion words on [0, support_cap - 1]; fails
    loudly when it does not generate the p-torsion projections of G's
    windows up to the horizon (`shifts.torsion_presentation`, which decides
    that on the packed rows alone), i.e. when G[p] is not weakly
    controllable at this scale.
    """
    if shift.alphabet.exponent % p != 0:
        raise ValueError(f"{p} does not divide exp(H)")
    if horizons is None:
        horizons = Horizons.derive(shift)
    failing = torsion_presentation(shift, p, horizons)[2]
    if failing is not None:
        raise PipelineFailure("socle-presentation", _socle_failure(failing, horizons))
    words = (Word.from_window_vector(shift.alphabet, 0, row) for row in
             supported_words(shift, horizons.support_cap, torsion_scale=p).rows)
    return GroupShift.make(shift.alphabet,
                           list(dict.fromkeys(w.shifted(w.first) for w in words)))


# -- one-sided initial values and generator selection ------------------------


def initial_value_space(shift: GroupShift, p: int) -> int:
    """F_p rank of the initial symbols of one-sided torsion members, exactly:
    the block of the boundary window of [1, 1] (`shifts._boundary_rows`)
    with the cut state S on the past near end, zeroed, and the torsion state
    T_p on the tail, p*v == 0 on the block and the tail.  The kept rows have
    the Howell property, so they count an F_p basis."""
    rows, ncols, a, b = _boundary_rows(shift, 1, math.inf, math.inf, (1, p))
    return projection_heads(rows, shift.alphabet.modulus, [(a, ncols - a, p)],
                            [(0, a)], a, b)[0].rank


@dataclass(frozen=True)
class GeneratorEntry:
    """One canonical generator: torsion word x = p^height * tap."""

    torsion_word: Word
    height: int
    tap: Word


@dataclass(frozen=True)
class CanonicalGeneratorSet:
    shift: GroupShift
    prime: int
    entries: tuple[GeneratorEntry, ...]  # heights descending
    socle_rank: int
    order_index: int
    horizons: Horizons

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(e.height for e in self.entries)

    @property
    def taps(self) -> tuple[Word, ...]:
        return tuple(e.tap for e in self.entries)


def _least_outside(form: HowellForm, r: int, span: HowellForm) -> Vec | None:
    """The lex-least element of the span of `form` whose first r coordinates
    lie outside `span`: the last row with pivot < r whose head is outside.

    By the Howell property the elements vanishing before row k's pivot are
    the span of rows k onward, and they precede every other element in lex
    order.  So for the last row k whose head is outside, the answer lies in
    that span with row k's pivot entry, the least nonzero one there.  Every
    element of row k's coset of the later rows is then admissible, and a
    canonical row is the least element of its coset.
    """
    cut = (1 << r * _lane_layout(form.modulus, r)[0]) - 1
    k = next((k for k in reversed(range(sum(c < r for c, _ in form.pivots)))
              if not span.contains(form.packed[k] & cut)), None)
    return None if k is None else form.rows[k]


def _levels(cap: int, quotient: bool):
    """(level, s, hot windows) in greedy order: least support s first, or
    with `quotient` least quotient support q first.  A level's candidates lie
    in [0, s-1] with every symbol outside one hot window in pH."""
    if not quotient:
        return ((s, s, [range(s)]) for s in range(1, cap + 1))
    return (((q, s), s, [range(a, a + q) for a in range(s - q + 1)] if q else [range(0)])
            for q in range(cap + 1) for s in range(max(q, 1), cap + 1))


def _candidate_batches(group: FiniteAbelianGroup, cands: HowellForm, p: int,
                       picked: list, levels):
    """One batch per greedy pick: for each submodule of the level, its least
    candidate whose initial symbol is outside the span of `picked` (scaled
    p-torsion symbols, extended by the caller between batches) as it stands
    then, which is the last canonical row of the submodule's Howell form
    whose head lies outside that span (`_least_outside`).

    Earlier levels leave every initial symbol of their candidates in the
    span, so the least of a batch is what a greedy pass over all candidates
    sorted by (level, vector) would pick next.
    """
    r, m, width = group.rank, cands.modulus, cands.ncols
    # x_j in pH <=> p^(e_j - 1) * v_j == 0 for the scaled coordinate v_j
    kill = [p ** (e - 1) for _, e in group.factors]
    spanned = None
    for level, s, hots in levels:
        forms = []
        for hot in hots:
            cold = [(k * r + j, 1, kill[j]) for k in range(s) if k not in hot
                    for j in range(r)]
            kept, _ = projection_heads(cands.packed, m, cold, [(s * r, width - s * r)],
                                       0, s * r)
            forms.append(howell_form(PackedRows(kept.packed, s * r), m))
        while True:
            if spanned != len(picked):
                span, spanned = howell_form(picked, m, r), len(picked)
            least = [v for v in (_least_outside(f, r, span) for f in forms)
                     if v is not None]
            if not least:
                break
            yield level, [v + (0,) * (width - s * r) for v in least]


def _pick_generators(shift: GroupShift, p: int, horizons: Horizons, picked: list,
                     rank: int, quotient: bool) -> list[GeneratorEntry]:
    """Height-0 entries extending the independent initial symbols `picked` to
    the rank, by least support (the base case) or, to complete the recursed
    symbols, least quotient support."""
    chosen: list[GeneratorEntry] = []
    if len(picked) == rank:
        return chosen
    r = shift.alphabet.rank
    cands = supported_words(shift, horizons.support_cap, torsion_scale=p)
    levels = _levels(horizons.support_cap, quotient)
    for _, batch in _candidate_batches(shift.alphabet, cands, p, picked, levels):
        vec = min(batch)
        picked.append(vec[:r])
        w = Word.from_window_vector(shift.alphabet, 0, vec)
        chosen.append(GeneratorEntry(w, 0, w))
        if len(picked) == rank:
            return chosen
    raise PipelineFailure(
        "basis-completion" if quotient else "initial-basis",
        f"initial-value basis incomplete: {len(picked)} of {rank} directions "
        f"with support <= {horizons.support_cap}; raise --support-cap")


def lift_height(shift: GroupShift, x: Word, p: int, h: int, pad: int) -> Word | None:
    """A certified finite word y with p^h * y == x, canonical and with
    support inside supp(x) padded by `pad`; None when no such word exists
    there (exact: `supported_words` takes no margin, and reads the words of
    that width at 0, so lifts at every offset share one form)."""
    if h == 0 or x.is_zero:
        return x
    lo, hi = x.first - pad, x.last + pad
    form = supported_words(shift, hi - lo + 1)
    if not form.packed:
        return None
    m, ncols = form.modulus, form.ncols
    scale, red = pow(p, h, m), _lane_layout(m, ncols)[2]  # products stay below m^2
    solver = row_solver(PackedRows(tuple(red(scale * x) for x in form.packed), ncols), m)
    coeffs = solver.express(x.window_vector(lo, hi))
    if coeffs is None:
        return None
    y = combine_rows(coeffs, form.packed, m, ncols)
    return Word.from_window_vector(shift.alphabet, lo, unpack_rows([y], m, ncols)[0])


def word_height(shift: GroupShift, x: Word, p: int, order_index: int, max_h: int) -> int:
    """Largest h <= max_h with a certified finite y solving p^h y = x, by
    exact lifts with supports padded by h*(order index + 1) per step.  A
    nonzero x has height below e for exp(G) = p^e, as p^e kills every
    certified y, so max_h = e - 1 decides it with no lift past the
    exponent."""
    if x.is_zero:
        raise ValueError("height of the zero word is infinite")
    h = 0
    while h < max_h:
        pad = (h + 1) * (order_index + 1)
        if lift_height(shift, x, p, h + 1, pad) is None:
            break
        h += 1
    return h


def canonical_generators(shift: GroupShift, p: int,
                         horizons: Horizons | None = None) -> CanonicalGeneratorSet:
    """The canonical generating set of an order-controllable p-group shift.

    Follows the exponent induction: the exponent-p base case picks
    minimal-support words; otherwise the set of p*G is computed recursively,
    its taps are divided by p inside G, and the initial-value basis is
    completed by height-0 torsion words of minimal quotient support.
    Refuses when the order-controllability check fails.
    """
    if not shift.alphabet.is_p_group(p):
        raise ValueError("canonical generators need a p-group alphabet; "
                         "decompose mixed alphabets into primary components")
    if horizons is None:
        horizons = Horizons.derive(shift)
    if not shift.generators:
        return CanonicalGeneratorSet(shift, p, (), 0, 0, horizons)
    search = order_controllability_index(shift, horizons.n_cap, confirm=0)
    if search.index is None:
        raise PipelineFailure(
            "order-controllability",
            f"no order-controllability index <= {horizons.n_cap}; "
            f"witness {search.witness.format() if search.witness else 'n/a'}")
    n_o = search.index
    e = shift.exponent_exponent(p)
    if e == 0:
        return CanonicalGeneratorSet(shift, p, (), 0, n_o, horizons)
    if e == 1:
        rank = initial_value_space(shift, p)
        entries = _pick_generators(shift, p, horizons, [], rank, quotient=False)
        return CanonicalGeneratorSet(shift, p, tuple(entries), len(entries),
                                     n_o, horizons)

    ok, detail = scaled_finite_words_check(shift, p, 1, horizons)
    if not ok:
        raise PipelineFailure("scaled-finite-words", detail)
    sub = canonical_generators(multiple_shift(shift, p, 1), p, horizons)

    lifted: list[GeneratorEntry] = []
    for entry in sub.entries:
        z = None
        for attempt in range(2):
            pad = (n_o + 1) * (attempt + 1) + attempt * horizons.margin
            z = lift_height(shift, entry.tap, p, 1, pad)
            if z is not None:
                break
        if z is None:
            raise PipelineFailure(
                "tap-division",
                f"no certified finite y with p*y = {entry.tap.format()}")
        lifted.append(GeneratorEntry(entry.torsion_word, entry.height + 1, z))

    rank = initial_value_space(shift, p)
    picked = [e.torsion_word.window_vector(0, 0) for e in lifted]
    completion = _pick_generators(shift, p, horizons, picked, rank, quotient=True)
    entries = sorted(lifted + completion, key=lambda e: -e.height)
    return CanonicalGeneratorSet(shift, p, tuple(entries), rank, n_o, horizons)


# -- encoders ----------------------------------------------------------------


@dataclass(frozen=True)
class Encoder:
    """Sliding homomorphism from a full product shift onto the target shift.

    A message word over the source alphabet is sent to the sum of its
    coordinates times the correspondingly placed taps.
    """

    alphabet: FiniteAbelianGroup
    source: FiniteAbelianGroup
    taps: tuple[Word, ...]
    heights: tuple[int, ...]
    tap_primes: tuple[int, ...]

    @property
    def memory(self) -> int:
        return max((t.support_length for t in self.taps), default=0)

    def torsion_words(self) -> tuple[Word, ...]:
        return tuple(t.scaled(p ** h) for t, h, p in
                     zip(self.taps, self.heights, self.tap_primes))


def build_encoder(genset: CanonicalGeneratorSet) -> Encoder:
    p = genset.prime
    source = FiniteAbelianGroup(tuple((p, e.height + 1) for e in genset.entries))
    return Encoder(genset.shift.alphabet, source, genset.taps,
                   genset.heights, (p,) * len(genset.entries))


def presentation_encoder(shift: GroupShift) -> Encoder:
    """The encoder whose taps are the presentation's own generator words.

    Used to audit a user-supplied presentation instead of a synthesized
    canonical one; every generator must have prime-power order so its
    source factor Z/p^(h+1) is well defined.
    """
    factors: list[tuple[int, int]] = []
    heights: list[int] = []
    primes: list[int] = []
    for g in shift.generators:
        order = g.order()
        prime_powers = _prime_power_factors(order)
        if len(prime_powers) != 1:
            raise ValueError(
                f"generator {g.format()} has order {order}, not a prime power")
        p, e = prime_powers[0]
        factors.append((p, e))
        heights.append(e - 1)
        primes.append(p)
    return Encoder(shift.alphabet, FiniteAbelianGroup(tuple(factors)),
                   shift.generators, tuple(heights), tuple(primes))


def encode(encoder: Encoder, message: Word,
           window: tuple[int, int] | None = None) -> Word:
    """Apply the encoder to a finitely supported message word.

    With a window, only the restriction of the output to it is returned.

    The image is the convolution sum over j of message column j with tap j,
    computed by Kronecker substitution as one int product per nonzero tap.
    Coordinate k of output position lo + i is lane i*r + k, where r is the
    alphabet rank and lo is the message start plus the least tap start.
    Column j holds its entry at message position start + i in lane i*r, and
    tap j holds its coordinates interleaved from lane (tap.start - least
    start)*r, so each product lands every term c*x in its own lane.  Message
    and taps are reduced, so no lane exceeds (max order - 1) * sum over j of
    (n_j - 1) * len(tap_j), with n_j the source orders; lanes of that width
    (`_lane_bytes`) never carry.  Byte lanes are reduced by one translation
    (`residue_table`) per alphabet coordinate, wider lanes lane by lane.
    """
    if message.group != encoder.source:
        raise ValueError("message is not over the encoder source alphabet")
    alphabet = encoder.alphabet
    used = [(j, n, tap) for j, (n, tap) in
            enumerate(zip(encoder.source.orders, encoder.taps)) if tap.symbols]
    if not used or not message.symbols:
        return Word.zero(alphabet)
    r = alphabet.rank
    base = min(tap.start for _, _, tap in used)
    bound = (max(alphabet.orders) - 1) * sum((n - 1) * len(tap.symbols)
                                             for _, n, tap in used)
    nbytes = _lane_bytes(bound.bit_length())
    stride = r * nbytes
    columns = list(zip(*message.symbols))
    total = 0
    for j, n, tap in used:
        if n <= 256:
            column = bytearray(stride * len(columns[j]))
            column[::stride] = bytes(columns[j])
        else:
            column = b"".join(c.to_bytes(stride, "little") for c in columns[j])
        interleaved = _lanes_to_bytes([x for sym in tap.symbols for x in sym], nbytes)
        total += int.from_bytes(column, "little") * (
            int.from_bytes(interleaved, "little") << 8 * stride * (tap.start - base))
    lo = message.start + base
    raw = total.to_bytes(-(-total.bit_length() // (8 * stride)) * stride, "little")
    if window is not None:
        a = max(window[0] - lo, 0)
        raw = raw[stride * a:stride * max(window[1] + 1 - lo, a)]
        lo += a
    if nbytes == 1:
        # bound <= 255 with a sum >= 1, so every order is at most 256
        coords = [raw[k::r].translate(residue_table(m)) for k, m in enumerate(alphabet.orders)]
    else:
        lanes = _bytes_to_lanes(raw, nbytes)
        coords = [[x % m for x in lanes[k::r]] for k, m in enumerate(alphabet.orders)]
    return Word.trimmed(alphabet, lo, list(zip(*coords)))


@dataclass(frozen=True)
class InjectivityReport:
    block: int | None
    dependent_combination: tuple[tuple[int, int, int], ...] | None
    # (tap index, placement, coefficient) of a vanishing combination


def check_injectivity(encoder: Encoder, block_cap: int) -> InjectivityReport:
    """Search for a block [0, N] on which all nonzero placed torsion-word
    restrictions are linearly independent over F_p."""
    torsion = encoder.torsion_words()
    if not torsion:
        return InjectivityReport(0, None)
    if len(set(encoder.tap_primes)) != 1:
        raise ValueError("independence test needs a single-prime encoder; "
                         "run it per primary component")
    p, r = encoder.tap_primes[0], encoder.alphabet.rank
    # a p-torsion scaled entry is k * (m // p), with k its F_p coordinate
    unit = encoder.alphabet.modulus // p
    fp = [(j, x, [v // unit for v in x.window_vector(x.first, x.last)])
          for j, x in enumerate(torsion) if not x.is_zero]
    witness = None
    for n in range(block_cap + 1):
        ncols = (n + 1) * r
        rows, labels = [], []
        for j, x, vec in fp:
            # placement t = -x.last, ... puts x at column (x.first + t) * r
            placed = placed_rows(vec, p, range((1 - x.support_length) * r, ncols, r), ncols)
            for t, row in enumerate(placed, -x.last):
                if row:
                    rows.append(row)
                    labels.append((j, t))
        solver = row_solver(PackedRows(tuple(rows), ncols), p)
        if solver.form.rank == len(rows):
            return InjectivityReport(n, None)
        witness = tuple((labels[i][0], labels[i][1], c)
                        for i, c in enumerate(solver.kernel.rows[0]) if c)
    return InjectivityReport(None, witness)


def _tap_solver(alphabet: FiniteAbelianGroup, taps: tuple[Word, ...],
                msg_lo: int, msg_hi: int, cover: Word | None = None):
    """Row solver over every nonzero tap placed at msg_lo..msg_hi, on the
    window covering all of them (and the support of `cover`).

    Returns (solver, ((tap index, placement) per row), (lo, hi)).
    """
    labels = tuple((j, t) for j, tap in enumerate(taps) if not tap.is_zero
                   for t in range(msg_lo, msg_hi + 1))
    lo = msg_lo + min((taps[j].first for j, _ in labels), default=0)
    hi = msg_hi + max((taps[j].last for j, _ in labels), default=0)
    if cover is not None:
        lo, hi = min(lo, cover.first), max(hi, cover.last)
    m, ncols = alphabet.modulus, (hi - lo + 1) * alphabet.rank
    rows = [row for tap in taps if not tap.is_zero
            for row in tap.placed_rows(range(msg_lo, msg_hi + 1), lo, ncols)]
    return row_solver(PackedRows(tuple(rows), ncols), m), labels, (lo, hi)


def solve_finite_preimage(encoder: Encoder, w: Word,
                          slack: int) -> Word | None:
    """A finite message encoding exactly to w, searched with message support
    inside supp(w) padded by `slack`; None when no such message exists.

    No pipeline stage calls it: it is the one-word-at-a-time reference that
    the tests hold `check_noncatastrophic`'s backward direction to."""
    if w.is_zero:
        return Word.zero(encoder.source)
    if not encoder.taps:
        return None
    msg_lo, msg_hi = w.first - slack, w.last + slack
    solver, labels, (lo, hi) = _tap_solver(encoder.alphabet, encoder.taps,
                                           msg_lo, msg_hi, w)
    coeffs = solver.express(w.window_vector(lo, hi))
    if coeffs is None:
        return None
    symbols = [[0] * encoder.source.rank for _ in range(msg_lo, msg_hi + 1)]
    for (j, t), c in zip(labels, coeffs):
        symbols[t - msg_lo][j] = c
    msg = Word.make(encoder.source, msg_lo, symbols)
    if encode(encoder, msg) != w:
        return None
    return msg


@dataclass(frozen=True)
class NoncatastrophicityReport:
    ok: bool
    horizon: int
    witness: Word | None  # tap outside G, or certified word with no preimage


def check_noncatastrophic(encoder: Encoder, shift: GroupShift,
                          horizon: int) -> NoncatastrophicityReport:
    """Both window-scale directions, each decided exactly; the witness is the
    first failing tap, else the first failing certified word.  Both read
    one certified form on [0, W-1], W the larger of H+1 and the longest tap.

    Forward: finite messages land in G.  With the order bounds, the images
    of finite messages are the finite sums of placed taps, and G is a
    shift-invariant group, so they all lie in G exactly when every tap
    does: a lookup in the form's `zero_prefix` of the tap's length.

    Backward: every certified word w supported in [f, l] with l - f <= the
    horizon H has a finite preimage.  Translated by 1 - f, w lies in the
    certified words on [1, t+1], t = l - f, and one elimination decides
    every such w on the boundary window [2-s, H+s] of the block [1, H+1] of
    the shift T generated by the taps, s = span(T) (`shifts._boundary_rows`):
    the taps placed to meet the block, T's whole-placement zero state on the
    past near end [2-s, 0] and the mirrored one on the tail near end
    [H+2, H+s], each at its fixed point (`shifts._near_end`).  A placement
    off the block meets the window only on a near end, and the states hold
    what every finite message wholly on that side can leave there, so the
    block projection of the elements vanishing on both near ends is the set
    I_H of finite images supported in the block, whatever the message
    support; its elements supported in [1, t+1] are I_t.  Every row of the
    certified words on [0, t], the form's `zero_prefix`, must lie in it.
    """
    width = max([horizon + 1, *(tap.support_length for tap in encoder.taps)])
    words, r = supported_words(shift, width), shift.alphabet.rank
    for tap in encoder.taps:
        if not (tap.is_zero or words.zero_prefix((width - tap.support_length) * r)
                .contains(tap.window_vector(tap.first, tap.last))):
            return NoncatastrophicityReport(False, horizon, tap)
    taps = GroupShift.make(encoder.alphabet, encoder.taps)
    rows, ncols, a, b = _boundary_rows(taps, horizon + 1, math.inf, math.inf,
                                       ("whole", "whole"))
    kept, _ = projection_heads(rows, encoder.alphabet.modulus, (),
                               [(0, a), (b, ncols - b)], a, b)
    for t in range(horizon + 1):
        form = words.zero_prefix((width - 1 - t) * r)
        bad = next((i for i, x in enumerate(form.packed) if not kept.contains(x)), None)
        if bad is not None:
            return NoncatastrophicityReport(
                False, horizon, Word.from_window_vector(shift.alphabet, 0, form.rows[bad]))
    return NoncatastrophicityReport(True, horizon, None)


# -- torsion decomposition of finite words (u = v + w) ------------------------


@dataclass(frozen=True)
class BaseDecomposition:
    torsion_part: Word                      # v with p*v == 0
    tap_part: Word                          # w, a combination of shifted taps
    coefficients: tuple[tuple[int, int, int], ...]  # (tap index, placement, coeff)


def base_decompose(shift: GroupShift, u: Word, pg_set: CanonicalGeneratorSet,
                   slack: int | None = None) -> BaseDecomposition:
    """Split a certified finite word as u = v + w with p*v = 0 and w a
    finite combination of the p-divided taps of the p*G generating set.

    p*u is expressed over the shifted taps of p*G (they generate its finite
    words); dividing each tap by p inside G gives w, and v := u - w is then
    p-torsion automatically.
    """
    p = pg_set.prime
    horizons = pg_set.horizons
    if slack is None:
        slack = horizons.margin + pg_set.order_index + 1
    if u.is_zero:
        return BaseDecomposition(u, u, ())
    pu = u.scaled(p)
    taps = pg_set.taps
    lifts = []
    for tap in taps:
        z = lift_height(shift, tap, p, 1, (pg_set.order_index + 1) * 2 + horizons.margin)
        if z is None:
            raise PipelineFailure("tap-division",
                                  f"no p-division of {tap.format()} in the ambient shift")
        lifts.append(z)
    if pu.is_zero:
        return BaseDecomposition(u, Word.zero(shift.alphabet), ())
    if all(t.is_zero for t in taps):
        raise PipelineFailure("torsion-split",
                              "p*u nonzero but the p*G generating set is empty")
    solver, labels, (lo, hi) = _tap_solver(shift.alphabet, taps, u.first - slack,
                                           u.last + slack, pu)
    coeffs = solver.express(pu.window_vector(lo, hi))
    if coeffs is None:
        raise PipelineFailure(
            "torsion-split",
            f"p*u not expressible over the p*G taps with slack {slack}")
    used = tuple((i, t, c) for (i, t), c in zip(labels, coeffs) if c)
    w = Word.combine(shift.alphabet, [(c, lifts[i], t) for i, t, c in used])
    return BaseDecomposition(u - w, w, used)


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def independent_block_check(inj: InjectivityReport, block_cap: int) -> CheckResult:
    """The independent-block check of a `check_injectivity` report searched
    up to `block_cap`."""
    return CheckResult("independent-block", inj.block is not None,
                       f"N={inj.block}" if inj.block is not None else
                       f"no block <= {block_cap}")


@dataclass(frozen=True)
class PrimaryCertificate:
    prime: int
    shift: GroupShift
    genset: CanonicalGeneratorSet | None
    encoder: Encoder | None
    checks: tuple[CheckResult, ...]
    failing_stage: str | None

    @property
    def complete(self) -> bool:
        return self.failing_stage is None and all(c.passed for c in self.checks)


@dataclass(frozen=True)
class ConjugacyCertificate:
    shift: GroupShift
    horizons: Horizons
    primaries: tuple[PrimaryCertificate, ...]
    product_encoder: Encoder | None
    global_checks: tuple[CheckResult, ...]

    @property
    def complete(self) -> bool:
        return all(p.complete for p in self.primaries) and \
            all(c.passed for c in self.global_checks)


def _message_invariant_checks(encoder: Encoder) -> list[CheckResult]:
    """The encoder invariants, decided exactly.

    Coordinate j of a message lies in [0, p^(h_j+1)), so encode(m1 + m2) -
    encode(m1) - encode(m2) is a sum of carries times p^(h_j+1) * tap_j: the
    encoder is a homomorphism exactly when the order bound holds.
    Shift-equivariance holds by construction: `encode` multiplies message
    position start + t into lane t*r, so shifting the message shifts the
    image by as many positions.
    """
    bounded = all(tap.scaled(p ** (h + 1)).is_zero for tap, h, p in
                  zip(encoder.taps, encoder.heights, encoder.tap_primes))
    return [CheckResult("homomorphism", bounded),
            CheckResult("shift-equivariance", True),
            CheckResult("order-bounds", bounded)]


def _structure_checks(genset: CanonicalGeneratorSet,
                      horizons: Horizons) -> list[CheckResult]:
    """The generating-set lines.  Only heights-maximal is decided here; the
    other four hold by construction in `canonical_generators` and are
    reported as passes:

    - exact-powers: a height-0 entry is its own tap, and each division step
      is a `lift_height`, which solves p * y = x exactly;
    - heights-sorted: the entries are sorted by height, descending;
    - initial-basis-independent: each level's picks lie outside the span of
      its earlier picks (p-torsion symbols, so an F_p span), and lifting a
      level's taps keeps its torsion words;
    - torsion-one-sided: every candidate is a certified p-torsion word on
      [0, support_cap - 1] picked for a nonzero initial symbol.
    """
    shift, p = genset.shift, genset.prime
    emax = shift.exponent_exponent(p)
    # p^emax kills every certified word, so no height reaches emax
    maximal = all(word_height(shift, e.torsion_word, p, genset.order_index,
                              emax - 1) == e.height
                  for e in genset.entries)
    return [CheckResult("exact-powers", True), CheckResult("heights-sorted", True),
            CheckResult("initial-basis-independent", True),
            CheckResult("torsion-one-sided", True),
            CheckResult("heights-maximal", maximal)]


def _image_window_checks(encoder: Encoder, shift: GroupShift,
                         horizons: Horizons) -> list[CheckResult]:
    # each window module on [0, t] is the projection of the one on [0, H], so
    # equal modules on [0, H] give equal modules on every [0, t]
    h = horizons.window_horizon
    surj = GroupShift.make(shift.alphabet, encoder.taps).window(0, h).form.spans_same(
        shift.window(0, h).form)
    # kernel triviality: messages on a window encoding to zero on a full
    # cover must be trivial coordinatewise
    solver, labels, _ = _tap_solver(encoder.alphabet, encoder.taps, 0, h)
    orders = [encoder.source.orders[j] for j, _ in labels]
    inj = not any(c % orders[i] for row in solver.kernel.rows
                  for i, c in enumerate(row))
    return [CheckResult("window-surjectivity", surj, f"windows [0,0]..[0,{h}]"),
            CheckResult("window-injectivity", inj)]


def primary_certificate(shift: GroupShift, p: int,
                        horizons: Horizons) -> PrimaryCertificate:
    """Run the whole per-prime pipeline and collect every check outcome."""
    try:
        genset = canonical_generators(shift, p, horizons)
    except PipelineFailure as exc:
        return PrimaryCertificate(p, shift, None, None,
                                  (CheckResult(exc.stage, False, exc.detail),),
                                  exc.stage)
    encoder = build_encoder(genset)
    failing = torsion_presentation(shift, p, horizons)[2]
    checks = [CheckResult("socle-weakly-controllable", failing is None,
                          "" if failing is None else _socle_failure(failing, horizons))]
    checks.extend(_structure_checks(genset, horizons))
    checks.extend(_message_invariant_checks(encoder))
    inj = check_injectivity(encoder, horizons.block_cap)
    checks.append(independent_block_check(inj, horizons.block_cap))
    noncat = check_noncatastrophic(encoder, shift, horizons.window_horizon)
    checks.append(CheckResult(
        "noncatastrophic", noncat.ok,
        "" if noncat.ok else f"witness {noncat.witness.format()}"))
    checks.extend(_image_window_checks(encoder, shift, horizons))
    # canonical_generators passed scaled_finite_words_check at r = 1 on
    # each recursion level p^k G, k = 0..e-2; chaining the levels gives
    # p^r W_t(G) = W_t(p^r G) for every r < e
    checks.extend(CheckResult(f"scaled-finite-words-r{r}", True)
                  for r in range(1, shift.exponent_exponent(p)))
    failing = next((c.name for c in checks if not c.passed), None)
    return PrimaryCertificate(p, shift, genset, encoder, tuple(checks), failing)


def conjugacy_certificate(shift: GroupShift,
                          horizons: Horizons | None = None,
                          trials: int | None = None,
                          seed: int = 0) -> ConjugacyCertificate:
    """Primary decomposition plus per-prime pipelines, assembled into one
    product encoder; every stage outcome and horizon is recorded.  `trials`
    and `seed` are ignored, as no check draws random messages; they stay
    because `perfbench/ops.py:run_certify` still passes them."""
    if horizons is None:
        horizons = Horizons.derive(shift)
    primaries = []
    encoders: list[tuple[int, Encoder]] = []
    for p in shift.alphabet.primes():
        part_shift = primary_shift(shift, p)
        cert = primary_certificate(part_shift, p, horizons)
        primaries.append(cert)
        if cert.encoder is not None:
            encoders.append((p, cert.encoder))
    product = None
    global_checks: list[CheckResult] = []
    if all(c.complete for c in primaries):
        factors: list[tuple[int, int]] = []
        taps: list[Word] = []
        heights: list[int] = []
        tap_primes: list[int] = []
        for p, enc in encoders:
            part = primary_component(shift.alphabet, p)
            factors.extend(enc.source.factors)
            taps.extend(Word.make(shift.alphabet, tap.start,
                                  [part.embed_coords(s) for s in tap.symbols])
                        for tap in enc.taps)
            heights.extend(enc.heights)
            tap_primes.extend(enc.tap_primes)
        product = Encoder(shift.alphabet, FiniteAbelianGroup(tuple(factors)),
                          tuple(taps), tuple(heights), tuple(tap_primes))
        # a window module is the direct sum of its primary components, which
        # are the primary shifts' windows, so the product taps' windows equal
        # the shift's once every primary passed window-surjectivity
        global_checks.append(CheckResult("product-window-surjectivity", True))
    return ConjugacyCertificate(shift, horizons, tuple(primaries), product,
                                tuple(global_checks))
