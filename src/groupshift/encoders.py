"""Canonical generating sets and homomorphic encoders for group shifts.

For an order-controllable shift over a p-group alphabet the pipeline selects
finite-support p-torsion words x_j starting at position 0 whose initial
symbols form a basis of the initial-value space of one-sided torsion
members, each with the maximal height h_j realized as x_j = p^{h_j} * y_j
with y_j a certified finite word.  The taps y_j induce the sliding
homomorphism onto the shift.  Its independent block and noncatastrophicity
are certified at recorded horizons; its order bounds, window injectivity
and window surjectivity hold by construction (`_by_construction_checks`).  A
mixed alphabet is handled one primary component at a time.

The pipeline refuses a component without an order-controllability index
n = n_o, which is a cut: if d*g == 0 on [k+1, k+n], g in G, d | exp(H), some
g' in G equals g on (-inf, k], is 0 from k+n+1 on and has d*g' == 0 on
[k+1, k+n] (the order steering condition at scale d, decided at the whole
past).  Tap division, the socle line, heights-maximal and the exact
initial-value rank follow from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

from .control import order_controllability_index, socle_controllability
from .groups import FiniteAbelianGroup, _prime_power_factors, primary_component
from .residues import (HowellForm, PackedRows, Vec, _bytes_to_lanes, _lane_bytes,
                       _lane_layout, _lanes_to_bytes, combine_rows, howell_form,
                       placed_rows, projection_heads, residue_table, row_solver, unpack_rows)
from .shifts import GroupShift, Horizons, _boundary_rows, primary_shift, supported_words
from .words import Word


class PipelineFailure(Exception):
    """A pipeline stage could not establish its contract at the horizon."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


# -- derived shifts ----------------------------------------------------------


@lru_cache(maxsize=64)
def multiple_shift(shift: GroupShift, p: int, r: int) -> GroupShift:
    """Presentation of p^r G: generators scaled by p^r (zero words dropped);
    one object per argument, so `canonical_generators` recurses into the
    shift whose near-end states `scaled_finite_words_check` built."""
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


def socle_shift(shift: GroupShift, p: int,
                horizons: Horizons | None = None) -> GroupShift:
    """Presentation of the p-torsion subshift G[p] by the distinct translates
    to 0 of its certified finite torsion words on [0, support_cap - 1]; fails
    loudly when the finite torsion words, of any support, do not generate
    the p-torsion projections of G's windows up to the horizon, i.e. when
    G[p] is not weakly controllable at this scale, with `analyze`'s verdict
    and detail (`control.socle_controllability`).
    """
    if shift.alphabet.exponent % p != 0:
        raise ValueError(f"{p} does not divide exp(H)")
    if horizons is None:
        horizons = Horizons.derive(shift)
    socle = socle_controllability(shift, p, horizons)
    if not socle.holds:
        raise PipelineFailure("socle-presentation", socle.detail)
    words = (Word.from_window_vector(shift.alphabet, 0, row) for row in
             supported_words(shift, horizons.support_cap, torsion_scale=p).rows)
    return GroupShift.make(shift.alphabet,
                           list(dict.fromkeys(w.shifted(w.first) for w in words)))


# -- generator selection -----------------------------------------------------


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
    order_index: int
    horizons: Horizons

    @property
    def socle_rank(self) -> int:
        """The initial-value rank (`_by_construction_checks`)."""
        return len(self.entries)

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
    heads = form.prefix(r).packed
    k = next((k for k in reversed(range(len(heads))) if not span.contains(heads[k])), None)
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
            forms.append(projection_heads(cands.packed, m, cold, [(s * r, width - s * r)],
                                          0, s * r)[0])
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
    that width at 0, so lifts at every offset share one form); at a pad >= n_o
    it finds one whenever any y in G exists (`canonical_generators`)."""
    if h == 0 or x.is_zero:
        return x
    lo, hi = x.first - pad, x.last + pad
    form = supported_words(shift, hi - lo + 1)
    m, ncols = form.modulus, form.ncols
    scale, red = pow(p, h, m), _lane_layout(m, ncols)[2]  # products stay below m^2
    solver = row_solver(PackedRows(tuple(red(scale * x) for x in form.packed), ncols), m)
    coeffs = solver.express(x.window_vector(lo, hi))
    if coeffs is None:
        return None
    y = combine_rows(coeffs, form.packed, m, ncols)
    return Word.from_window_vector(shift.alphabet, lo, unpack_rows([y], m, ncols)[0])


def canonical_generators(shift: GroupShift, p: int,
                         horizons: Horizons | None = None) -> CanonicalGeneratorSet:
    """The canonical generating set of an order-controllable p-group shift.

    Follows the exponent induction: the exponent-p base case picks
    minimal-support words; otherwise the set of p*G is computed recursively,
    its taps are divided by p inside G, and the initial-value basis is
    completed by height-0 torsion words of minimal quotient support.
    Refuses when the order-controllability check fails.

    Tap division is one lift at pad n_o + 1, which always exists, by the
    cut (module docstring): if x = p^h * y, y in G (finite or not), supp x
    in [a, b], cutting y at k = b gives y1 with p^h*y1 == x, 0 from
    b+n_o+1 on; cutting y1 at k = a-n_o-1 gives y2, 0 from a on, with
    p^h*y2 == 0; so p^h*(y1 - y2) == x with y1 - y2 finite in
    [a-n_o, b+n_o].  Every tap of p*G is p*y for some y in G.

    The initial-value rank is exact at W = max(support_cap, n_o + 1): the
    certified p-torsion words on [0, W-1] are one-sided p-torsion members,
    and the cut at k = 0 and d = p takes each such member to one on
    [0, n_o] with its initial symbol; their Howell form counts the F_p rank
    of those symbols, as its rows are p-torsion.  So the picks fall short
    only when support_cap <= n_o.
    """
    if not shift.alphabet.is_p_group(p):
        raise ValueError("canonical generators need a p-group alphabet; "
                         "decompose mixed alphabets into primary components")
    if horizons is None:
        horizons = Horizons.derive(shift)
    search = order_controllability_index(shift, horizons.n_cap)
    if search.index is None:
        raise PipelineFailure(
            "order-controllability",
            f"no order-controllability index <= {horizons.n_cap}; "
            f"witness {search.witness.format() if search.witness else 'n/a'}")
    n_o = search.index
    e, lifted = shift.exponent_exponent(p), []
    if e > 1:
        ok, detail = scaled_finite_words_check(shift, p, 1, horizons)
        if not ok:
            raise PipelineFailure("scaled-finite-words", detail)
        sub = canonical_generators(multiple_shift(shift, p, 1), p, horizons)
        lifted = [GeneratorEntry(x.torsion_word, x.height + 1,
                                 lift_height(shift, x.tap, p, 1, n_o + 1))
                  for x in sub.entries]

    rank = supported_words(shift, max(horizons.support_cap, n_o + 1),
                           torsion_scale=p).prefix(shift.alphabet.rank).rank
    picked = [x.torsion_word.window_vector(0, 0) for x in lifted]
    completion = _pick_generators(shift, p, horizons, picked, rank, quotient=e > 1)
    return CanonicalGeneratorSet(shift, p, tuple(lifted + completion), n_o, horizons)


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

    @cached_property
    def _plan(self) -> tuple | None:
        """The per-encoder half of `encode`'s Kronecker substitution: (least
        tap start b, lane bytes, (j, n_j, packed tap j) per nonzero tap j,
        one `residue_table` per alphabet coordinate on byte lanes or None);
        None when every tap is zero.  Lane i*r + k holds coordinate k of
        output position message start + b + i (r the alphabet rank): tap j
        is interleaved from lane (tap.start - b)*r and message column j puts
        its entry at position start + i in lane i*r, so one product per tap
        lands every term c*x in its own lane.  Message and taps are reduced,
        so no lane exceeds (max order - 1) * sum_j (n_j - 1) * len(tap_j),
        n_j the source orders, and lanes of that width (`_lane_bytes`) never
        carry; on byte lanes that bound is at most 255, so every order is at
        most 256.  Per message, `encode` packs the used columns, multiplies,
        and reduces byte lanes by one translation per coordinate, wider
        lanes lane by lane."""
        used = [(j, n, tap) for j, (n, tap) in
                enumerate(zip(self.source.orders, self.taps)) if tap.symbols]
        if not used:
            return None
        orders = self.alphabet.orders
        base = min(tap.start for _, _, tap in used)
        bound = (max(orders) - 1) * sum((n - 1) * len(tap.symbols) for _, n, tap in used)
        nbytes = _lane_bytes(bound.bit_length())
        bits = 8 * self.alphabet.rank * nbytes  # per output position
        packed = tuple(
            (j, n, int.from_bytes(_lanes_to_bytes([x for sym in tap.symbols for x in sym], nbytes),
                                  "little") << bits * (tap.start - base))
            for j, n, tap in used)
        tables = [residue_table(m) for m in orders] if nbytes == 1 else None
        return base, nbytes, packed, tables


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
    """Apply the encoder to a finitely supported message word, restricted
    to the window when one is given (`Encoder._plan`)."""
    if message.group != encoder.source:
        raise ValueError("message is not over the encoder source alphabet")
    alphabet, plan, symbols = encoder.alphabet, encoder._plan, message.symbols
    if plan is None or not symbols:
        return Word.zero(alphabet)
    base, nbytes, packed, tables = plan
    r, total = alphabet.rank, 0
    stride = r * nbytes
    for j, n, tap in packed:
        if n <= 256:
            column = bytearray(stride * len(symbols))
            column[::stride] = bytes(map(itemgetter(j), symbols))
        else:
            column = b"".join(sym[j].to_bytes(stride, "little") for sym in symbols)
        total += int.from_bytes(column, "little") * tap
    lo = message.start + base
    raw = total.to_bytes(-(-total.bit_length() // (8 * stride)) * stride, "little")
    if window is not None:
        a = max(window[0] - lo, 0)
        raw = raw[stride * a:stride * max(window[1] + 1 - lo, a)]
        lo += a
    if tables is not None:
        coords = [raw[k::r].translate(table) for k, table in enumerate(tables)]
    else:
        lanes = _bytes_to_lanes(raw, nbytes)
        coords = [[x % m for x in lanes[k::r]] for k, m in enumerate(alphabet.orders)]
    return Word.trimmed(alphabet, lo, tuple(zip(*coords)))


@dataclass(frozen=True)
class InjectivityReport:
    block: int | None
    dependent_combination: tuple[tuple[int, int, int], ...] | None
    # (tap index, placement, coefficient) of a vanishing combination


def check_injectivity(encoder: Encoder, block_cap: int) -> InjectivityReport:
    """Search for a block [0, N] on which the nonzero placed torsion-word
    restrictions are linearly independent, over F_p for the words of each
    tap prime p.  The encoder is the direct sum of its one-prime parts, the
    p-torsion words lying in the p-primary part of the alphabet, so N passes
    when every prime passes; the witness is the first failing prime's
    kernel row at the last block, with the whole encoder's tap indices."""
    r, m = encoder.alphabet.rank, encoder.alphabet.modulus
    parts: dict[int, list] = {}
    for j, (x, p) in enumerate(zip(encoder.torsion_words(), encoder.tap_primes)):
        if not x.is_zero:
            # a p-torsion scaled entry is k * (m // p), with k its F_p coordinate
            vec = [v // (m // p) for v in x.window_vector(x.first, x.last)]
            parts.setdefault(p, []).append((j, x, vec))
    witness = None
    for n in range(block_cap + 1):
        ncols = (n + 1) * r
        for p, fp in sorted(parts.items()):
            rows, labels = [], []
            for j, x, vec in fp:
                # placement t = -x.last, ... puts x at column (x.first + t) * r
                placed = placed_rows(vec, p, range((1 - x.support_length) * r, ncols, r), ncols)
                for t, row in enumerate(placed, -x.last):
                    if row:
                        rows.append(row)
                        labels.append((j, t))
            solver = row_solver(PackedRows(tuple(rows), ncols), p)
            if solver.form.rank < len(rows):
                witness = tuple((labels[i][0], labels[i][1], c)
                                for i, c in enumerate(solver.kernel.rows[0]) if c)
                break
        else:
            return InjectivityReport(n, None)
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
    the taps placed to meet the block, T's whole-placement states on the
    past near end [2-s, 0] and on the tail near end [H+2, H+s], each at
    its fixed point (`shifts._near_end`).  A placement off the block meets
    the window only on a near end, and the states hold
    what every finite message wholly on that side can leave there, so the
    block projection of the elements vanishing on both near ends is the set
    I_H of finite images supported in the block, whatever the message
    support: `kept`.

    I_H is translation-invariant: an image supported in [1+a, 1+b] moves to
    [1, 1+b-a] as the image of the moved message.  The certified words on
    [0, t], W_t, are the form's `zero_prefix`, and the words of W_H
    supported in [H-t, H] are W_t moved by H-t; so W_H in I_H gives W_t in
    I_t for every t <= H, and one containment pass over the rows of W_H
    decides every t.  A row with pivot at or past column k = (H-t) * r
    belongs, moved down by k, to W_t's form, and it lies in I_H exactly when
    the moved row does.  So the least failing t has k the last failing
    row's pivot column rounded down to a multiple of r, and the witness,
    the first failing row of W_t's form, is the first failing row with
    pivot at or past k, cut at column k.
    """
    width = max([horizon + 1, *(tap.support_length for tap in encoder.taps)])
    words, r = supported_words(shift, width), shift.alphabet.rank
    for tap in encoder.taps:
        if not (tap.is_zero or words.zero_prefix((width - tap.support_length) * r)
                .contains(tap.window_vector(tap.first, tap.last))):
            return NoncatastrophicityReport(False, horizon, tap)
    taps = GroupShift.make(encoder.alphabet, encoder.taps)
    rows, ncols, a, b = _boundary_rows(taps, horizon + 1, "whole")
    kept, _ = projection_heads(rows, encoder.alphabet.modulus, (),
                               [(0, a), (b, ncols - b)], a, b)
    form = words.zero_prefix((width - 1 - horizon) * r)
    bad = [i for i, x in enumerate(form.packed) if not kept.contains(x)]
    if not bad:
        return NoncatastrophicityReport(True, horizon, None)
    k = form.pivots[bad[-1]][0] // r * r
    i = next(i for i in bad if form.pivots[i][0] >= k)
    return NoncatastrophicityReport(
        False, horizon, Word.from_window_vector(shift.alphabet, 0, form.rows[i][k:]))


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


def _by_construction_checks() -> list[CheckResult]:
    """The structure and message lines, which hold by construction once
    `canonical_generators` passes, as passes; `primary_certificate` adds
    the window lines, which hold by construction as well:

    - socle-weakly-controllable: for g in G[p], the cuts of the module
      docstring at d = p, at k = t and k = -n_o-1, give g1 == g on
      (-inf, t] and g2 == 0 from 0 on, so g1 - g2 is a finite p-torsion
      word equal to g on [0, t];
    - exact-powers: a height-0 entry is its own tap, and each division step
      is a `lift_height`, which solves p * y = x exactly;
    - heights-sorted: the lifted entries keep p*G's descending order one
      height up, and every completion pick has height 0;
    - initial-basis-independent: each level's picks lie outside the span of
      its earlier picks (p-torsion symbols, so an F_p span), and lifting a
      level's taps keeps its torsion words;
    - torsion-one-sided: every candidate is a certified p-torsion word on
      [0, support_cap - 1] picked for a nonzero initial symbol;
    - the socle rank is the number of entries: the lifted entries' initial
      symbols are independent and lie in G's initial-value space, and each
      level's picks stop at its rank or raise; a shift of exponent 1 has
      no nonzero word, so rank 0 and no picks;
    - heights-maximal, by induction over the p*G recursion: a lifted entry
      x = p^(h+2) * y' would be p^(h+1) * (p*y') in p*G, against its height
      h there; a completion pick x = p*y' would be a one-sided p-torsion
      member of p*G, with its initial symbol in the span of p*G's picks,
      which `_pick_generators` picks outside of;
    - order-bounds and homomorphism: each tap satisfies p^h * y = x with x
      p-torsion, so p^(h+1) * y == 0; coordinate j of a message lies in
      [0, p^(h_j+1)), so encode(m1 + m2) - encode(m1) - encode(m2), a sum
      of carries times p^(h_j+1) * tap_j, is 0;
    - shift-equivariance: `encode` multiplies message position start + t
      into lane t*r, so shifting the message shifts the image by as many
      positions;
    - window-injectivity: suppose a nonzero message has image 0, and let M
      be the maximum of h_j - v_p(c) over its nonzero coefficients c.
      Multiplying the image by p^M, the terms below M vanish by the order
      bounds, and what is left is a sum of u * x_j placed at t with u != 0
      mod p.  At the least placement t in it only the initial symbols
      x_j(0) meet position t, and they are F_p-independent
      (initial-basis-independent): a contradiction;
    - window-surjectivity: the taps are certified words, so the shift T
      they generate lies in G.  Conversely, by induction over the p*G
      recursion, each left-bounded w in G is a sum, convergent position by
      position, of taps placed at positions bounded below: p*w is such a
      sum over p*G's taps p*y_k, so w - sum c * y_k placed at t is a
      left-bounded p-torsion member.  Its first symbol lies in the
      initial-value space, which the torsion words' initial symbols span,
      as their number is its exact rank (`canonical_generators`); subtract
      and repeat.  Each g in G equals on [0, t] such a w,
      g minus its cut at k = -n_o-1 and d = exp(H), and only finitely many
      placements meet [0, t], so G's window [0, t] is T's.
    """
    return [CheckResult(name, True) for name in (
        "socle-weakly-controllable", "exact-powers", "heights-sorted",
        "initial-basis-independent", "torsion-one-sided", "heights-maximal",
        "homomorphism", "shift-equivariance", "order-bounds")]


def primary_certificate(shift: GroupShift, p: int,
                        horizons: Horizons) -> PrimaryCertificate:
    """Run the whole per-prime pipeline and collect every check outcome;
    only the independent block and noncatastrophicity are decided here, the
    other lines pass by construction (`_by_construction_checks`)."""
    try:
        genset = canonical_generators(shift, p, horizons)
    except PipelineFailure as exc:
        return PrimaryCertificate(p, shift, None, None,
                                  (CheckResult(exc.stage, False, exc.detail),),
                                  exc.stage)
    encoder = build_encoder(genset)
    h = horizons.window_horizon
    checks = _by_construction_checks()
    inj = check_injectivity(encoder, horizons.block_cap)
    checks.append(independent_block_check(inj, horizons.block_cap))
    noncat = check_noncatastrophic(encoder, shift, h)
    checks.append(CheckResult(
        "noncatastrophic", noncat.ok,
        "" if noncat.ok else f"witness {noncat.witness.format()}"))
    checks += [CheckResult("window-surjectivity", True, f"windows [0,0]..[0,{h}]"),
               CheckResult("window-injectivity", True)]
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
    primaries = tuple(primary_certificate(primary_shift(shift, p), p, horizons)
                      for p in shift.alphabet.primes())
    if not all(c.complete for c in primaries):
        return ConjugacyCertificate(shift, horizons, primaries, None, ())
    parts = [(primary_component(shift.alphabet, c.prime), c.encoder) for c in primaries]
    product = Encoder(
        shift.alphabet, FiniteAbelianGroup(tuple(f for _, e in parts for f in e.source.factors)),
        tuple(Word.make(shift.alphabet, tap.start, [part.embed_coords(s) for s in tap.symbols])
              for part, e in parts for tap in e.taps),
        tuple(h for _, e in parts for h in e.heights),
        tuple(q for _, e in parts for q in e.tap_primes))
    # a window module is the direct sum of its primary components, which are
    # the primary shifts' windows, so the product taps' windows equal the
    # shift's once every primary passed window-surjectivity
    return ConjugacyCertificate(shift, horizons, primaries, product,
                                (CheckResult("product-window-surjectivity", True),))
