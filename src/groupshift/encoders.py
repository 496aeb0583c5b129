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

import random
from dataclasses import dataclass

from .control import order_controllability_index
from .groups import FiniteAbelianGroup, _prime_power_factors, primary_component
from .residues import FpSpan, howell_form, row_solver
from .shifts import (GroupShift, SupportedWords, member, supported_words,
                     torsion_window_projection)
from .words import Word


class PipelineFailure(Exception):
    """A pipeline stage could not establish its contract at the horizon."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


@dataclass(frozen=True)
class Horizons:
    """All window sizes and caps used by the pipeline, kept for reports."""

    margin: int          # membership certification margin
    support_cap: int     # max support length searched for generator words
    block_cap: int       # injectivity block search bound
    window_horizon: int  # windows [0, T] checked up to this T
    n_cap: int           # controllability index search cap
    enum_cap: int = 1 << 20

    @classmethod
    def derive(cls, shift: GroupShift, **overrides) -> "Horizons":
        span = max(shift.span, 1)
        values = dict(
            margin=max(span, shift.memory_hint or 0, 2),
            support_cap=2 * span + 2,
            block_cap=max(16, 2 * span + 2),
            window_horizon=max(4, span + 2),
            n_cap=16,
            enum_cap=1 << 20,
        )
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


# -- derived shifts ----------------------------------------------------------


def multiple_shift(shift: GroupShift, p: int, r: int) -> GroupShift:
    """Presentation of p^r G: generators scaled by p^r (zero words dropped)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return shift
    if p ** r >= max(shift.alphabet.exponent, 2):
        raise ValueError(f"p^r = {p ** r} must stay below exp(H)")
    scale = p ** r
    return GroupShift.make(shift.alphabet, [g.scaled(scale) for g in shift.generators])


def scaled_finite_words_check(shift: GroupShift, p: int, r: int,
                              horizons: Horizons) -> tuple[bool, str]:
    """Window-scale equality of p^r * (certified words of G) and the
    certified words of the p^r G presentation."""
    scaled = multiple_shift(shift, p, r)
    factor = p ** r
    for t in range(horizons.window_horizon + 1):
        base = supported_words(shift, 0, t, horizons.margin)
        target = supported_words(scaled, 0, t, horizons.margin)
        m = target.form.modulus
        rows = [tuple((factor * x) % m for x in row) for row in base.form.rows]
        if not howell_form(rows, m, target.form.ncols).spans_same(target.form):
            return False, f"finite-word modules differ on [0,{t}] for r={r}"
    return True, ""


def quotient_shift(shift: GroupShift, p: int) -> tuple[GroupShift, "QuotientMap"]:
    """The shift G mod p over H/pH, with the symbolwise reduction map."""
    if shift.alphabet.exponent % p != 0:
        raise ValueError(f"{p} does not divide exp(H)")
    qmap = QuotientMap(shift.alphabet, p)
    gens = [qmap(g) for g in shift.generators]
    return GroupShift.make(qmap.quotient, gens), qmap


@dataclass(frozen=True)
class QuotientMap:
    """Symbolwise reduction H -> H/pH; non-p factors vanish entirely."""

    source: FiniteAbelianGroup
    prime: int

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, (q, _) in enumerate(self.source.factors)
                     if q == self.prime)

    @property
    def quotient(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup(tuple((self.prime, 1) for _ in self.indices))

    def __call__(self, w: Word) -> Word:
        if w.is_zero:
            return Word.zero(self.quotient)
        syms = [tuple(s[i] % self.prime for i in self.indices) for s in w.symbols]
        return Word.make(self.quotient, w.start, syms)


def socle_shift(shift: GroupShift, p: int,
                horizons: Horizons | None = None) -> GroupShift:
    """Presentation of the p-torsion subshift G[p] by finite torsion words.

    Generators come from a kernel search over certified supported-word
    modules; the presentation is verified against the p-torsion projections
    of G's windows up to the horizon and the search fails loudly when the
    torsion windows are not generated by finite members at this scale.
    """
    if shift.alphabet.exponent % p != 0:
        raise ValueError(f"{p} does not divide exp(H)")
    if horizons is None:
        horizons = Horizons.derive(shift)
    found = supported_words(shift, 0, horizons.support_cap - 1, horizons.margin,
                            torsion_scale=p)
    gens: list[Word] = []
    for w in found.words:
        normalized = w.shifted(w.first) if not w.is_zero else w
        if normalized not in gens:
            gens.append(normalized)
    result = GroupShift.make(shift.alphabet, gens)
    r = shift.alphabet.rank
    for t in range(horizons.window_horizon + 1):
        target = torsion_window_projection(shift, 0, t, horizons.margin, p)
        got = result.window(0, t).form
        if not got.spans_same(target):
            raise PipelineFailure(
                "socle-presentation",
                f"p-torsion window [0,{t}] not generated by finite torsion "
                f"members with support <= {horizons.support_cap}")
    return result


# -- one-sided initial values and generator selection ------------------------


def initial_value_space(shift: GroupShift, p: int,
                        horizons: Horizons) -> tuple[tuple[tuple[int, ...], ...], int]:
    """F_p coordinates of the initial symbols of one-sided torsion members.

    Computed on the window [-margin, support_cap - 1 + margin] as the
    projection to position 0 of the left-vanishing p-torsion submodule.
    Returns (spanning F_p rows, rank).
    """
    margin = horizons.margin
    reach = horizons.support_cap - 1 + margin
    module = shift.window(-margin, reach)
    form = module.constrained_projection(0, 0,
                                         zero_positions=range(-margin, 0),
                                         kill_scale=p)
    group = shift.alphabet
    rows = []
    for row in form.rows:
        coords = group.scaled_to_coords(row)
        rows.append(group.torsion_coords_to_fp(coords, p))
    span = FpSpan(p, group.rank)
    for row in rows:
        span.add_if_independent(row)
    return tuple(rows), span.rank


def _torsion_candidates(shift: GroupShift, p: int,
                        horizons: Horizons) -> SupportedWords:
    """Certified p-torsion words supported in [0, support_cap - 1], all
    certified on one common window so initial values stay comparable."""
    return supported_words(shift, 0, horizons.support_cap - 1, horizons.margin,
                           torsion_scale=p)


def _candidate_batches(cands: SupportedWords, max_len: int, enum_cap: int,
                       stage: str):
    """Yield per-support-length batches of candidate window vectors with
    first index 0, shortest supports first and each batch in lex order.

    Works on reversed-coordinate Howell subspans, so consuming only the
    short-support batches never enumerates the whole module; vectors are
    raw scaled tuples (callers build Words only for selected ones).  Going
    past enum_cap candidates fails the calling pipeline stage.
    """
    form = cands.form
    if not form.rows:
        return
    m = form.modulus
    width = form.ncols
    rev_form = howell_form([tuple(reversed(row)) for row in form.rows], m)
    r = cands.shift.alphabet.rank
    seen: set[tuple[int, ...]] = set()
    budget = enum_cap
    for s in range(1, max_len + 1):
        cutoff = width - s * r
        rows_s = [row for row, (c, _) in zip(rev_form.rows, rev_form.pivots)
                  if c >= cutoff]
        if not rows_s:
            continue
        sub = howell_form(rows_s, m)
        if sub.size() > budget:
            raise PipelineFailure(
                stage, f"candidate enumeration for support {s} exceeds "
                       f"enum_cap {enum_cap}; raise --enum-cap")
        budget -= sub.size()
        batch = []
        for rev_vec in sub.enumerate_elements():
            if rev_vec in seen:
                continue
            seen.add(rev_vec)
            vec = tuple(reversed(rev_vec))
            # exact support [0, s-1]: nonzero first block, nonzero last block
            if not any(vec[:r]) or not any(vec[(s - 1) * r:s * r]):
                continue
            batch.append(vec)
        batch.sort()
        if batch:
            yield s, batch


def _vec_initial_fp(group: FiniteAbelianGroup, vec, p: int) -> tuple[int, ...]:
    coords = group.scaled_to_coords(vec[:group.rank])
    return group.torsion_coords_to_fp(coords, p)


def _vec_quotient_support(group: FiniteAbelianGroup, vec, p: int) -> int:
    """Support length of the mod-p reduction of the word behind the vector."""
    r = group.rank
    scaled = group.scale_factors
    hot = [k for k in range(len(vec) // r)
           if any(vec[k * r + j] % (p * scaled[j]) for j in range(r))]
    if not hot:
        return 0
    return hot[-1] - hot[0] + 1


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


def _initial_fp(group: FiniteAbelianGroup, w: Word, p: int) -> tuple[int, ...]:
    return group.torsion_coords_to_fp(w.value_at(0), p)


def _select_base_case(shift: GroupShift, p: int, horizons: Horizons,
                      order_index: int) -> list[GeneratorEntry]:
    """Exponent-p case: minimal-support torsion words whose initial symbols
    form a basis, support lengths nondecreasing; here every height is 0."""
    _, rank = initial_value_space(shift, p, horizons)
    if rank == 0:
        return []
    group = shift.alphabet
    cands = _torsion_candidates(shift, p, horizons)
    span = FpSpan(p, group.rank)
    chosen: list[GeneratorEntry] = []
    for _, batch in _candidate_batches(cands, horizons.support_cap,
                                       horizons.enum_cap, "initial-basis"):
        for vec in batch:
            if span.add_if_independent(_vec_initial_fp(group, vec, p)):
                w = Word.from_window_vector(group, cands.lo, vec)
                chosen.append(GeneratorEntry(w, 0, w))
                if span.rank == rank:
                    return chosen
    raise PipelineFailure(
        "initial-basis",
        f"initial-value basis incomplete: found {span.rank} of {rank} "
        f"directions with support <= {horizons.support_cap}")


def lift_height(shift: GroupShift, x: Word, p: int, h: int,
                pad: int, margin: int) -> Word | None:
    """A certified finite word y with p^h * y == x, canonical and with
    support inside supp(x) padded by `pad`; None when no such word exists
    at this scale."""
    if h == 0 or x.is_zero:
        return x
    lo, hi = x.first - pad, x.last + pad
    words = supported_words(shift, lo, hi, margin)
    if not words.form.rows:
        return None
    m = words.form.modulus
    scale = p ** h
    scaled_rows = [tuple((scale * v) % m for v in row) for row in words.form.rows]
    solver = row_solver(scaled_rows, m)
    coeffs = solver.express(x.window_vector(lo, hi))
    if coeffs is None:
        return None
    y = Word.zero(shift.alphabet)
    for c, row in zip(coeffs, words.form.rows):
        if c:
            y = y + Word.from_window_vector(shift.alphabet, lo, row).scaled(c)
    if y.scaled(scale) != x:
        return None
    return y


def word_height(shift: GroupShift, x: Word, p: int, order_index: int,
                margin: int, max_h: int) -> int:
    """Largest h <= max_h with a certified finite y solving p^h y = x,
    preimage supports padded by h*(order index + 1) per division step."""
    if x.is_zero:
        raise ValueError("height of the zero word is infinite")
    h = 0
    while h < max_h:
        pad = (h + 1) * (order_index + 1)
        if lift_height(shift, x, p, h + 1, pad, margin) is None:
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
    search = order_controllability_index(shift, horizons.n_cap)
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
        entries = _select_base_case(shift, p, horizons, n_o)
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
            z = lift_height(shift, entry.tap, p, 1, pad, horizons.margin)
            if z is not None:
                break
        if z is None:
            raise PipelineFailure(
                "tap-division",
                f"no certified finite y with p*y = {entry.tap.format()}")
        lifted.append(GeneratorEntry(entry.torsion_word, entry.height + 1, z))

    _, rank = initial_value_space(shift, p, horizons)
    span = FpSpan(p, shift.alphabet.rank)
    for entry in lifted:
        if not span.add_if_independent(
                _initial_fp(shift.alphabet, entry.torsion_word, p)):
            raise PipelineFailure(
                "initial-basis",
                "recursed initial symbols are dependent at this horizon")
    completion: list[GeneratorEntry] = []
    if span.rank < rank:
        group = shift.alphabet
        cands = _torsion_candidates(shift, p, horizons)
        pool: list[tuple[int, int, tuple[int, ...]]] = []
        for s, batch in _candidate_batches(cands, horizons.support_cap,
                                           horizons.enum_cap, "basis-completion"):
            for vec in batch:
                pool.append((_vec_quotient_support(group, vec, p), s, vec))
        pool.sort()
        for _, _, vec in pool:
            if span.add_if_independent(_vec_initial_fp(group, vec, p)):
                w = Word.from_window_vector(group, cands.lo, vec)
                completion.append(GeneratorEntry(w, 0, w))
                if span.rank == rank:
                    break
    if span.rank < rank:
        raise PipelineFailure(
            "basis-completion",
            f"initial-value basis incomplete: {span.rank} of {rank} "
            f"directions with support <= {horizons.support_cap}")
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

    With a window, only the restriction of the output to it is returned
    (contributions not meeting the window are skipped).
    """
    if message.group != encoder.source:
        raise ValueError("message is not over the encoder source alphabet")
    out = Word.zero(encoder.alphabet)
    if message.is_zero:
        return out
    for t in range(message.start, message.start + len(message.symbols)):
        coords = message.value_at(t)
        for j, c in enumerate(coords):
            if c:
                placed = encoder.taps[j].shifted(-t)
                if window is not None:
                    if placed.is_zero or placed.last < window[0] or \
                            placed.first > window[1]:
                        continue
                out = out + placed.scaled(c)
    if window is not None:
        out = out.restricted(*window)
    return out


def message_impulse(encoder: Encoder, j: int, value: int = 1,
                    position: int = 0) -> Word:
    coords = [0] * encoder.source.rank
    coords[j] = value
    return Word.impulse(encoder.source, coords, position)


@dataclass(frozen=True)
class InjectivityReport:
    block: int | None
    cap: int
    dependent_combination: tuple[tuple[int, int, int], ...] | None
    # (tap index, placement, coefficient) of a vanishing combination


def check_injectivity(encoder: Encoder, block_cap: int) -> InjectivityReport:
    """Search for a block [0, N] on which all nonzero placed torsion-word
    restrictions are linearly independent over F_p."""
    torsion = encoder.torsion_words()
    if not torsion:
        return InjectivityReport(0, block_cap, None)
    if len(set(encoder.tap_primes)) != 1:
        raise ValueError("independence test needs a single-prime encoder; "
                         "run it per primary component")
    p = encoder.tap_primes[0]
    group = encoder.alphabet
    witness = None
    for n in range(block_cap + 1):
        vectors = []
        labels = []
        for j, x in enumerate(torsion):
            if x.is_zero:
                continue
            for t in range(-x.last, n - x.first + 1):
                placed = x.shifted(-t)
                clipped = placed.restricted(0, n)
                if clipped.is_zero:
                    continue
                flat: list[int] = []
                for i in range(0, n + 1):
                    flat.extend(group.torsion_coords_to_fp(clipped.value_at(i), p))
                vectors.append(tuple(flat))
                labels.append((j, t))
        solver = row_solver(vectors, p)
        if solver.form.rank == len(vectors):
            return InjectivityReport(n, block_cap, None)
        witness = tuple((labels[i][0], labels[i][1], c)
                        for i, c in enumerate(solver.kernel.rows[0]) if c)
    return InjectivityReport(None, block_cap, witness)


def _tap_solver(alphabet: FiniteAbelianGroup, taps: tuple[Word, ...],
                msg_lo: int, msg_hi: int, cover: Word | None = None):
    """Row solver over every nonzero tap placed at msg_lo..msg_hi, on the
    window covering all of them (and the support of `cover`).

    Returns (solver, [(tap index, placement) per row], (lo, hi)).
    """
    nonzero = [j for j, tap in enumerate(taps) if not tap.is_zero]
    lo = msg_lo + min((taps[j].first for j in nonzero), default=0)
    hi = msg_hi + max((taps[j].last for j in nonzero), default=0)
    if cover is not None:
        lo, hi = min(lo, cover.first), max(hi, cover.last)
    labels = [(j, t) for j in nonzero for t in range(msg_lo, msg_hi + 1)]
    rows = [taps[j].shifted(-t).window_vector(lo, hi) for j, t in labels]
    modulus = max(alphabet.exponent, 2)
    return row_solver(rows, modulus, (hi - lo + 1) * alphabet.rank), labels, (lo, hi)


def solve_finite_preimage(encoder: Encoder, w: Word,
                          slack: int) -> Word | None:
    """A finite message encoding exactly to w, searched with message support
    inside supp(w) padded by `slack`; None when no such message exists."""
    if w.is_zero:
        return Word.zero(encoder.source)
    if not encoder.taps:
        return None
    solver, labels, (lo, hi) = _tap_solver(encoder.alphabet, encoder.taps,
                                           w.first - slack, w.last + slack, w)
    coeffs = solver.express(w.window_vector(lo, hi))
    if coeffs is None:
        return None
    msg = Word.zero(encoder.source)
    for (j, t), c in zip(labels, coeffs):
        if c:
            msg = msg + message_impulse(encoder, j, c, t)
    if encode(encoder, msg) != w:
        return None
    return msg


@dataclass(frozen=True)
class NoncatastrophicityReport:
    ok: bool
    horizon: int
    witness: Word | None          # certified finite word with no finite preimage
    finite_image_checked: int     # random finite messages verified to map to G_f


def check_noncatastrophic(encoder: Encoder, shift: GroupShift, trials: int,
                          horizon: int, margin: int,
                          seed: int = 0) -> NoncatastrophicityReport:
    """Two window-scale directions: finite messages land in the certified
    finite code, and every certified finite word up to the horizon has a
    finite preimage under the encoder."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        msg = random_message(encoder, rng, horizon)
        image = encode(encoder, msg)
        if not member(shift, image, margin).certified_in:
            return NoncatastrophicityReport(False, horizon, image, checked)
        checked += 1
    slack = encoder.memory + horizon + 1
    for t in range(horizon + 1):
        words = supported_words(shift, 0, t, margin)
        for w in words.words:
            if solve_finite_preimage(encoder, w, slack) is None:
                return NoncatastrophicityReport(False, horizon, w, checked)
    return NoncatastrophicityReport(True, horizon, None, checked)


def random_message(encoder: Encoder, rng: random.Random, reach: int) -> Word:
    src = encoder.source
    if src.rank == 0:
        return Word.zero(src)
    start = rng.randrange(-reach, reach + 1)
    length = rng.randrange(1, reach + 2)
    syms = [tuple(rng.randrange(n) for n in src.orders) for _ in range(length)]
    return Word.make(src, start, syms)


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
        z = lift_height(shift, tap, p, 1, (pg_set.order_index + 1) * 2 +
                        horizons.margin, horizons.margin)
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
    w = Word.zero(shift.alphabet)
    used = []
    for (i, t), c in zip(labels, coeffs):
        if c:
            w = w + lifts[i].shifted(-t).scaled(c)
            used.append((i, t, c))
    v = u - w
    if not v.scaled(p).is_zero:
        raise PipelineFailure("torsion-split",
                              "residual part is not p-torsion (inexact split)")
    return BaseDecomposition(v, w, tuple(used))


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


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


def _message_invariant_checks(encoder: Encoder, genset: CanonicalGeneratorSet,
                              trials: int, seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    p = genset.prime
    hom = equi = True
    for _ in range(trials):
        m1 = random_message(encoder, rng, 3)
        m2 = random_message(encoder, rng, 3)
        if encode(encoder, m1 + m2) != encode(encoder, m1) + encode(encoder, m2):
            hom = False
        if encode(encoder, m1.shifted(1)) != encode(encoder, m1).shifted(1):
            equi = False
    order_ok = True
    for j, h in enumerate(encoder.heights):
        image = encode(encoder, message_impulse(encoder, j))
        if image.order() > p ** (h + 1) or (p ** (h + 1)) % image.order():
            order_ok = False
    return [CheckResult("homomorphism", hom),
            CheckResult("shift-equivariance", equi),
            CheckResult("order-bounds", order_ok)]


def _structure_checks(genset: CanonicalGeneratorSet,
                      horizons: Horizons) -> list[CheckResult]:
    shift, p = genset.shift, genset.prime
    out = []
    exact = all(e.tap.scaled(p ** e.height) == e.torsion_word
                for e in genset.entries)
    out.append(CheckResult("exact-powers", exact))
    hs = genset.heights
    out.append(CheckResult("heights-sorted", all(a >= b for a, b in zip(hs, hs[1:]))))
    span = FpSpan(p, shift.alphabet.rank)
    indep = all(span.add_if_independent(
        shift.alphabet.torsion_coords_to_fp(e.torsion_word.value_at(0), p))
        for e in genset.entries)
    out.append(CheckResult("initial-basis-independent", indep))
    torsion_ok = all(e.torsion_word.is_torsion(p) and
                     (e.torsion_word.is_zero or e.torsion_word.first == 0)
                     for e in genset.entries)
    out.append(CheckResult("torsion-one-sided", torsion_ok))
    maximal = True
    emax = shift.exponent_exponent(p)
    for e in genset.entries:
        h = word_height(shift, e.torsion_word, p, genset.order_index,
                        horizons.margin, emax)
        if h != e.height:
            maximal = False
    out.append(CheckResult("heights-maximal", maximal))
    return out


def _windows_surject(taps, shift: GroupShift, horizon: int) -> bool:
    """The shift generated by the taps has every window [0, t], t <= horizon,
    equal to the shift's."""
    image = GroupShift.make(shift.alphabet, taps)
    return all(image.window(0, t).form.spans_same(shift.window(0, t).form)
               for t in range(horizon + 1))


def _image_window_checks(encoder: Encoder, shift: GroupShift,
                         horizons: Horizons) -> list[CheckResult]:
    surj = _windows_surject(encoder.taps, shift, horizons.window_horizon)
    # kernel triviality: messages on a window encoding to zero on a full
    # cover must be trivial coordinatewise
    solver, labels, _ = _tap_solver(encoder.alphabet, encoder.taps,
                                    0, horizons.window_horizon)
    orders = [encoder.source.orders[j] for j, _ in labels]
    inj = not any(c % orders[i] for row in solver.kernel.rows
                  for i, c in enumerate(row))
    return [CheckResult("window-surjectivity", surj,
                        f"windows [0,0]..[0,{horizons.window_horizon}]"),
            CheckResult("window-injectivity", inj)]


def primary_certificate(shift: GroupShift, p: int, horizons: Horizons,
                        trials: int = 64, seed: int = 0) -> PrimaryCertificate:
    """Run the whole per-prime pipeline and collect every check outcome."""
    try:
        genset = canonical_generators(shift, p, horizons)
    except PipelineFailure as exc:
        return PrimaryCertificate(p, shift, None, None,
                                  (CheckResult(exc.stage, False, exc.detail),),
                                  exc.stage)
    encoder = build_encoder(genset)
    checks: list[CheckResult] = []
    try:
        socle_ok = True
        detail = ""
        try:
            socle_shift(shift, p, horizons)
        except PipelineFailure as exc:
            socle_ok = False
            detail = exc.detail
        checks.append(CheckResult("socle-weakly-controllable", socle_ok, detail))
        checks.extend(_structure_checks(genset, horizons))
        checks.extend(_message_invariant_checks(encoder, genset, trials, seed))
        inj = check_injectivity(encoder, horizons.block_cap)
        checks.append(CheckResult("independent-block", inj.block is not None,
                                  f"N={inj.block}" if inj.block is not None else
                                  f"no block <= {horizons.block_cap}"))
        noncat = check_noncatastrophic(encoder, shift, trials=8,
                                       horizon=horizons.window_horizon,
                                       margin=horizons.margin, seed=seed)
        checks.append(CheckResult(
            "noncatastrophic", noncat.ok,
            "" if noncat.ok else f"witness {noncat.witness.format()}"))
        checks.extend(_image_window_checks(encoder, shift, horizons))
        e = shift.exponent_exponent(p)
        for r in range(1, e):
            ok, detail = scaled_finite_words_check(shift, p, r, horizons)
            checks.append(CheckResult(f"scaled-finite-words-r{r}", ok, detail))
    except PipelineFailure as exc:
        checks.append(CheckResult(exc.stage, False, exc.detail))
        return PrimaryCertificate(p, shift, genset, encoder, tuple(checks),
                                  exc.stage)
    failing = next((c.name for c in checks if not c.passed), None)
    return PrimaryCertificate(p, shift, genset, encoder, tuple(checks), failing)


def primary_shift(shift: GroupShift, p: int) -> GroupShift:
    """The p-primary component of the shift, presented over the p-part of H."""
    part = primary_component(shift.alphabet, p)
    gens = []
    for g in shift.generators:
        syms = [part.project_coords(s) for s in g.symbols]
        gens.append(Word.make(part.group, g.start, syms))
    return GroupShift.make(part.group, gens)


def conjugacy_certificate(shift: GroupShift,
                          horizons: Horizons | None = None,
                          trials: int = 64,
                          seed: int = 0) -> ConjugacyCertificate:
    """Primary decomposition plus per-prime pipelines, assembled into one
    product encoder; every stage outcome and horizon is recorded."""
    if horizons is None:
        horizons = Horizons.derive(shift)
    primaries = []
    encoders: list[tuple[int, Encoder]] = []
    for p in shift.alphabet.primes():
        part_shift = primary_shift(shift, p)
        cert = primary_certificate(part_shift, p, horizons, trials, seed)
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
            for j in range(enc.source.rank):
                factors.append(enc.source.factors[j])
                tap = enc.taps[j]
                syms = [part.embed_coords(s) for s in tap.symbols]
                taps.append(Word.make(shift.alphabet, tap.start, syms))
                heights.append(enc.heights[j])
                tap_primes.append(p)
        product = Encoder(shift.alphabet, FiniteAbelianGroup(tuple(factors)),
                          tuple(taps), tuple(heights), tuple(tap_primes))
        surj = _windows_surject(taps, shift, horizons.window_horizon)
        global_checks.append(CheckResult("product-window-surjectivity", surj))
    return ConjugacyCertificate(shift, horizons, tuple(primaries), product,
                                tuple(global_checks))
