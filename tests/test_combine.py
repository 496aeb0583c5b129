"""Differential tests of the one-buffer word sum (``Word.combine``) and of
the packed ``encode`` kernel, against the pairwise ``Word.__add__`` fold that
they replace; the fold is kept here as the slow reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshift.encoders import Encoder, encode
from groupshift.groups import FiniteAbelianGroup
from groupshift.residues import _lane_bytes
from groupshift.words import Word

from conftest import coords_add, impulse, restricted

GROUPS = ["Z2", "Z4", "Z2 x Z3", "Z2 x Z4", "Z9"]


def fold_add(a: Word, b: Word) -> Word:
    """The pairwise sum: rebuilds the whole word on every call."""
    if a.group != b.group:
        raise ValueError("words over different alphabets")
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    lo = min(a.start, b.start)
    hi = max(a.start + len(a.symbols), b.start + len(b.symbols)) - 1
    g = a.group
    return Word.make(g, lo, [coords_add(g, a.value_at(i), b.value_at(i))
                             for i in range(lo, hi + 1)])


def restrict(w: Word, window) -> Word:
    """The restriction symbol by symbol (`conftest.restricted` slices the symbols)."""
    if window is None:
        return w
    lo, hi = window
    return Word.make(w.group, lo, [w.value_at(i) for i in range(lo, hi + 1)])


def fold_combine(group, terms) -> Word:
    out = Word.zero(group)
    for c, w, t in terms:
        out = fold_add(out, w.shifted(-t).scaled(c))
    return out


def fold_encode(encoder: Encoder, message: Word, window=None) -> Word:
    """encode as a fold of placed taps, skipping taps that miss the window."""
    out = Word.zero(encoder.alphabet)
    for t in range(message.start, message.start + len(message.symbols)):
        for j, c in enumerate(message.value_at(t)):
            if not c:
                continue
            placed = encoder.taps[j].shifted(-t)
            if window is not None and (placed.is_zero or placed.last < window[0]
                                       or placed.first > window[1]):
                continue
            out = fold_add(out, placed.scaled(c))
    return restrict(out, window)


def words_over(group, max_len=5):
    symbol = st.tuples(*[st.integers(0, n - 1) for n in group.orders])
    return st.builds(lambda start, syms: Word.make(group, start, syms),
                     st.integers(-6, 6), st.lists(symbol, max_size=max_len))


windows = st.one_of(st.none(), st.tuples(st.integers(-10, 10), st.integers(0, 8))
                    .map(lambda t: (t[0], t[0] + t[1])))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_combine_matches_fold(name, data):
    group = FiniteAbelianGroup.parse(name)
    terms = data.draw(st.lists(st.tuples(st.integers(-3, 12), words_over(group),
                                         st.integers(-8, 8)), max_size=8))
    assert Word.combine(group, terms) == fold_combine(group, terms)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_add_and_restrict_match_fold(name, data):
    group = FiniteAbelianGroup.parse(name)
    a, b = data.draw(words_over(group)), data.draw(words_over(group))
    assert a + b == fold_add(a, b)
    assert a - b == fold_add(a, -b)
    lo = data.draw(st.integers(-8, 8))
    hi = data.draw(st.integers(lo - 1, lo + 8))
    assert restricted(a, lo, hi) == restrict(a, (lo, hi))


def test_combine_rejects_mixed_alphabets():
    z2, z4 = FiniteAbelianGroup.parse("Z2"), FiniteAbelianGroup.parse("Z4")
    with pytest.raises(ValueError):
        Word.combine(z2, [(1, impulse(z4, (1,)), 0)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GROUPS), st.data(), windows)
def test_encode_matches_fold(name, data, window):
    alphabet = FiniteAbelianGroup.parse(name)
    source = FiniteAbelianGroup(tuple(data.draw(st.lists(
        st.sampled_from([(2, 1), (2, 2), (3, 1)]), min_size=1, max_size=3))))
    taps = tuple(data.draw(words_over(alphabet, 4)) for _ in range(source.rank))
    enc = Encoder(alphabet, source, taps, (0,) * source.rank, (2,) * source.rank)
    message = data.draw(words_over(source, 12))
    assert encode(enc, message, window) == fold_encode(enc, message, window)


def test_long_overlapping_encode_matches_fold():
    # every tap overlaps the next placement, as in the delay representation
    alphabet = FiniteAbelianGroup.parse("Z2 x Z3")
    source = FiniteAbelianGroup(((2, 1), (3, 1)))
    taps = (Word.make(alphabet, 0, [(1, 0), (0, 1), (1, 2)]),
            Word.make(alphabet, -1, [(0, 2), (1, 1)]))
    enc = Encoder(alphabet, source, taps, (0, 0), (2, 3))
    message = Word.make(source, -50, [((i * 7) % 2, (i * i) % 3) for i in range(300)])
    for window in (None, (0, 5), (-3, 150), (400, 420)):
        assert encode(enc, message, window) == fold_encode(enc, message, window)


def image_windows(enc: Encoder, message: Word):
    """No window, windows before and after the image, across each of its ends
    and inside it."""
    taps = [tap for tap in enc.taps if tap.symbols]
    lo = message.start + min(tap.start for tap in taps)
    hi = message.start + len(message.symbols) + max(tap.start + len(tap.symbols)
                                                    for tap in taps) - 2
    return [None, (lo - 9, lo - 1), (hi + 1, hi + 9), (lo - 3, lo + 4), (hi - 4, hi + 3),
            (lo + 2, hi - 2)]


def lane_bytes(enc: Encoder) -> int:
    """The lane width of `encode`: its bound on a lane, in bytes."""
    bound = (max(enc.alphabet.orders) - 1) * sum(
        (n - 1) * len(tap.symbols) for n, tap in zip(enc.source.orders, enc.taps))
    return _lane_bytes(bound.bit_length())


def lane_boundary_encoder(alphabet: str, source, taps) -> Encoder:
    alphabet = FiniteAbelianGroup.parse(alphabet)
    source = FiniteAbelianGroup(source)
    return Encoder(alphabet, source, tuple(Word.make(alphabet, t, syms) for t, syms in taps),
                   (0,) * source.rank, (2,) * source.rank)


#: (encoder, lane bytes).  Over Z17 from Z2 a tap of 16s on a message of 1s
#: reaches the bound 16 * len(tap): 240 fits a byte, 256 does not.  A
#: one-symbol tap over Z256 bounds a lane by 255, so order 256 runs on byte
#: lanes, with the identity table.  Each coordinate of Z2 x Z9 x Z4 is
#: reduced by its own table.
LANE_BOUNDARIES = [
    (lane_boundary_encoder("Z17", ((2, 1),), [(-3, [(16,)] * 15)]), 1),
    (lane_boundary_encoder("Z17", ((2, 1),), [(-3, [(16,)] * 16)]), 2),
    (lane_boundary_encoder("Z256", ((2, 1),), [(2, [(255,)])]), 1),
    (lane_boundary_encoder("Z2 x Z9 x Z4", ((2, 1), (3, 1)),
                           [(-1, [(1, 8, 3), (0, 5, 2), (1, 8, 3)]),
                            (1, [(1, 8, 3), (1, 0, 1), (0, 7, 0), (1, 8, 3)])]), 1),
]


@pytest.mark.parametrize("enc, nbytes", LANE_BOUNDARIES)
def test_encode_at_lane_width_boundaries_matches_fold(enc, nbytes):
    assert lane_bytes(enc) == nbytes
    orders = enc.source.orders
    for message in (Word.make(enc.source, 5, [tuple(n - 1 for n in orders)] * 40),
                    Word.make(enc.source, -7, [tuple((i * i + i // 3) % n for n in orders)
                                               for i in range(1, 50)])):
        for window in image_windows(enc, message):
            assert encode(enc, message, window) == fold_encode(enc, message, window)


#: Alphabets with orders up to 256 (Z256 on byte lanes for short taps), past
#: 256 (Z3125, Z1024) and past 2^32 (Z2^40, Z3^21), so the lanes of `encode`
#: take every width: 1, 2, 4 and 8 bytes, and whole bytes past 64 bits.
WIDE_ALPHABETS = [(), ((2, 1),), ((2, 3), (3, 1)), ((2, 8),), ((5, 5),), ((2, 10), (2, 1)),
                  ((2, 40),), ((3, 21), (2, 1))]
#: Sources with orders past 256 (Z16807, Z2^33) pack their columns entry by
#: entry.
WIDE_SOURCES = [(), ((2, 1),), ((3, 2), (2, 1)), ((7, 5),), ((2, 33),),
                ((3, 1), (2, 33))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WIDE_ALPHABETS), st.sampled_from(WIDE_SOURCES), st.data())
def test_wide_lane_encode_matches_fold(factors, source_factors, data):
    # rank-0 alphabets and sources, zero taps, taps with negative starts, and
    # windows before, after and across the image
    alphabet = FiniteAbelianGroup(factors)
    source = FiniteAbelianGroup(source_factors)
    taps = tuple(data.draw(words_over(alphabet, 4)) for _ in range(source.rank))
    enc = Encoder(alphabet, source, taps, (0,) * source.rank, (2,) * source.rank)
    message = data.draw(words_over(source, 12))
    window = data.draw(st.one_of(st.none(), st.tuples(
        st.integers(-40, 40), st.integers(0, 30)).map(lambda t: (t[0], t[0] + t[1]))))
    assert encode(enc, message, window) == fold_encode(enc, message, window)


def all_zero_message(source: FiniteAbelianGroup, start: int, length: int) -> Word:
    """A message of zero symbols, built untrimmed."""
    return Word(source, start, ((0,) * source.rank,) * length)


PLAN_WINDOWS = st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 30))
                        .map(lambda t: (t[0], t[0] + t[1])), max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(WIDE_ALPHABETS), st.sampled_from(WIDE_SOURCES), st.data())
def test_one_encoder_encodes_many_messages_from_its_plan(factors, source_factors, data):
    # the plan is built by the first call and read by every later one, over
    # sources past order 256, lanes past one byte, zero taps, and the empty
    # and all-zero messages; building it changes neither equality nor hash
    alphabet = FiniteAbelianGroup(factors)
    source = FiniteAbelianGroup(source_factors)
    tap = st.one_of(st.just(Word.zero(alphabet)), words_over(alphabet, 4))
    taps = tuple(data.draw(st.lists(tap, min_size=source.rank, max_size=source.rank)))
    enc, twin = (Encoder(alphabet, source, taps, (0,) * source.rank, (2,) * source.rank)
                 for _ in range(2))
    before = hash(enc)
    messages = [Word.zero(source), all_zero_message(source, -2, 6),
                *data.draw(st.lists(words_over(source, 12), min_size=1, max_size=3))]
    for message in messages:
        for window in (None, *data.draw(PLAN_WINDOWS)):
            assert encode(enc, message, window) == fold_encode(enc, message, window)
    assert "_plan" in vars(enc) and "_plan" not in vars(twin)
    assert enc == twin and hash(enc) == hash(twin) == before


def test_plan_with_zero_taps_wide_lanes_and_wide_sources_matches_fold():
    # one encoder over Z1024 x Z2 from Z16807 x Z2 x Z2^33 x Z3 with one zero
    # tap: 8-byte lanes, columns packed entry by entry and from bytes, one
    # tap skipped, reused across messages and windows; the last message is
    # nonzero only where the tap is zero, so its image is zero
    alphabet = FiniteAbelianGroup(((2, 10), (2, 1)))
    source = FiniteAbelianGroup(((7, 5), (2, 1), (2, 33), (3, 1)))
    taps = (Word.make(alphabet, -1, [(1023, 1), (5, 0), (700, 1)]), Word.zero(alphabet),
            Word.make(alphabet, 2, [(3, 1), (0, 0), (1000, 0), (1, 1)]),
            Word.make(alphabet, 0, [(512, 1)]))
    enc = Encoder(alphabet, source, taps, (0,) * 4, (2,) * 4)
    assert lane_bytes(enc) == 8
    rows = [tuple((i * 7919 + 13 * k) % n for k, n in enumerate(source.orders))
            for i in range(60)]
    messages = [Word.make(source, -20, rows), Word.make(source, 4, rows[:7]),
                Word.zero(source), all_zero_message(source, 0, 9),
                Word.make(source, 0, [tuple(n - 1 for n in source.orders)] * 25),
                Word.make(source, 3, [(0, 1, 0, 0)] * 4)]  # only the zero tap's column
    for message in messages:
        for window in image_windows(enc, message) if message.symbols else [None]:
            assert encode(enc, message, window) == fold_encode(enc, message, window)
    assert encode(enc, messages[-1]).is_zero
