import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupshift.groups import FiniteAbelianGroup
from groupshift.residues import pack_rows, placed_rows
from groupshift.words import Word

from conftest import impulse, is_torsion, restricted, word_span

GROUPS = ["Z2", "Z4", "Z2 x Z4", "Z6"]


def random_word(rng, group):
    length = rng.randrange(0, 4)
    syms = [tuple(rng.randrange(n) for n in group.orders) for _ in range(length)]
    return Word.make(group, rng.randrange(-3, 4), syms)


def test_zero_normalization(z4):
    w = Word.make(z4, 5, [(0,), (0,)])
    assert w.is_zero and w.start == 0 and w.symbols == ()
    assert w.first is None and w.last is None


def test_trimming(z4):
    w = Word.make(z4, -1, [(0,), (1,), (2,), (0,)])
    assert w.start == 0 and w.symbols == ((1,), (2,))
    assert w.support_length == 2


def test_shift_semantics(z4):
    w = Word.make(z4, 0, [(1,), (0,), (3,)])
    assert w.shifted(0) == w
    assert Word.zero(z4).shifted(5) == Word.zero(z4)
    s = w.shifted(3)
    assert (s.first, s.last) == (-3, -1)
    for i in range(-5, 5):
        assert s.value_at(i) == w.value_at(i + 3)
    assert s.shifted(-3) == w


def test_addition_and_negation(z4):
    rng = random.Random(0)
    for _ in range(100):
        a, b = random_word(rng, z4), random_word(rng, z4)
        s = a + b
        lo, hi = -8, 8
        for i in range(lo, hi):
            assert s.value_at(i) == ((a.value_at(i)[0] + b.value_at(i)[0]) % 4,)
        assert (a + (-a)).is_zero
        assert a - b == a + (-b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GROUPS), st.randoms(use_true_random=False))
def test_order_and_torsion(group_name, rng):
    group = FiniteAbelianGroup.parse(group_name)
    w = random_word(rng, group)
    n = w.order()
    assert w.scaled(n).is_zero
    for q in {2, 3}:
        if n % q == 0:
            assert not w.scaled(n // q).is_zero
    assert is_torsion(w, 2) == w.scaled(2).is_zero


def test_restriction(z4):
    w = Word.make(z4, 0, [(1,), (2,), (3,)])
    r = restricted(w, 1, 5)
    assert r.value_at(0) == (0,) and r.value_at(1) == (2,) and r.value_at(2) == (3,)
    assert restricted(w, 5, 9).is_zero
    assert restricted(w, 0, 2) == w


def test_window_vector_roundtrip():
    group = FiniteAbelianGroup.parse("Z2 x Z4")
    rng = random.Random(1)
    for _ in range(50):
        w = random_word(rng, group)
        lo = (w.first if not w.is_zero else 0) - 1
        hi = (w.last if not w.is_zero else 0) + 1
        vec = w.window_vector(lo, hi)
        back = Word.from_window_vector(group, lo, vec)
        assert back == w


def dense_window_vector(w, lo, hi):
    """The window vector by one scaled symbol per position, zeros included."""
    out = []
    for i in range(lo, hi + 1):
        out.extend(w.group.coords_to_scaled(w.value_at(i)))
    return tuple(out)


@pytest.mark.parametrize("where", ["left", "right", "overlap", "inside", "zero"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_window_vector_matches_dense_loop(where, data):
    group = FiniteAbelianGroup.parse(
        data.draw(st.sampled_from(GROUPS + ["Z9 x Z3", "Z8 x Z4 x Z2"])))
    if where == "zero":
        w = Word.zero(group)
        lo = data.draw(st.integers(-5, 5))
        hi = data.draw(st.integers(lo, lo + 5))
    else:
        symbol = st.tuples(*(st.integers(0, n - 1) for n in group.orders))
        syms = data.draw(st.lists(symbol, min_size=1, max_size=6))
        syms[0] = syms[-1] = group.reduce_coords((1,) * group.rank)  # keep the support
        w = Word.make(group, data.draw(st.integers(-4, 4)), syms)
        first, last = w.first, w.last
        if where == "left":
            hi = data.draw(st.integers(first - 4, first - 1))
            lo = data.draw(st.integers(hi - 4, hi))
        elif where == "right":
            lo = data.draw(st.integers(last + 1, last + 4))
            hi = data.draw(st.integers(lo, lo + 4))
        elif where == "overlap" and data.draw(st.booleans()):  # across the first
            lo = data.draw(st.integers(first - 4, first - 1))
            hi = data.draw(st.integers(first, last + 4))
        elif where == "overlap":  # across the last
            lo = data.draw(st.integers(first, last))
            hi = data.draw(st.integers(last + 1, last + 4))
        else:
            lo = data.draw(st.integers(first, last))
            hi = data.draw(st.integers(lo, last))
    assert w.window_vector(lo, hi) == dense_window_vector(w, lo, hi)



@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["Z2", "Z4", "Z9", "Z2 x Z4", "Z3 x Z9", "Z8 x Z4 x Z2",
                        "Z6", "Z12", "Z2 x Z6", "Z2 x Z4 x Z3"]), st.data())
def test_placed_rows_match_packed_shifted_window_vectors(name, data):
    # every placement from wholly left of the window, across its edges, to
    # wholly right of it, and a few drawn at random
    group = FiniteAbelianGroup.parse(name)
    m = max(group.exponent, 2)
    symbol = st.tuples(*(st.integers(0, n - 1) for n in group.orders))
    w = Word.make(group, data.draw(st.integers(-6, 3)),
                  data.draw(st.lists(symbol, max_size=5)))
    lo = data.draw(st.integers(-5, 2))
    hi = lo + data.draw(st.integers(0, 4))
    first, last = (w.first, w.last) if w.symbols else (0, 0)
    placements = [*range(lo - last - 2, hi - first + 3),
                  *data.draw(st.lists(st.integers(-15, 15), max_size=4))]
    ncols = (hi - lo + 1) * group.rank
    want = [pack_rows([w.shifted(-t).window_vector(lo, hi)], m, ncols)[0]
            for t in placements]
    assert w.placed_rows(placements, lo, ncols) == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["Z2", "Z4", "Z8", "Z9", "Z27", "Z2 x Z4", "Z6", "Z2 x Z2 x Z3"]),
       st.data())
def test_placed_rows_reuse_the_word_packed_once(name, data):
    # the word's packed support, built on its first placement and shifted
    # for every later one, against `residues.placed_rows` packing the window
    # vector afresh; mirrored and `shifted` words, placements running off
    # either end of windows of 1 to 40 columns
    group = FiniteAbelianGroup.parse(name)
    m, r = group.modulus, group.rank
    symbol = st.tuples(*(st.integers(0, n - 1) for n in group.orders))
    w = Word.make(group, data.draw(st.integers(-6, 3)),
                  data.draw(st.lists(symbol, min_size=1, max_size=8)))
    assume(not w.is_zero)
    if data.draw(st.booleans()):
        w = Word(group, 0, w.symbols[::-1])
    w = w.shifted(data.draw(st.integers(-8, 8)))
    for _ in range(2):
        lo = data.draw(st.integers(-12, 12))
        ncols = data.draw(st.integers(1, 40 // r)) * r
        hi = lo + ncols // r - 1
        placements = [*range(lo - w.last - 3, hi - w.first + 4),
                      *data.draw(st.lists(st.integers(-60, 60), max_size=4))]
        want = placed_rows(w.window_vector(w.first, w.last), m,
                           [(w.first + t - lo) * r for t in placements], ncols)
        assert w.placed_rows(placements, lo, ncols) == want

def test_word_span():
    z2 = FiniteAbelianGroup.parse("Z2")
    a = Word.make(z2, -2, [(1,)])
    b = Word.make(z2, 3, [(1,), (1,)])
    assert word_span([a, b]) == (-2, 4)
    assert word_span([Word.zero(z2)]) is None


def test_format(z4):
    w = Word.make(z4, -1, [(1,), (2,)])
    assert w.format() == "@-1: 1 2"
    assert Word.zero(z4).format() == "0"
    mix = FiniteAbelianGroup.parse("Z2 x Z4")
    assert Word.make(mix, 0, [(1, 3)]).format() == "@0: (1,3)"


def test_alphabet_mismatch(z2, z4):
    with pytest.raises(ValueError):
        impulse(z2, (1,)) + impulse(z4, (1,))
