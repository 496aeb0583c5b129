import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from groupshift.control import order_controllability_index
from groupshift.encoders import PipelineFailure, canonical_generators, lift_height
from groupshift.groups import FiniteAbelianGroup

from groupshift.residues import (EnumerationCapExceeded, howell_form, row_solver,
                                 unpack_rows)
from groupshift.shifts import (GroupShift, Horizons, _boundary_heads, _fixed_reach,
                               enumerate_window_code, finite_type_memory, member,
                               primary_shift, supported_words,
                               torsion_presentation, torsion_window_projection)
from groupshift.words import Word

from conftest import (SpliceFailed, agrees_on, divisible, enumerate_elements, exact_margins,
                      form_words, full_shift, impulse, make_shift,
                      padded_initial_value_space, padded_member, padded_supported_words,
                      random_shift, restricted, splice, splice_property_holds,
                      tuple_combine_rows)


def window_code_as_set(shift, lo, hi):
    """Window module elements via the canonical-form path, as flat symbol
    tuples, for comparison with the brute-force oracle."""
    out = set()
    for vec in enumerate_elements(shift.window(lo, hi).form):
        w = Word.from_window_vector(shift.alphabet, lo, vec)
        flat = []
        for i in range(lo, hi + 1):
            flat.extend(w.value_at(i))
        out.add(tuple(flat))
    return out


# -- window projections -------------------------------------------------------


def test_full_shift_single_window(z4):
    g = full_shift(z4)
    assert g.window(0, 0).form.size() == 4


def test_zero_shift_window(z4):
    g = GroupShift.make(z4, [])
    assert g.window(2, 5).form.size() == 1


def test_far_window_has_three_contributors(z2):
    # generator supported on [0,1], window [5,6]: three contributing shifts
    g = make_shift("Z2", [(0, [1, 1])])
    module = g.window(5, 6)
    assert len(g.contributors(5, 6)) == 3
    assert module.form.size() <= 4
    # enumerate all sums of the contributing restrictions directly
    from conftest import brute_force_span
    span = brute_force_span(unpack_rows(module.packed, module.modulus, module.rank_width),
                            2, 2)
    assert set(enumerate_elements(module.form)) == span


#: Rank >= 2 alphabets, 2^e moduli, odd p^e moduli and composite (Barrett) ones.
ROW_GROUPS = ["Z2", "Z8", "Z4 x Z2", "Z2 x Z4 x Z8", "Z9", "Z27", "Z25", "Z3 x Z9",
              "Z6", "Z12", "Z2 x Z2 x Z3"]


@st.composite
def shift_windows(draw):
    """(shift, lo, hi): generators of support up to 5, windows from one
    position wide, at negative lo and cutting supports at either edge."""
    group = FiniteAbelianGroup.parse(draw(st.sampled_from(ROW_GROUPS)))
    symbol = st.tuples(*(st.integers(0, n - 1) for n in group.orders))
    gens = draw(st.lists(st.builds(lambda start, syms: Word.make(group, start, syms),
                                   st.integers(-4, 4), st.lists(symbol, min_size=1, max_size=5)),
                         min_size=1, max_size=3))
    lo = draw(st.integers(-8, 6))
    return GroupShift.make(group, gens), lo, lo + draw(st.integers(0, 7))


def reference_window_rows(shift, lo, hi):
    """Window rows built entry by entry, one restricted word per contributor."""
    return tuple(shift.placed(gi, t).window_vector(lo, hi)
                 for gi, t in shift.contributors(lo, hi))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shift_windows())
@example((make_shift("Z2 x Z2 x Z3", [(0, [(1, 0, 2), (0, 1, 1), (1, 1, 0), (0, 0, 1)])]),
          1, 2))
@example((make_shift("Z27", [(-2, [3, 1, 9]), (1, [2, 0, 0, 5])]), -3, -1))
def test_packed_window_rows_match_entrywise_rows(case):
    shift, lo, hi = case
    module = shift.window(lo, hi)
    assert unpack_rows(module.packed, module.modulus, module.rank_width) == \
        reference_window_rows(shift, lo, hi)


def test_shift_equivariance_of_projections():
    rng = random.Random(4)
    for _ in range(15):
        g = random_shift(rng)
        a = rng.randrange(-3, 3)
        b = a + rng.randrange(0, 4)
        first = g.window(a, b)
        second = g.window(a + 1, b + 1)
        assert first.form.rows == second.form.rows


# -- membership ---------------------------------------------------------------


def test_member_zero_and_generators(delay_rep):
    assert member(delay_rep, Word.zero(delay_rep.alphabet))
    for g in delay_rep.generators:
        for n in (-2, 0, 5):
            assert member(delay_rep, g.shifted(n))


def test_member_rejects_non_member(delay_rep):
    bad = impulse(delay_rep.alphabet, (1, 1))
    assert not member(delay_rep, bad)


def test_member_finite_sums_certified():
    rng = random.Random(9)
    for _ in range(10):
        g = random_shift(rng)
        w = Word.zero(g.alphabet)
        for _ in range(rng.randrange(1, 4)):
            gi = rng.randrange(len(g.generators))
            w = w + g.generators[gi].shifted(rng.randrange(-3, 4)).scaled(
                rng.randrange(1, g.alphabet.exponent + 1))
        assert member(g, w)


def test_member_monotone_in_margin():
    rng = random.Random(10)
    for _ in range(25):
        g = random_shift(rng)
        syms = [tuple(rng.randrange(n) for n in g.alphabet.orders)
                for _ in range(rng.randrange(1, 4))]
        w = Word.make(g.alphabet, rng.randrange(-2, 2), syms)
        verdicts = [padded_member(g, w, m) for m in range(5)]
        # a property of the padded reference: once certified-out, stays
        # certified-out at larger margins
        for earlier, later in zip(verdicts, verdicts[1:]):
            if not earlier:
                assert not later


def test_membership_needs_a_margin_past_the_memory():
    # the splice block of memory N is [0, N], N + 1 positions, so a padded
    # membership check needs a margin of at least N + 1: this certify-pool
    # shift has memory 3, and at margin 3 the padded check accepts a word
    # that no wider margin and no exact check does; the words certified at
    # a margin and supported at 0 differ from the exact ones at margin 3 and
    # equal them from margin 4 on
    shift = make_shift("Z4 x Z2 x Z2", [(0, [(3, 0, 1), (1, 0, 1), (0, 1, 0)]),
                                        (0, [(3, 0, 0), (0, 0, 1), (3, 0, 0)])])
    assert finite_type_memory(shift).memory == 3
    word = impulse(shift.alphabet, (1, 1, 0))
    exact = supported_words(shift, 1)
    assert padded_member(shift, word, 3)
    assert not member(shift, word)
    assert not padded_supported_words(shift, 0, 0, 3).spans_same(exact)
    for margin in (4, 6, 12, 30):
        assert padded_supported_words(shift, 0, 0, margin).spans_same(exact), margin
        assert not padded_member(shift, word, margin), margin


# -- the difference code is dense (its closure is the full shift) -------------


def test_difference_code_closure_is_full(z2):
    g = make_shift("Z2", [(0, [1, 1])])
    for t in range(4):
        assert g.window(0, t).form.size() == 2 ** (t + 1)
    assert member(g, impulse(z2, (1,)))


# -- finite type and splice ----------------------------------------------------


def test_finite_type_full_shift(z4):
    assert finite_type_memory(full_shift(z4)).memory == 1


def test_finite_type_examples(delay_rep):
    assert finite_type_memory(delay_rep).memory == 1
    diff = make_shift("Z2", [(0, [1, 1])])
    assert finite_type_memory(diff).memory == 1


def test_splice_trivial_and_truncation(delay_rep):
    g = delay_rep.generators[0]
    x1 = g + g.shifted(-2)
    assert splice(delay_rep, x1, x1, 0, 1) == x1
    # steering to zero: x1 vanishes on [5, 6], so splicing with zero there
    # keeps the past of x1 and nothing after
    out = splice(delay_rep, x1, Word.zero(delay_rep.alphabet), 5, 1)
    assert out == x1
    # gluing where the block is inside the supports
    x2 = g.shifted(-2)
    assert agrees_on(x1, x2, 2, 3)
    glued = splice(delay_rep, x1, x2, 2, 1)
    assert member(delay_rep, glued)
    assert agrees_on(glued, x1, -5, 3) and agrees_on(glued, x2, 2, 10)


def test_splice_disagreement_rejected(delay_rep):
    g = delay_rep.generators[0]
    with pytest.raises(ValueError):
        splice(delay_rep, g, g.shifted(1), 0, 1)


def test_splice_rejects_a_glue_outside_the_shift():
    # a delay of 6 positions has memory 5: glued on a block of 2 positions
    # at k = 2, the generator's head is kept without its tail, which is no
    # member; past the generator's support the glue is the generator itself
    s = make_shift("Z2 x Z2", [(0, [(1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 1)])])
    assert finite_type_memory(s).memory == 5
    g, zero = s.generators[0], Word.zero(s.alphabet)
    with pytest.raises(SpliceFailed, match="not in the shift: no splice at N=1"):
        splice(s, g, zero, 2, 1)
    assert splice(s, g, zero, 7, 1) == g


# -- supported word modules ----------------------------------------------------


def test_supported_words_delay_rep(delay_rep):
    sw = supported_words(delay_rep, 2)
    assert [w.format() for w in form_words(delay_rep, sw)] == ["@0: (1,0) (0,1)"]
    assert not supported_words(delay_rep, 1).packed


def test_supported_words_are_members():
    rng = random.Random(12)
    for _ in range(10):
        g = random_shift(rng)
        sw = supported_words(g, 4)
        for w in form_words(g, sw):
            assert member(g, w)
            assert w.is_zero or (w.first >= 0 and w.last <= 3)


def test_supported_words_torsion():
    g = make_shift("Z4", [(0, [1, 2])])
    sw = form_words(g, supported_words(g, 3, torsion_scale=2))
    assert sw
    for w in sw:
        assert w.scaled(2).is_zero


def three_step_projection(module, keep_lo, keep_hi, zero_positions=(),
                          kill_scale=None, kill_positions=None):
    """Reference constrained projection: the coefficient kernel of the
    condition map, the module rows it combines, then a Howell form of their
    restriction to [keep_lo, keep_hi]."""
    m, r = module.modulus, module.shift.alphabet.rank

    def cols(positions):
        return [(pos - module.lo) * r + j for pos in positions for j in range(r)]

    if kill_positions is None:
        kill_positions = range(module.lo, module.hi + 1)
    zero_cols = cols(zero_positions)
    kill_cols = cols(kill_positions) if kill_scale is not None else []
    rows = unpack_rows(module.packed, m, module.rank_width)
    if zero_cols or kill_cols:
        cond = [[row[c] for c in zero_cols] +
                [(kill_scale * row[c]) % m for c in kill_cols] for row in rows]
        rows = [tuple_combine_rows(coeffs, rows, m, module.rank_width)
                for coeffs in row_solver(cond, m).kernel.rows]
    a = (keep_lo - module.lo) * r
    b = (keep_hi - module.lo + 1) * r
    return howell_form([row[a:b] for row in rows], m, b - a)


P_GROUPS = ["Z2", "Z4", "Z8", "Z2 x Z4", "Z3", "Z9", "Z3 x Z9"]
MIXED_GROUPS = ["Z6", "Z2 x Z3", "Z12", "Z2 x Z6"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(P_GROUPS + MIXED_GROUPS), st.randoms(use_true_random=False))
def test_constrained_projection_matches_three_step_reference(group, rng):
    g = random_shift(rng, max_gens=2, max_support=3, pool=[group])
    lo = rng.randrange(-2, 1)
    hi = lo + rng.randrange(0, 4)
    module = g.window(lo, hi)
    window = list(range(lo, hi + 1))
    keep_lo = rng.choice(window)
    keep_hi = rng.randrange(keep_lo, hi + 1)
    zero_positions = [pos for pos in window if rng.random() < 0.4]
    kill_scale = rng.choice([None, rng.randrange(2, module.modulus + 1)])
    kill_positions = rng.choice(
        [None, [pos for pos in window if rng.random() < 0.5]])
    args = (keep_lo, keep_hi, zero_positions, kill_scale, kill_positions)
    assert module.constrained_projection(*args) == three_step_projection(module, *args)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(P_GROUPS + MIXED_GROUPS), st.randoms(use_true_random=True))
def test_divisible_matches_the_padded_lift(group, rng):
    # exact divisibility is the padded lift at a pad past every y that the
    # draws reach, on each primary component: the multiples x = p^h * y of
    # sums y of two placed certified words with random coefficients, often
    # narrower than y, and x plus a certified word, often no multiple; every
    # yes is lifted at that pad, to a certified y.  Where the component is
    # order controllable, the cut at its index n_o puts a lift within pad
    # n_o whenever x is divisible, which `canonical_generators` relies on
    shift = random_shift(rng, max_gens=3, max_support=4, pool=[group])
    for p in shift.alphabet.primes():
        part = primary_shift(shift, p)
        e, m = part.exponent_exponent(p), part.alphabet.modulus
        pad = 4 * part.span + 12
        n_o = order_controllability_index(part, 16).index
        words = form_words(part, supported_words(part, rng.randrange(1, 6)))
        for _ in range(12 if words and e > 1 else 0):
            y = Word.combine(part.alphabet, [(rng.randrange(m), rng.choice(words),
                                              rng.randrange(3)) for _ in range(2)])
            z = rng.choice([Word.zero(part.alphabet), rng.choice(words)])
            x = y.scaled(p ** rng.randrange(1, e)) + z
            if x.is_zero:
                continue
            event("multiple plus a word" if not z.is_zero else "multiple of a wider y"
                  if y.support_length > x.support_length else "multiple")
            for h in range(1, e):
                lift = lift_height(part, x, p, h, pad)
                assert divisible(part, x, p, h) == (lift is not None), (part, x, h)
                if n_o is not None:
                    assert (lift_height(part, x, p, h, n_o) is None) == (lift is None), \
                        (part, x, h, n_o)
                    if n_o and lift is not None and lift_height(part, x, p, h, n_o - 1) is None:
                        event("lift needs the whole pad n_o")
                if lift is None:
                    event("no multiple at some height")
                else:
                    assert lift.scaled(p ** h) == x and member(part, lift)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(P_GROUPS + MIXED_GROUPS), st.randoms(use_true_random=False))
def test_supported_words_match_the_padded_reference(group, rng):
    # the padded form is exact at a margin past the memory: at the verified
    # memory + 1, and at max(3s + 6, 12), past every memory these draws
    # reach; the words on [lo, hi] are those of its width at 0, as G is
    # shift-invariant, and each narrower window [0, t] is the widest form's
    # zero_prefix, its rows with pivot past the first width-1-t positions
    g = random_shift(rng, max_gens=2, max_support=3, pool=[group])
    lo = rng.randrange(-2, 2)
    hi = lo + rng.randrange(0, 5)
    width, r = hi - lo + 1, g.alphabet.rank
    for scale in [None, *g.alphabet.primes()]:
        exact = supported_words(g, width, torsion_scale=scale)
        for margin in exact_margins(g):
            assert exact == padded_supported_words(g, lo, hi, margin, scale), \
                (scale, margin)
        for t in range(width - 1):
            narrow = exact.zero_prefix((width - 1 - t) * r)
            own = supported_words(g, t + 1, torsion_scale=scale)
            assert (narrow.packed, narrow.pivots, narrow.ncols) == \
                (own.packed, own.pivots, own.ncols), (scale, t)


def test_member_matches_the_padded_reference():
    # exact membership is the padded check at each margin past the memory,
    # and a member passes the padded check at the derived margin too; the
    # draws are sums of placed generators and random words, so that many
    # verdicts are negative
    negatives = []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(P_GROUPS + MIXED_GROUPS), st.randoms(use_true_random=False))
    def check(group, rng):
        g = random_shift(rng, max_gens=2, max_support=3, pool=[group])
        words = [Word.zero(g.alphabet)]
        for _ in range(rng.randrange(1, 3)):
            words[0] += rng.choice(g.generators).shifted(rng.randrange(-2, 2)).scaled(
                rng.randrange(1, g.alphabet.exponent + 1))
        for _ in range(2):
            syms = [tuple(rng.randrange(n) for n in g.alphabet.orders)
                    for _ in range(rng.randrange(1, 6))]
            words.append(Word.make(g.alphabet, rng.randrange(-2, 2), syms))
        default = Horizons.derive(g).margin
        for w in words:
            verdict = member(g, w)
            negatives.extend([w] * (not verdict))
            for margin in exact_margins(g):
                assert verdict == padded_member(g, w, margin), (g, w, margin)
            assert not verdict or padded_member(g, w, default), (g, w)

    check()
    assert len(negatives) >= 100, len(negatives)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(P_GROUPS + MIXED_GROUPS), st.randoms(use_true_random=False))
def test_torsion_windows_and_initial_values_match_the_padded_reference(group, rng):
    # on each primary component, composite alphabets through theirs: every
    # window [0, t], t <= H, of the exact p-torsion form that
    # `torsion_presentation` returns is the padded p-torsion projection, at
    # each margin past the memory; where n_o exists, the initial-value rank
    # that `canonical_generators` reads off the certified p-torsion words on
    # [0, max(cap, n_o + 1) - 1], at support caps below, at and above
    # n_o + 1, is the padded one, the canonical set has that many entries,
    # and only a cap <= n_o can leave the picks short of it
    g = random_shift(rng, max_gens=2, max_support=3, pool=[group])
    for p in g.alphabet.primes():
        part = primary_shift(g, p)
        horizons = Horizons.derive(part, window_horizon=rng.randrange(0, 6))
        torsion, r = torsion_presentation(part, p, horizons)[1], part.alphabet.rank
        n_o = order_controllability_index(part, horizons.n_cap).index
        caps = [] if n_o is None else \
            sorted({1, n_o, n_o + 1, n_o + 2, horizons.support_cap} - {0})
        ranks = {cap: supported_words(part, max(cap, n_o + 1), torsion_scale=p).prefix(r).rank
                 for cap in caps}
        for margin in exact_margins(part):
            for t in range(horizons.window_horizon + 1):
                assert torsion.prefix((t + 1) * r).spans_same(
                    torsion_window_projection(part, 0, t, margin, p)), (p, margin, t)
            want = padded_initial_value_space(part, p, margin, horizons.support_cap)
            assert all(rank == want for rank in ranks.values()), (p, margin, ranks, want)
        for cap in caps:
            try:
                got = canonical_generators(part, p, Horizons.derive(part, support_cap=cap))
            except PipelineFailure as exc:
                if exc.stage in ("initial-basis", "basis-completion"):
                    assert cap <= n_o and f" of {ranks[cap]} directions" in exc.detail, \
                        (p, cap, n_o, exc.detail)
            else:
                assert got.socle_rank == ranks[cap], (p, cap, n_o)


def two_form_splice_property(shift, n, reach):
    """Reference: the right projections of the block-vanishing submodule with
    and without the left half zeroed, built as two canonical forms."""
    module = shift.window(-reach, n + reach)
    lhs = module.constrained_projection(n + 1, n + reach, zero_positions=range(0, n + 1))
    rhs = module.constrained_projection(n + 1, n + reach,
                                        zero_positions=range(-reach, n + 1))
    return lhs.spans_same(rhs)


def delay_shift(group, head, tail, k):
    """The tail symbol echoes the head k steps later: over Z2 x Z2 the
    second coordinate echoes the first, of memory max(k - 1, 1), as the
    splice block [0, N] holds N + 1 positions."""
    return make_shift(group, [(0, [head] + [(0,) * len(head)] * (k - 1) + [tail])])


def full_scan_memory(shift, cap, top):
    """The least N <= cap with the splice property at every reach 1..top, on
    the full window."""
    return next((n for n in range(1, cap + 1)
                 if all(splice_property_holds(shift, n, reach)
                        for reach in range(1, top + 1))), None)


def test_splice_property_matches_two_form_reference():
    # the boundary verdict at scale 1, which keeps the left side, the
    # full-window reference and the two-form reference, which keep the right
    # one, agree at reaches R..R+3, R the fixed reach; p-group and mixed
    # alphabets, spans <= 1 and delay shifts of memory 1..5; both verdicts
    # must occur, and the unbounded scan's memory M must equal the full
    # scan's up to M over the reaches 1..R+3: M holds there and no N < M
    # does, with the memories 1..5 all met
    rng = random.Random(41)
    cases = [random_shift(rng, max_gens=2, max_support=4, pool=[group])
             for group in P_GROUPS + MIXED_GROUPS for _ in range(6)]
    cases += [make_shift("Z4", [(0, [2])]), make_shift("Z2 x Z3", [(1, [(1, 2)]), (-1, [(0, 1)])]),
              GroupShift.make(FiniteAbelianGroup.parse("Z2"), [])]
    cases += [delay_shift(*echo, k) for echo in (("Z2 x Z2", (1, 0), (0, 1)),
                                                 ("Z2 x Z2 x Z3", (1, 0, 1), (0, 1, 0)))
              for k in range(1, 7)]
    cases.append(make_shift("Z4 x Z2 x Z2", [(1, [(1, 0, 1), (0, 0, 0), (3, 1, 0)]),
                                             (0, [(0, 1, 0), (0, 0, 1), (2, 1, 0), (1, 1, 0)])]))
    verdicts, memories = set(), set()
    for g in cases:
        fixed = _fixed_reach(g)
        for n in range(1, 4):
            got = _boundary_heads(g, n + 1, 1)[2]
            for reach in range(fixed, fixed + 4):
                assert got == splice_property_holds(g, n, reach) == \
                    two_form_splice_property(g, n, reach), (g, n, reach)
            verdicts.add(got)
        memory = finite_type_memory(g).memory
        assert memory == full_scan_memory(g, memory, fixed + 3), g
        memories.add(memory)
    assert verdicts == {True, False}
    assert memories == {1, 2, 3, 4, 5}


SPLICE_SHIFTS = st.one_of(
    st.builds(lambda group, rng, gens, support: random_shift(rng, gens, support, [group]),
              st.sampled_from(P_GROUPS + MIXED_GROUPS), st.randoms(use_true_random=False),
              st.integers(1, 3), st.integers(1, 8)),
    st.builds(lambda echo, k: delay_shift(*echo, k),
              st.sampled_from([("Z2 x Z2", (1, 0), (0, 1)), ("Z4 x Z9", (1, 0), (0, 1)),
                               ("Z2 x Z2 x Z3", (1, 0, 1), (0, 1, 0))]),
              st.integers(1, 10)))


@settings(max_examples=300, deadline=None)
@given(SPLICE_SHIFTS)
@example(delay_shift("Z2 x Z2", (1, 0), (0, 1), 10))
@example(delay_shift("Z2 x Z2 x Z3", (1, 0, 1), (0, 1, 0), 10))
@example(make_shift("Z2 x Z3", [(1, [(1, 2)]), (-1, [(0, 1)])]))
@example(make_shift("Z4", [(0, [2])]))
@example(GroupShift.make(FiniteAbelianGroup.parse("Z6"), []))
def test_unbounded_scan_memory_is_least_full_window_splice(shift):
    # the scan has no cap: its memory M splices on the full window at the
    # fixed reach R, the verdict at every reach, and M - 1 does not; p-group
    # and mixed alphabets, 1-3 generators of support up to 8, spans <= 1,
    # and delay shifts up to memory 9, above the old default cap of 8
    memory, reach = finite_type_memory(shift).memory, _fixed_reach(shift)
    event(f"memory {memory}")
    assert splice_property_holds(shift, memory, reach), shift
    assert memory == 1 or not splice_property_holds(shift, memory - 1, reach), shift


# -- oracle vs module enumeration ----------------------------------------------


def test_window_code_oracle_agrees_with_canonical_path():
    rng = random.Random(13)
    for _ in range(12):
        g = random_shift(rng)
        lo = rng.randrange(-2, 1)
        hi = lo + rng.randrange(0, 3)
        if g.alphabet.order ** (hi - lo + 1) > 1 << 14:
            continue
        oracle = set(enumerate_window_code(g, lo, hi))
        assert oracle == window_code_as_set(g, lo, hi)


def set_closure_window_code(shift, lo, hi):
    """Reference oracle: add order(g) multiples of each contributor g to
    every element built so far."""
    group = shift.alphabet
    width = hi - lo + 1
    elements = {tuple([0] * (width * group.rank))}
    for gi, t in shift.contributors(lo, hi):
        placed = shift.placed(gi, t)
        flat = []
        for i in range(lo, hi + 1):
            flat.extend(placed.value_at(i))
        order = restricted(placed, lo, hi).order()
        new = set()
        for base in elements:
            cur = list(base)
            for _ in range(order):
                new.add(tuple(cur))
                cur = [(a + b) % n for a, b, n in zip(cur, flat, group.orders * width)]
        elements = new
    return tuple(sorted(elements))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(-2, 0), st.integers(0, 2))
def test_coset_closure_matches_set_closure(rng, lo, extra):
    shift = random_shift(rng, max_gens=3)
    hi = lo + extra
    if shift.alphabet.order ** (extra + 1) > 1 << 12:
        return
    ref = set_closure_window_code(shift, lo, hi)
    assert enumerate_window_code(shift, lo, hi) == ref
    # the cap bounds the final code size, as it bounded the set closure's
    assert enumerate_window_code(shift, lo, hi, cap=len(ref)) == ref
    with pytest.raises(EnumerationCapExceeded):
        enumerate_window_code(shift, lo, hi, cap=len(ref) - 1)
