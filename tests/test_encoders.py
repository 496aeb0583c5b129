import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from groupshift import control
from groupshift.control import order_controllability_index, socle_controllability
from groupshift.encoders import (Encoder, Horizons, PipelineFailure, build_encoder,
                                 canonical_generators, check_injectivity,
                                 check_noncatastrophic, conjugacy_certificate,
                                 encode, lift_height, multiple_shift,
                                 presentation_encoder, primary_certificate,
                                 primary_shift, socle_shift,
                                 scaled_finite_words_check,
                                 solve_finite_preimage)
from groupshift.groups import FiniteAbelianGroup, _prime_power_factors
from groupshift.residues import howell_form, row_solver
from groupshift.shifts import (GroupShift, member, enumerate_window_code,
                              finite_type_memory, supported_words, torsion_presentation)
from groupshift.specfmt import parse_spec
from groupshift.words import Word

from conftest import (_image_window_checks, _message_invariant_checks, base_decompose,
                      divisible, enumerate_elements, form_words, full_shift, impulse,
                      is_torsion, make_shift, padded_member, padded_word_height,
                      per_t_noncatastrophic, random_message, random_shift, restricted,
                      slack_noncatastrophic, translated_slack)


# -- derived shifts -----------------------------------------------------------


def test_multiple_shift_examples(z4):
    g = full_shift(z4)
    assert multiple_shift(g, 2, 0) is g
    scaled = multiple_shift(g, 2, 1)
    assert [w.format() for w in scaled.generators] == ["@0: 2"]
    z8 = FiniteAbelianGroup.parse("Z8")
    g8 = make_shift("Z8", [(0, [1, 2])])
    assert [w.format() for w in multiple_shift(g8, 2, 1).generators] == ["@0: 2 4"]
    with pytest.raises(ValueError):
        multiple_shift(g, 2, 2)  # p^r must stay below exp(H)


def test_scaled_finite_words_lemma():
    for shift in [full_shift(FiniteAbelianGroup.parse("Z8")),
                  make_shift("Z8", [(0, [1, 2])]),
                  make_shift("Z4", [(0, [1, 2])]),
                  make_shift("Z2 x Z4", [(0, [(1, 1), (0, 2)])])]:
        horizons = Horizons.derive(shift)
        e = shift.exponent_exponent(2)
        for r in range(1, e):
            ok, detail = scaled_finite_words_check(shift, 2, r, horizons)
            assert ok, detail


def test_socle_shift_examples(z4):
    g = full_shift(z4)
    socle = socle_shift(g, 2)
    # the torsion subshift of the full Z4 shift is the full shift over 2Z4
    assert socle.window(0, 2).form.size() == 8
    for w in socle.generators:
        assert w.scaled(2).is_zero
    # exp(H) = p keeps the shift itself
    z2 = FiniteAbelianGroup.parse("Z2")
    d = full_shift(z2)
    assert socle_shift(d, 2).window(0, 1).form.spans_same(d.window(0, 1).form)
    with pytest.raises(ValueError):
        socle_shift(g, 3)


def test_socle_of_two_symbol_code():
    t = make_shift("Z4", [(0, [1, 1])])
    socle = socle_shift(t, 2)
    expected = make_shift("Z4", [(0, [2])])
    for reach in range(3):
        assert socle.window(0, reach).form.spans_same(
            expected.window(0, reach).form)


# -- lifting and heights --------------------------------------------------------


def test_lift_height_trivial_and_basic(z4):
    g = full_shift(z4)
    x = impulse(z4, (2,))
    assert lift_height(g, x, 2, 0, 2) == x
    y = lift_height(g, x, 2, 1, 2)
    assert y == impulse(z4, (1,))
    # inside the (1,1)-generated code, (2,2) divides back to (1,1)
    t = make_shift("Z4", [(0, [1, 1])])
    x2 = Word.make(t.alphabet, 0, [(2,), (2,)])
    y2 = lift_height(t, x2, 2, 1, 2)
    assert y2 is not None and y2.scaled(2) == x2
    assert member(t, y2)


def test_divisible():
    g8 = full_shift(FiniteAbelianGroup.parse("Z8"))
    assert [divisible(g8, impulse(g8.alphabet, (4,)), 2, h) for h in (1, 2)] == [True, True]
    assert [divisible(g8, impulse(g8.alphabet, (2,)), 2, h) for h in (1, 2)] == [True, False]
    assert not divisible(g8, impulse(g8.alphabet, (1,)), 2, 1)
    assert divisible(g8, impulse(g8.alphabet, (6,), 5), 2, 1)
    # heights are read in G, not in the alphabet: in the shift 2 * Z8^Z, 4 is
    # 2 * 2 but not 4 * y for any y in it
    twice = make_shift("Z8", [(0, [2])])
    assert [divisible(twice, impulse(twice.alphabet, (4,)), 2, h) for h in (1, 2)] == \
        [True, False]


# -- canonical generating sets ---------------------------------------------------


def test_full_shift_prime_power_sets():
    for name, m, heights in [("Z2", 1, (0,)), ("Z4", 1, (1,)), ("Z8", 1, (2,)),
                             ("Z2 x Z4", 2, (1, 0))]:
        g = full_shift(FiniteAbelianGroup.parse(name))
        gs = canonical_generators(g, 2)
        assert len(gs.entries) == m
        assert gs.heights == heights
        for e in gs.entries:
            assert e.tap.support_length == 1
            assert e.torsion_word == e.tap.scaled(2 ** e.height)


def test_exponent_p_case_minimal_supports(delay_rep):
    gs = canonical_generators(delay_rep, 2)
    assert gs.heights == (0,)
    assert gs.entries[0].tap == delay_rep.generators[0]
    # support lengths are nondecreasing by construction
    lens = [e.torsion_word.support_length for e in gs.entries]
    assert lens == sorted(lens)


def test_unit_leading_code_reduces_to_impulse():
    # the closure of the (1,2)-generated code is the whole full shift, and
    # the minimal-support machinery discovers the impulse tap
    t = make_shift("Z4", [(0, [1, 2])])
    gs = canonical_generators(t, 2)
    assert gs.heights == (1,)
    assert gs.entries[0].tap.format() == "@0: 1"


def test_difference_presentation_yields_impulse():
    # the (1,1)-generated code over Z2 presents the full shift, so the
    # minimal-support canonical generator is the unit impulse
    g = make_shift("Z2", [(0, [1, 1])])
    gs = canonical_generators(g, 2)
    assert [e.tap.format() for e in gs.entries] == ["@0: 1"]


def test_initial_basis_spans_every_one_sided_torsion_word():
    # any further certified torsion word starting at 0 has its initial
    # symbol inside the span of the selected basis symbols
    for shift in [full_shift(FiniteAbelianGroup.parse("Z2 x Z4")),
                  make_shift("Z2 x Z2", [(0, [(1, 0), (0, 1)])]),
                  make_shift("Z4", [(0, [1, 2])])]:
        gs = canonical_generators(shift, 2)
        h = shift.alphabet
        basis = [e.torsion_word.window_vector(0, 0) for e in gs.entries]
        # scaled p-torsion symbols: the Howell form is their F_p span
        span = howell_form(basis, h.exponent, h.rank)
        assert span.rank == len(basis)
        cands = supported_words(shift, gs.horizons.support_cap, torsion_scale=2)
        for vec in enumerate_elements(cands):
            w = Word.from_window_vector(h, 0, vec)
            if w.is_zero or w.first != 0:
                continue
            assert span.contains(w.window_vector(0, 0))


def torsion_coords_to_fp(group, a, p):
    """F_p coordinates of a p-torsion element: the per-factor map the
    pipeline used before it read them off scaled entries."""
    out = []
    for x, (q, e) in zip(a, group.factors):
        if q != p:
            assert x == 0, "element is not p-torsion"
            out.append(0)
            continue
        step = q ** (e - 1)
        assert x % step == 0, "element is not p-torsion"
        out.append((x // step) % p)
    return tuple(out)


@pytest.mark.parametrize("name", ["Z2", "Z4", "Z8", "Z9", "Z2 x Z4", "Z3 x Z9",
                                  "Z2 x Z2 x Z4", "Z6", "Z2 x Z3", "Z4 x Z3",
                                  "Z2 x Z9"])
def test_scaled_torsion_entries_divide_to_fp_coordinates(name):
    # every p-torsion element of the alphabet, for every prime: a scaled
    # entry x over Z/m is k * (m // p) with k the F_p coordinate
    group = FiniteAbelianGroup.parse(name)
    m = group.exponent
    for p in group.primes():
        steps = [n // p if n % p == 0 else n for n in group.orders]
        for a in itertools.product(*(range(0, n, s) for n, s in zip(group.orders, steps))):
            scaled = group.coords_to_scaled(a)
            assert tuple(x // (m // p) for x in scaled) == torsion_coords_to_fp(group, a, p)


def test_mixed_alphabet_rejected():
    g = full_shift(FiniteAbelianGroup.parse("Z6"))
    with pytest.raises(ValueError):
        canonical_generators(g, 2)


def test_zero_shift_empty_set(z4):
    gs = canonical_generators(GroupShift.make(z4, []), 2)
    assert gs.entries == () and gs.socle_rank == 0


# -- encoders -------------------------------------------------------------------


def build_for(shift, p=2):
    return build_encoder(canonical_generators(shift, p))


def test_encode_examples(z4):
    enc = build_for(full_shift(z4))
    assert encode(enc, Word.zero(enc.source)).is_zero
    coords = [1] + [0] * (enc.source.rank - 1)
    assert encode(enc, impulse(enc.source, coords)) == enc.taps[0]
    m1 = impulse(enc.source, coords, 0)
    m2 = impulse(enc.source, [2 * c for c in coords], 3)
    assert encode(enc, m1 + m2) == encode(enc, m1) + encode(enc, m2)


def test_encode_windowed(delay_rep):
    enc = build_for(delay_rep)
    coords = [1] + [0] * (enc.source.rank - 1)
    msg = impulse(enc.source, coords, 0) + impulse(enc.source, coords, 4)
    full = encode(enc, msg)
    clipped = encode(enc, msg, window=(0, 2))
    assert clipped == restricted(full, 0, 2)


def test_encode_rejects_wrong_source(z4):
    enc = build_for(full_shift(z4))
    with pytest.raises(ValueError):
        encode(enc, impulse(FiniteAbelianGroup.parse("Z2"), (1,)))


def test_homomorphism_and_equivariance_random():
    rng = random.Random(31)
    for shift in [full_shift(FiniteAbelianGroup.parse("Z8")),
                  make_shift("Z2 x Z2", [(0, [(1, 0), (0, 1)])]),
                  make_shift("Z4", [(0, [1, 1])])]:
        enc = build_for(shift)
        for _ in range(60):
            a = random_message(enc, rng, 3)
            b = random_message(enc, rng, 3)
            assert encode(enc, a + b) == encode(enc, a) + encode(enc, b)
            assert encode(enc, a.shifted(1)) == encode(enc, a).shifted(1)
        for j, h in enumerate(enc.heights):
            unit = [int(i == j) for i in range(enc.source.rank)]
            image = encode(enc, impulse(enc.source, unit))
            assert (2 ** (h + 1)) % image.order() == 0


# -- exact encoder invariants against the sampled reference ------------------------


def sampled_invariants(encoder, p, pairs):
    """Reference for the exact encoder invariants: homomorphism and
    shift-equivariance sampled on the given message pairs, and the order
    bound read off the encoded impulses."""
    hom = equi = True
    for m1, m2 in pairs:
        if encode(encoder, m1 + m2) != encode(encoder, m1) + encode(encoder, m2):
            hom = False
        if encode(encoder, m1.shifted(1)) != encode(encoder, m1).shifted(1):
            equi = False
    order_ok = True
    for j, h in enumerate(encoder.heights):
        unit = [int(i == j) for i in range(encoder.source.rank)]
        image = encode(encoder, impulse(encoder.source, unit))
        if image.order() > p ** (h + 1) or (p ** (h + 1)) % image.order():
            order_ok = False
    return {"homomorphism": hom, "shift-equivariance": equi,
            "order-bounds": order_ok}


def random_pairs(encoder, trials=64, seed=0):
    """`trials` pairs of random messages at reach 3, drawn from `seed`."""
    rng = random.Random(seed)
    return [(random_message(encoder, rng, 3), random_message(encoder, rng, 3))
            for _ in range(trials)]


def exact_invariants(encoder):
    checks = _message_invariant_checks(encoder)
    assert [c.name for c in checks] == ["homomorphism", "shift-equivariance",
                                        "order-bounds"]
    return {c.name: c.passed for c in checks}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["Z2", "Z4", "Z8", "Z9", "Z2 x Z4"]),
       st.randoms(use_true_random=False), st.integers(0, 3))
def test_exact_invariants_match_sampled_reference(name, rng, seed):
    # single-prime encoders with random taps and heights 0..e-1, so some
    # source factors are too small for their taps
    group = FiniteAbelianGroup.parse(name)
    (p,) = group.primes()
    e = max(k for _, k in group.factors)
    count = rng.randrange(1, 4)
    taps = tuple(Word.make(group, rng.randrange(-1, 2),
                           [tuple(rng.randrange(n) for n in group.orders)
                            for _ in range(rng.randrange(1, 4))])
                 for _ in range(count))
    heights = tuple(rng.randrange(e) for _ in range(count))
    source = FiniteAbelianGroup(tuple((p, h + 1) for h in heights))
    enc = Encoder(group, source, taps, heights, (p,) * count)
    exact = exact_invariants(enc)
    reference = sampled_invariants(enc, p, random_pairs(enc, seed=seed))
    assert exact["shift-equivariance"] and reference["shift-equivariance"]
    assert exact["order-bounds"] == reference["order-bounds"]
    assert exact["homomorphism"] == exact["order-bounds"]
    if exact["homomorphism"]:
        assert reference["homomorphism"]
    # the carry pair (p^(h_j+1) - 1) * e_j, e_j fails exactly at the taps
    # that break the order bound
    for j, (tap, h) in enumerate(zip(taps, heights)):
        unit = impulse(enc.source, [int(i == j) for i in range(count)])
        carry = (unit.scaled(p ** (h + 1) - 1), unit)
        assert sampled_invariants(enc, p, [carry])["homomorphism"] == \
            tap.scaled(p ** (h + 1)).is_zero


def test_broken_encoder_fails_homomorphism_and_order_bounds(z4):
    # a tap of order 4 behind a Z2 coordinate: 1 + 1 = 0 in the source, but
    # the two taps sum to 2 in the shift
    enc = Encoder(z4, FiniteAbelianGroup.parse("Z2"), (Word.make(z4, 0, [(1,)]),),
                  (0,), (2,))
    verdicts = {"homomorphism": False, "shift-equivariance": True,
                "order-bounds": False}
    assert exact_invariants(enc) == verdicts
    assert sampled_invariants(enc, 2, random_pairs(enc)) == verdicts


# -- injectivity ----------------------------------------------------------------


def test_injectivity_full_shift(z4):
    enc = build_for(full_shift(z4))
    rep = check_injectivity(enc, 4)
    assert rep.block == 0


def test_injectivity_difference_encoder_never(z2):
    diff_tap = Word.make(z2, 0, [(1,), (1,)])
    enc = Encoder(z2, FiniteAbelianGroup(((2, 1),)), (diff_tap,), (0,), (2,))
    rep = check_injectivity(enc, 6)
    assert rep.block is None
    assert rep.dependent_combination  # the telescoping relation is reported


def test_injectivity_duplicate_taps_never(z2):
    tap = impulse(z2, (1,))
    enc = Encoder(z2, FiniteAbelianGroup(((2, 1), (2, 1))), (tap, tap),
                  (0, 0), (2, 2))
    assert check_injectivity(enc, 5).block is None


def test_injectivity_delay_rep(delay_rep):
    enc = build_for(delay_rep)
    rep = check_injectivity(enc, 4)
    assert rep.block is not None


def reference_injectivity(encoder, block_cap):
    """(block, witness) with F_p rows built symbol by symbol from clipped
    words, as check_injectivity did before it divided scaled entries."""
    p, group = encoder.tap_primes[0], encoder.alphabet
    witness = None
    for n in range(block_cap + 1):
        vectors, labels = [], []
        for j, x in enumerate(encoder.torsion_words()):
            for t in ([] if x.is_zero else range(-x.last, n - x.first + 1)):
                clipped = restricted(x.shifted(-t), 0, n)
                if not clipped.is_zero:
                    vectors.append(tuple(c for i in range(n + 1) for c in
                                         torsion_coords_to_fp(group, clipped.value_at(i), p)))
                    labels.append((j, t))
        solver = row_solver(vectors, p)
        if solver.form.rank == len(vectors):
            return n, None
        witness = tuple((labels[i][0], labels[i][1], c)
                        for i, c in enumerate(solver.kernel.rows[0]) if c)
    return None, witness


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["Z4", "Z9", "Z2 x Z4", "Z6", "Z2 x Z3", "Z4 x Z3", "Z2 x Z9"]),
       st.randoms(use_true_random=False))
def test_injectivity_matches_symbolwise_reference(name, rng):
    # presentation encoders, as --check-presentation audits them: taps of
    # p-power order, over p-group and mixed alphabets
    group = FiniteAbelianGroup.parse(name)
    p = rng.choice(group.primes())
    taps = [Word.make(group, rng.randrange(-1, 2),
                      [tuple(rng.randrange(n) if q == p else 0 for q, n in
                             zip((q for q, _ in group.factors), group.orders))
                       for _ in range(rng.randrange(1, 4))])
            for _ in range(rng.randrange(1, 4))]
    enc = presentation_encoder(GroupShift.make(group, taps))
    assume(enc.taps)
    rep = check_injectivity(enc, 3)
    assert (rep.block, rep.dependent_combination) == reference_injectivity(enc, 3)


# -- noncatastrophicity -----------------------------------------------------------


def test_noncatastrophic_identity(z4):
    g = full_shift(z4)
    enc = build_for(g)
    rep = check_noncatastrophic(enc, g, horizon=3)
    assert rep.ok


def test_difference_encoder_catastrophic(z2):
    g = full_shift(z2)
    diff_tap = Word.make(z2, 0, [(1,), (1,)])
    enc = Encoder(z2, FiniteAbelianGroup(((2, 1),)), (diff_tap,), (0,), (2,))
    rep = check_noncatastrophic(enc, g, horizon=3)
    assert not rep.ok
    assert rep.witness is not None
    # the witness really has no finite preimage at a generous slack
    assert solve_finite_preimage(enc, rep.witness, 8) is None


def test_backward_direction_needs_no_message_slack():
    # 2 + 6x^2 + 5x^3 is 5x^3 times a unit of Z8[x, 1/x], so every finite
    # word has a finite preimage; the impulse needs message slack 8, past
    # memory + horizon + 1 at horizons 1 and 2, where an elimination at that
    # slack reports it as the witness
    z8 = FiniteAbelianGroup.parse("Z8")
    tap = Word.make(z8, -1, [(2,), (0,), (6,), (5,)])
    enc = Encoder(z8, FiniteAbelianGroup(((2, 3),)), (tap,), (2,), (2,))
    impulse8 = impulse(z8, (1,))
    assert solve_finite_preimage(enc, impulse8, 7) is None
    assert solve_finite_preimage(enc, impulse8, 8) is not None
    for horizon in (1, 2):
        assert slack_noncatastrophic(enc, full_shift(z8), horizon, 2,
                                     slack=enc.memory + horizon + 1) == (False, impulse8)
        assert check_noncatastrophic(enc, full_shift(z8), horizon).ok


def test_preimage_solver_roundtrip(delay_rep):
    enc = build_for(delay_rep)
    rng = random.Random(33)
    for _ in range(30):
        msg = random_message(enc, rng, 3)
        image = encode(enc, msg)
        got = solve_finite_preimage(enc, image, 6)
        assert got is not None and encode(enc, got) == image


def per_word_backward(encoder, shift, horizon):
    """Reference for the backward direction: each certified word on [0, t],
    t <= horizon, solved for alone at the translated slack; the first word
    with no finite preimage, else None."""
    slack = translated_slack(encoder, horizon)
    for t in range(horizon + 1):
        for w in form_words(shift, supported_words(shift, t + 1)):
            if solve_finite_preimage(encoder, w, slack) is None:
                return w
    return None


def sampled_forward(encoder, shift, margin, rng, trials=64):
    """Reference for the forward direction: the image of every unit impulse
    and of `trials` random messages at reach 3, each checked on its own
    padded window (`padded_member`); the first image that fails, else
    None."""
    src = encoder.source
    impulses = [impulse(src, [int(i == j) for i in range(src.rank)])
                for j in range(src.rank)]
    for msg in impulses + [random_message(encoder, rng, 3) for _ in range(trials)]:
        image = encode(encoder, msg)
        if not padded_member(shift, image, margin):
            return image
    return None


def tap_encoder(group, taps):
    """The encoder over single-prime taps with the least heights that keep
    the order bounds: Z/p^e behind a tap of order p^e (Z/p behind a zero
    tap)."""
    (p,) = group.primes()
    exps = [next(e for e in itertools.count(1) if p ** e >= tap.order()) for tap in taps]
    return Encoder(group, FiniteAbelianGroup(tuple((p, e) for e in exps)), tuple(taps),
                   tuple(e - 1 for e in exps), (p,) * len(taps))


P_GROUPS = ["Z2", "Z3", "Z4", "Z8", "Z9", "Z2 x Z2", "Z2 x Z4"]


def member_taps(shift, rng, count):
    """`count` random taps in the shift: integer combinations of placed
    generators, some of them zero."""
    m = max(shift.alphabet.exponent, 2)
    taps = []
    for _ in range(count):
        terms = [(rng.randrange(m) * rng.randrange(2), g, rng.randrange(-1, 2))
                 for g in shift.generators]
        taps.append(Word.combine(shift.alphabet, terms))
    return taps


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["synthesized", "presentation", "random"]),
       st.randoms(use_true_random=False), st.integers(0, 3))
def test_backward_direction_matches_per_word_reference(kind, rng, horizon):
    # one elimination per window against one preimage solve per certified
    # word: same verdict, same witness, and a witness with no finite preimage
    if kind == "presentation":
        # taps of one prime's order over p-group and mixed alphabets, as
        # --check-presentation audits them
        group = FiniteAbelianGroup.parse(rng.choice(P_GROUPS + ["Z6", "Z2 x Z3"]))
        p = rng.choice(group.primes())
        primes = [q for q, _ in group.factors]
        gens = [Word.make(group, rng.randrange(-1, 2),
                          [tuple(rng.randrange(n) if q == p else 0
                                 for q, n in zip(primes, group.orders))
                           for _ in range(rng.randrange(1, 4))])
                for _ in range(rng.randrange(1, 3))]
        shift = GroupShift.make(group, gens)
        assume(shift.generators)
        enc = presentation_encoder(shift)
    else:
        shift = random_shift(rng, pool=P_GROUPS)
        enc = None
        if kind == "synthesized":
            try:
                enc = build_for(shift, shift.alphabet.primes()[0])
            except PipelineFailure:  # not order-controllable: random taps
                kind = "random"
        if enc is None:
            enc = tap_encoder(shift.alphabet, member_taps(shift, rng, rng.randrange(1, 4)))
    assert all(member(shift, tap) for tap in enc.taps)
    rep = check_noncatastrophic(enc, shift, horizon=horizon)
    expected = per_word_backward(enc, shift, horizon)
    event(f"{kind} encoder, backward direction {'fails' if expected else 'holds'}")
    assert rep.ok == (expected is None)
    assert rep.witness == expected
    if not rep.ok:
        assert member(shift, rep.witness)
        assert solve_finite_preimage(enc, rep.witness,
                                     translated_slack(enc, horizon)) is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2), st.integers(1, 3))
def test_forward_direction_matches_sampled_reference(rng, extra, horizon):
    # taps of the shift plus, when one of 20 random words lies outside it,
    # that word; the sampled reference pads each image by a margin past the
    # verified memory, where the padded check is membership
    shift = random_shift(rng, pool=P_GROUPS)
    memory = finite_type_memory(shift).memory
    assume(memory <= 4)
    margin = memory + 1 + extra
    group = shift.alphabet
    outside = [w for w in (Word.make(group, rng.randrange(-1, 2),
                                     [tuple(rng.randrange(n) for n in group.orders)
                                      for _ in range(rng.randrange(1, 4))])
                           for _ in range(20))
               if not member(shift, w)][:1]
    taps = member_taps(shift, rng, rng.randrange(0, 3)) + outside
    rng.shuffle(taps)
    assume(taps)
    enc = tap_encoder(group, taps)
    rep = check_noncatastrophic(enc, shift, horizon=horizon)
    forward_ok = rep.ok or member(shift, rep.witness)
    sampled = sampled_forward(enc, shift, margin, rng)
    event(f"forward direction {'holds' if forward_ok else 'fails'}")
    assert forward_ok == (sampled is None)
    assert forward_ok == (not outside)
    if not forward_ok:
        assert rep.witness == next(tap for tap in taps
                                   if not member(shift, tap))


ROOT = Path(__file__).resolve().parent.parent


def noncatastrophicity_cases():
    """(label, encoder, shift, horizon, margin): criterion 7's difference
    encoder, the presentation encoders of the golden specs that
    `--check-presentation` audits, and the canonical and presentation
    encoders of every 4th `certify` pool entry with a recorded report."""
    z2 = FiniteAbelianGroup.parse("Z2")
    diff = Encoder(z2, FiniteAbelianGroup(((2, 1),)), (Word.make(z2, 0, [(1,), (1,)]),),
                   (0,), (2,))
    for horizon in range(5):
        yield "difference", diff, full_shift(z2), horizon, 2
    shifts = [(path.name, parse_spec(path.read_text()).shift)
              for path in sorted((ROOT / "tests" / "golden").glob("*.spec"))]
    pool = json.loads((ROOT / "perfbench" / "data" / "certify.json").read_text())["entries"]
    for e in [e for e in pool if e["ref"]["status"] == "ok"][::4]:
        group = FiniteAbelianGroup.parse(e["alphabet"])
        shifts.append((e["key"], GroupShift.make(
            group, [Word.make(group, start, syms) for start, syms in e["gens"]])))
    for label, shift in shifts:
        horizons = Horizons.derive(shift)
        try:
            audits = [(presentation_encoder(shift), shift)]
        except ValueError:  # a generator of composite order is no tap
            audits = []
        audits += [(pc.encoder, pc.shift)
                   for pc in conjugacy_certificate(shift, horizons).primaries if pc.encoder]
        for enc, target in audits:
            for horizon in sorted({horizons.window_horizon, 2, 4}):
                yield label, enc, target, horizon, horizons.margin


def test_noncatastrophicity_matches_the_slack_elimination():
    # boundary windows with whole-placement near-end states against the
    # elimination over every tap placed at -s..t+s, s = memory + horizon + 1
    negative = 0
    for label, enc, shift, horizon, margin in noncatastrophicity_cases():
        rep = check_noncatastrophic(enc, shift, horizon)
        assert (rep.ok, rep.witness) == slack_noncatastrophic(enc, shift, horizon, margin), \
            (label, horizon)
        assert (rep.ok, rep.witness) == per_t_noncatastrophic(enc, shift, horizon), \
            (label, horizon)
        negative += not rep.ok
    assert negative >= 10


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 4]), st.integers(1, 3))
def test_catastrophic_taps_match_the_slack_elimination(rng, horizon, margin):
    # taps of the shift, some of them differences w - w.shifted(-1), which
    # have no finite preimage for words such as w itself
    shift = random_shift(rng, pool=P_GROUPS)
    taps = [w - w.shifted(-1) if rng.randrange(2) else w
            for w in member_taps(shift, rng, rng.randrange(1, 4))]
    assume(any(not tap.is_zero for tap in taps))
    enc = tap_encoder(shift.alphabet, taps)
    rep = check_noncatastrophic(enc, shift, horizon)
    event(f"backward direction {'holds' if rep.ok else 'fails'}")
    assert (rep.ok, rep.witness) == slack_noncatastrophic(enc, shift, horizon, margin)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(0, 5))
def test_one_containment_pass_matches_the_per_t_loop(rng, horizon):
    # the presentation encoder of the primary parts of random member taps,
    # some of them differences w - w.shifted(-k), over p-group and mixed
    # alphabets: the witness, read off the failing rows of the words on
    # [0, H], is the per-t loop's first failing row at the least failing t
    shift = random_shift(rng, pool=P_GROUPS + ["Z6", "Z12", "Z2 x Z3", "Z4 x Z3"])
    m = shift.alphabet.modulus
    parts = [w.scaled(m // p ** e) for w in member_taps(shift, rng, rng.randrange(1, 4))
             for p, e in _prime_power_factors(m)]
    taps = [w - w.shifted(-rng.randrange(1, 3)) if rng.randrange(2) else w for w in parts]
    enc = presentation_encoder(GroupShift.make(shift.alphabet, taps))
    assume(enc.taps)
    rep = check_noncatastrophic(enc, shift, horizon)
    event(f"backward direction {'holds' if rep.ok else 'fails'}")
    assert (rep.ok, rep.witness) == per_t_noncatastrophic(enc, shift, horizon)


# -- base decomposition ------------------------------------------------------------


def test_base_decompose_examples(z4):
    g = full_shift(z4)
    pg_set = canonical_generators(multiple_shift(g, 2, 1), 2)
    u_t = impulse(z4, (2,))  # torsion: v = u, w = 0
    dec = base_decompose(g, u_t, pg_set)
    assert dec.torsion_part == u_t and dec.tap_part.is_zero

    u = impulse(z4, (1,))
    dec = base_decompose(g, u, pg_set)
    assert dec.torsion_part + dec.tap_part == u
    assert dec.torsion_part.scaled(2).is_zero
    assert not dec.tap_part.is_zero


def test_base_decompose_random():
    rng = random.Random(35)
    shifts = [full_shift(FiniteAbelianGroup.parse("Z4")),
              make_shift("Z4", [(0, [1, 1])]),
              full_shift(FiniteAbelianGroup.parse("Z8"))]
    for shift in shifts:
        pg = multiple_shift(shift, 2, 1)
        pg_set = canonical_generators(pg, 2)
        for _ in range(25):
            u = Word.zero(shift.alphabet)
            for _ in range(rng.randrange(1, 4)):
                gi = rng.randrange(len(shift.generators))
                u = u + shift.generators[gi].shifted(rng.randrange(-2, 3)) \
                    .scaled(rng.randrange(1, shift.alphabet.exponent))
            dec = base_decompose(shift, u, pg_set)
            assert dec.torsion_part + dec.tap_part == u
            assert dec.torsion_part.scaled(2).is_zero
            # the reported coefficients rebuild the tap part
            rebuilt = Word.zero(shift.alphabet)
            lifted = {}
            for (i, t, c) in dec.coefficients:
                if i not in lifted:
                    lifted[i] = lift_height(shift, pg_set.taps[i], 2, 1,
                                            (pg_set.order_index + 1) * 2 +
                                            pg_set.horizons.margin)
                rebuilt = rebuilt + lifted[i].shifted(-t).scaled(c)
            assert rebuilt == dec.tap_part


# -- certificates -------------------------------------------------------------------


def test_full_shift_certificates_all_complete():
    for name in ["Z2", "Z3", "Z4", "Z8", "Z2 x Z4", "Z6"]:
        g = full_shift(FiniteAbelianGroup.parse(name))
        cert = conjugacy_certificate(g)
        assert cert.complete, name
        assert cert.product_encoder is not None


def test_certificate_deterministic(delay_rep):
    a = conjugacy_certificate(delay_rep)
    b = conjugacy_certificate(delay_rep)
    assert a == b


def test_primary_shift_split():
    g = full_shift(FiniteAbelianGroup.parse("Z6"))
    part2 = primary_shift(g, 2)
    part3 = primary_shift(g, 3)
    assert part2.alphabet.orders == (2,)
    assert part3.alphabet.orders == (3,)
    assert part2.window(0, 1).form.size() == 4
    assert part3.window(0, 1).form.size() == 9


def test_primary_shift_of_a_p_group_is_the_shift():
    # over a p-group alphabet the component is the shift itself, with its
    # declared memory and its table of near-end states; a mixed alphabet is
    # projected onto its p-part, with no declared memory
    s = make_shift("Z8 x Z4", [(0, [(2, 2), (0, 1), (6, 3)])], memory=3)
    assert primary_shift(s, 2) is s
    mixed = make_shift("Z2 x Z3", [(0, [(1, 1), (0, 2)])], memory=2)
    part = primary_shift(mixed, 3)
    assert part.alphabet.orders == (3,) and part.memory_hint is None
    assert [g.format() for g in part.generators] == ["@0: 1 2"]
    assert primary_shift(s, 3).generators == ()


def test_certificate_encoder_image_matches_oracle(delay_rep):
    cert = conjugacy_certificate(delay_rep)
    assert cert.complete
    enc = cert.product_encoder
    image_shift = GroupShift.make(delay_rep.alphabet, list(enc.taps))
    for t in range(3):
        assert set(enumerate_window_code(image_shift, 0, t)) == \
            set(enumerate_window_code(delay_rep, 0, t))


# -- certificate lines that hold by construction -------------------------------------


BY_CONSTRUCTION = ("exact-powers", "heights-sorted", "initial-basis-independent",
                   "torsion-one-sided", "homomorphism", "order-bounds",
                   "window-surjectivity", "window-injectivity")


def reference_structure(genset):
    """The generating-set properties the certificate reports as passes,
    computed from the entries as the certificate once did."""
    shift, p = genset.shift, genset.prime
    hs = genset.heights
    initial = [e.torsion_word.window_vector(0, 0) for e in genset.entries]
    h = shift.alphabet
    return {
        "exact-powers": all(e.tap.scaled(p ** e.height) == e.torsion_word
                            for e in genset.entries),
        "heights-sorted": all(a >= b for a, b in zip(hs, hs[1:])),
        "initial-basis-independent":
            howell_form(initial, h.exponent, h.rank).rank == len(initial),
        "torsion-one-sided": all(is_torsion(e.torsion_word, p) and
                                 (e.torsion_word.is_zero or e.torsion_word.first == 0)
                                 for e in genset.entries),
    }


def by_construction_holds(part, p, horizons):
    """The primary certificate of `part` at `horizons`, None when the
    pipeline refuses it, after holding each line it reports by construction
    to its decider: the structure reference, the message and window
    deciders the certificate once ran, and the tap division of every tap of
    p*G at pad n_o + 1."""
    cert = primary_certificate(part, p, horizons)
    genset = cert.genset
    if genset is None:
        return None
    reference = reference_structure(genset)
    assert all(reference.values()), (part, reference)
    decided = (_message_invariant_checks(cert.encoder)
               + _image_window_checks(cert.encoder, part, horizons))
    assert all(c.passed for c in decided), (part, decided)
    if part.exponent_exponent(p) > 1:
        sub = canonical_generators(multiple_shift(part, p, 1), p, horizons)
        assert all(lift_height(part, tap, p, 1, genset.order_index + 1) is not None
                   for tap in sub.taps), part
    reported = {c.name: c.passed for c in cert.checks}
    assert all(reported[name] for name in BY_CONSTRUCTION), (part, reported)
    return cert


def test_by_construction_lines_hold_on_random_gensets():
    rng = random.Random(43)
    built = scaled = 0
    for _ in range(40):
        shift = random_shift(rng)
        for p in shift.alphabet.primes():
            part = primary_shift(shift, p)
            cert = by_construction_holds(part, p, Horizons.derive(part))
            if cert is None:
                continue
            built += 1
            genset = cert.genset
            for r in range(1, part.exponent_exponent(p)):
                ok, detail = scaled_finite_words_check(part, p, r, genset.horizons)
                assert ok, (part, r, detail)
                scaled += 1
            reported = {c.name: c.passed for c in cert.checks}
            # heights-maximal is the padded height search at a pad past
            # every lift these draws need
            emax, pad = part.exponent_exponent(p), 4 * part.span + 12
            assert reported["heights-maximal"] == all(
                padded_word_height(part, e.torsion_word, p, pad, emax - 1) == e.height
                for e in genset.entries), part
            assert all(passed for name, passed in reported.items()
                       if name.startswith("scaled-finite-words-r"))
    assert built >= 40 and scaled >= 10


def test_by_construction_lines_hold_on_the_corpus():
    # the golden specs and both benchmark pools, which hold every `ok`
    # `certify` pool entry
    built = sum(by_construction_holds(primary_shift(shift, p), p, Horizons.derive(shift))
                is not None for shift in corpus_shifts() for p in shift.alphabet.primes())
    assert built >= 200, built


def socle_and_heights_hold(shift):
    """Check, on each primary component where `canonical_generators`
    succeeds at the shift's derived horizons, the two lines the certificate
    reports by construction against their exact deciders: the socle verdict
    of `torsion_presentation`, and no entry of height h < e - 1 `divisible`
    at h + 1.  Returns the number of components built and of the entries
    below e - 1."""
    horizons, built, below = Horizons.derive(shift), 0, 0
    for p in shift.alphabet.primes():
        part = primary_shift(shift, p)
        try:
            genset = canonical_generators(part, p, horizons)
        except PipelineFailure:
            continue
        built += 1
        assert torsion_presentation(part, p, horizons)[2] is None, (part, p)
        e = part.exponent_exponent(p)
        for x in genset.entries:
            if x.height + 1 < e:
                below += 1
                assert not divisible(part, x.torsion_word, p, x.height + 1), (part, p, x)
    return built, below


def corpus_shifts():
    """The golden specs' shifts and the shifts of both benchmark pools."""
    for path in sorted((ROOT / "tests" / "golden").glob("*.spec")):
        yield parse_spec(path.read_text()).shift
    for pool in ("certify", "analyze"):
        data = json.loads((ROOT / "perfbench" / "data" / f"{pool}.json").read_text())
        for e in data["entries"]:
            group = FiniteAbelianGroup.parse(e["alphabet"])
            yield GroupShift.make(group, [Word.make(group, start, syms)
                                          for start, syms in e["gens"]])


def test_socle_and_heights_hold_on_the_corpus():
    # order controllability, which the generators need, makes the socle
    # verdict and heights-maximal hold (`encoders._structure_checks`)
    built, below = map(sum, zip(*map(socle_and_heights_hold, corpus_shifts())))
    assert built >= 200 and below >= 20, (built, below)


def test_socle_verdict_holds_where_the_order_index_exists():
    # `analyze` reports a socle line as a pass by construction wherever the
    # whole shift's order search finds n_o (`control.socle_controllability`),
    # by the cut at n_o with d = p; the decided verdict of
    # `torsion_presentation` on the p-primary component stays the reference
    found = 0
    for shift in corpus_shifts():
        horizons = Horizons.derive(shift)
        if order_controllability_index(shift, horizons.n_cap).index is None:
            continue
        found += 1
        for p in shift.alphabet.primes():
            assert torsion_presentation(primary_shift(shift, p), p, horizons)[2] is None, \
                (shift, p)
            assert socle_controllability(shift, p, horizons).holds, (shift, p)
    assert found >= 200, found


@pytest.mark.parametrize("name", ["mixed-witness", "order-witness", "scale-witness"])
def test_socle_verdict_is_decided_where_no_order_index_exists(name, monkeypatch):
    # with no n_o the socle line is read off `torsion_presentation`, which
    # fails these goldens at the window [0, 0]
    decided = []
    monkeypatch.setattr(control, "torsion_presentation", lambda *args:
                        decided.append(args[1]) or torsion_presentation(*args))
    shift = parse_spec((ROOT / "tests" / "golden" / f"{name}.spec").read_text()).shift
    horizons = Horizons.derive(shift)
    assert order_controllability_index(shift, horizons.n_cap).index is None
    socle = socle_controllability(shift, 2, horizons)
    assert decided == [2]
    assert not socle.holds
    assert socle.detail == "torsion window [0,0] not generated by finite torsion members"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_socle_and_heights_hold_on_random_p_group_shifts(rng):
    shift = random_shift(rng, max_gens=3, max_support=4,
                         pool=["Z8", "Z2 x Z4", "Z2 x Z8", "Z4 x Z8", "Z3 x Z9"])
    built, below = socle_and_heights_hold(shift)
    event(f"{built} built, {'some' if below else 'no'} entry below e - 1")


def test_complete_product_taps_generate_the_shift_windows():
    rng = random.Random(47)
    complete = 0
    for group in ["Z6", "Z2 x Z3", "Z2 x Z4 x Z3"]:
        for _ in range(6):
            shift = random_shift(rng, pool=[group])
            cert = conjugacy_certificate(shift)
            if not cert.complete:
                continue
            complete += 1
            assert [c.name for c in cert.global_checks] == ["product-window-surjectivity"]
            image = GroupShift.make(shift.alphabet, cert.product_encoder.taps)
            for t in range(cert.horizons.window_horizon + 1):
                assert image.window(0, t).form.spans_same(shift.window(0, t).form)
    assert complete >= 15


def random_tap_set(rng, shift):
    """Taps from the generators: all of them, a subset, one replaced by its
    sum with another, or each scaled (by non-units too); zero taps dropped."""
    gens = list(shift.generators)
    kind = rng.choice(["all", "subset", "sum", "scale"])
    if kind == "subset":
        gens = rng.sample(gens, rng.randrange(1, len(gens) + 1))
    elif kind == "sum":
        i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
        gens[i] = gens[i] + gens[j].shifted(rng.randrange(-1, 2))
    elif kind == "scale":
        gens = [g.scaled(rng.randrange(1, shift.alphabet.exponent + 1)) for g in gens]
    return [g for g in gens if not g.is_zero] or list(shift.generators[:1])


def test_one_window_surjectivity_matches_the_per_window_loop():
    # the window module on [0, t] is the projection of the one on [0, H], so
    # comparing the forms on [0, H] decides every window [0, t], t <= H
    rng = random.Random(48)
    verdicts = set()
    for group in ["Z4", "Z8 x Z4", "Z9 x Z3", "Z6", "Z12", "Z2 x Z2 x Z3"]:
        for _ in range(8):
            shift = random_shift(rng, max_gens=3, pool=[group])
            taps = random_tap_set(rng, shift)
            k = len(taps)
            encoder = Encoder(shift.alphabet, FiniteAbelianGroup(((2, 1),) * k),
                              tuple(taps), (0,) * k, (2,) * k)
            h = rng.randrange(0, 7)
            horizons = Horizons.derive(shift, window_horizon=h)
            image = GroupShift.make(shift.alphabet, taps)
            reference = all(image.window(0, t).form.spans_same(shift.window(0, t).form)
                            for t in range(h + 1))
            check = _image_window_checks(encoder, shift, horizons)[0]
            assert (check.name, check.passed, check.detail) == \
                ("window-surjectivity", reference, f"windows [0,0]..[0,{h}]"), (shift, taps, h)
            verdicts.add(reference)
    assert verdicts == {True, False}
