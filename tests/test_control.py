import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshift.cli import main
from groupshift.control import (IndexSearch, _divisors, _index_search, _steering_condition,
                                _steering_witness,
                                analyze_controllability, controllability_index,
                                default_past_horizon, order_controllability_index,
                                weak_controllability_check)
from groupshift.residues import PackedRows, howell_form, projection_heads
from groupshift.encoders import (CheckResult, PipelineFailure, conjugacy_certificate,
                                 multiple_shift, socle_shift)
from groupshift.groups import FiniteAbelianGroup
from groupshift.shifts import (GroupShift, Horizons, _boundary_heads, _fixed_reach, _near_end,
                               finite_type_memory, primary_shift, supported_words,
                               torsion_presentation, torsion_window_projection)
from groupshift.specfmt import parse_spec
from groupshift.words import Word

from conftest import (agrees_on, assert_decided_table, capped_torsion_form,
                      enumerate_elements, exact_margins, form_words, full_shift, make_shift,
                      mirrored_near_end, random_shift, restricted, reversed_state,
                      window_projection_heads)


def enumerated_index(shift, cap, past, ordered):
    """Brute-force least steering index by enumerating window elements."""
    for n in range(cap + 1):
        module = shift.window(-past, n + past)
        ok_all = True
        for vec in enumerate_elements(module.form):
            g = Word.from_window_vector(shift.alphabet, -past, vec)
            found = False
            for vec1 in enumerate_elements(module.form):
                g1 = Word.from_window_vector(shift.alphabet, -past, vec1)
                if not agrees_on(g1, g, -past, 0):
                    continue
                if not restricted(g1, n + 1, n + past).is_zero:
                    continue
                if ordered:
                    d = restricted(g, 1, n).order()
                    if d % restricted(g1, 1, n).order():
                        continue
                found = True
                break
            if not found:
                ok_all = False
                break
        if ok_all:
            return n
    return None


def stored_states(shift, tail, kind=1):
    """The near-end state sequence that `_near_end` stores in the shift's
    table, run to its fixed point: T_d(W) from W = s-1 on (W = 0 for a span
    s <= 1, whose states do not move), so width W reads entry
    min(W - first_width(shift), len - 1)."""
    _near_end(shift, tail, kind)
    return shift.boundary_table["states"][tail, kind][1]


def first_width(shift):
    """The width of the first state that `_near_end` stores."""
    return max(shift.span - 1, 0)


def test_full_shift_indices(z4):
    rep = analyze_controllability(full_shift(z4), cap=4)
    assert rep.n_c == 0 and rep.n_o == 0
    assert rep.weakly_controllable


def test_scaled_impulse_generator(z4):
    shift = make_shift("Z4", [(0, [2])])
    rep = analyze_controllability(shift, cap=4)
    assert rep.n_c == 0 and rep.n_o == 0


def test_delay_rep_indices(delay_rep):
    rep = analyze_controllability(delay_rep, cap=4)
    assert rep.n_c == 1 and rep.n_o == 1
    assert_decided_table(delay_rep, rep.plain, ordered=False)
    assert_decided_table(delay_rep, rep.ordered, ordered=True)
    assert rep.n_c <= rep.n_o


def test_exponent_p_alphabet_equalizes_indices():
    # every nonzero order equals p, so the divisibility demand is vacuous
    rng = random.Random(21)
    for _ in range(8):
        shift = random_shift(rng, pool=["Z2", "Z3", "Z2 x Z2"])
        plain = controllability_index(shift, 4)
        ordered = order_controllability_index(shift, 4)
        assert plain.index == ordered.index


def test_fast_path_matches_enumeration():
    # the least candidate passing the steering condition, whose verdicts are
    # those at every past window from the fixed reach on
    rng = random.Random(22)
    checked = 0
    for _ in range(20):
        shift = random_shift(rng, pool=["Z2", "Z4", "Z2 x Z2", "Z2 x Z4"])
        past = _fixed_reach(shift)
        if shift.window(-past, 3 + past).form.size() > 1 << 12:
            continue
        for ordered in (False, True):
            exp = shift.alphabet.exponent
            scales = _divisors(exp) if ordered else [exp]
            fast = next((n for n in range(4) if _steering_condition(shift, n, scales)), None)
            slow = enumerated_index(shift, 3, past, ordered)
            assert fast == slow, (shift, ordered)
        checked += 1
    assert checked >= 5


def test_n_c_at_most_n_o():
    rng = random.Random(23)
    for _ in range(15):
        shift = random_shift(rng)
        rep = analyze_controllability(shift, cap=6)
        assert rep.n_o is None or rep.n_c <= rep.n_o
        # the tables are read off the indices, so decide every candidate
        assert_decided_table(shift, rep.plain, ordered=False)
        assert_decided_table(shift, rep.ordered, ordered=True)


def test_search_stopped_at_the_index_agrees():
    # certify reads only the order search's index and witness: on each
    # primary component they are analyze's n_o and order witness
    rng = random.Random(25)
    shifts = [random_shift(rng) for _ in range(15)]
    shifts.append(make_shift("Z2 x Z4", [(0, [(1, 3), (0, 0), (0, 3)])]))
    found = absent = 0
    for shift, cap in itertools.product(shifts, (0, 3)):
        cert = conjugacy_certificate(shift, Horizons.derive(shift, n_cap=cap))
        for pc in cert.primaries:
            ordered = analyze_controllability(pc.shift, cap).ordered
            if ordered.index is None:
                assert pc.checks == (CheckResult(
                    "order-controllability", False, f"no order-controllability index <= "
                    f"{cap}; witness {ordered.witness.format()}"),), (shift, cap)
            elif pc.genset is not None:
                assert pc.genset.order_index == ordered.index, (shift, cap)
            found += pc.genset is not None
            absent += ordered.index is None
    assert found and absent


def test_scaling_preserves_order_controllability():
    rng = random.Random(24)
    for _ in range(10):
        shift = random_shift(rng, pool=["Z4", "Z8", "Z2 x Z4"])
        rep = order_controllability_index(shift, 6)
        if rep.index is None:
            continue
        exp = shift.exponent
        p = 2
        r = 1
        if p ** r >= exp:
            continue
        scaled = multiple_shift(shift, p, r)
        if not scaled.generators:
            continue
        scaled_rep = order_controllability_index(scaled, 6)
        assert scaled_rep.index is not None and scaled_rep.index <= rep.index


def test_reports_are_reproducible():
    shift = make_shift("Z4", [(0, [1, 2]), (1, [2, 2])])
    a = analyze_controllability(shift, cap=4)
    b = analyze_controllability(shift, cap=4)
    assert a == b


def test_weak_controllability_variants(z4, delay_rep):
    g = full_shift(z4)
    assert weak_controllability_check(g, "self").holds
    socle = weak_controllability_check(g, "socle", p=2)
    assert socle.holds
    assert socle.windows == tuple((0, t) for t in range(5))
    assert weak_controllability_check(delay_rep, "socle", p=2).holds
    with pytest.raises(ValueError):
        weak_controllability_check(g, "socle")
    with pytest.raises(ValueError):
        weak_controllability_check(g, "nonsense")


#: G[2] is not generated by its finite torsion members on [0,3] at the
#: default horizons; `analyze` and `socle_shift` must say so, and `certify`
#: stops before its socle line, at the order-controllability search that
#: the socle verdict follows from.
SOCLE_FAILURE_SPEC = """group: Z4 x Z2 x Z2
gen @0: (3,0,1) (1,0,1) (0,1,0)
gen @0: (3,0,0) (0,0,1) (3,0,0)
"""


def test_socle_verdict_agrees_with_socle_shift(tmp_path, capsys):
    shift = parse_spec(SOCLE_FAILURE_SPEC).shift
    assert checked_torsion_presentation(shift, 2, Horizons.derive(shift)) == 3
    socle = weak_controllability_check(shift, "socle", p=2)
    assert not socle.holds
    assert socle.detail == ("torsion window [0,3] not generated by finite "
                            "torsion members")
    with pytest.raises(PipelineFailure) as failure:
        socle_shift(shift, 2)
    assert (failure.value.stage, failure.value.detail) == ("socle-presentation", socle.detail)
    cert = conjugacy_certificate(shift)
    assert [pc.failing_stage for pc in cert.primaries] == ["order-controllability"]
    path = tmp_path / "socle.spec"
    path.write_text(SOCLE_FAILURE_SPEC)
    assert main(["analyze", str(path)]) == 1
    out = capsys.readouterr().out
    assert "socle.2.weakly_controllable: no\nsocle.2.detail: torsion window [0,3]" in out



ROOT = Path(__file__).resolve().parent.parent


def mixed_shifts():
    """The mixed-alphabet entries of the `analyze` bench pool, the
    `mixed-witness` golden spec and derandomized random mixed shifts."""
    group = FiniteAbelianGroup.parse
    pool = json.loads((ROOT / "perfbench" / "data" / "analyze.json").read_text())["entries"]
    for e in pool:
        alphabet = group(e["alphabet"])
        if len(alphabet.primes()) > 1:
            yield GroupShift.make(alphabet, [Word.make(alphabet, start, syms)
                                             for start, syms in e["gens"]])
    yield parse_spec((ROOT / "tests" / "golden" / "mixed-witness.spec").read_text()).shift
    rng = random.Random(24)
    for _ in range(24):
        yield random_shift(rng, max_gens=3, pool=["Z6", "Z12", "Z2 x Z2 x Z3",
                                                  "Z2 x Z4 x Z3"])


def checked_torsion_presentation(shift, p, horizons):
    """The failing window of `torsion_presentation`, after checking its
    exact form F of the finite p-torsion words against the capped
    presentations by the candidate words supported in [0, cap - 1]
    (`capped_torsion_form`, itself checked against the window module of the
    presentation shift) at cap = support_cap and 2 * support_cap + 2, which
    no draw here needs, its exact p-torsion form on [0, H] against
    `torsion_window_projection` at each margin past the memory
    (`exact_margins`), so that their windows [0, t], the prefixes, agree,
    and its failing window against those windows; when p kills the shift,
    its p-torsion windows are its window modules, which are checked too."""
    form, torsion, failing = torsion_presentation(shift, p, horizons)
    top, r, cap = horizons.window_horizon, shift.alphabet.rank, horizons.support_cap
    words = form_words(shift, supported_words(shift, cap, torsion_scale=p))
    presentation = GroupShift.make(shift.alphabet, [w.shifted(w.first) for w in words])
    assert capped_torsion_form(shift, p, top, cap).spans_same(
        presentation.window(0, top).form), (shift, p)
    for capped in (cap, 2 * cap + 2):
        assert form.spans_same(capped_torsion_form(shift, p, top, capped)), (shift, p, capped)
    for margin in exact_margins(shift):
        assert torsion.spans_same(torsion_window_projection(shift, 0, top, margin, p)), \
            (shift, p, margin)
    windows = [torsion.prefix((t + 1) * r) for t in range(top + 1)]
    if p % shift.exponent == 0:
        assert all(shift.window(0, top).form.prefix((t + 1) * r).spans_same(windows[t])
                   for t in range(top + 1)), (shift, p)
    assert failing == next((t for t in range(top + 1)
                            if not form.prefix((t + 1) * r).spans_same(windows[t])), None)
    return failing


def test_torsion_presentation_is_decided_on_the_primary_component():
    # G[p] lies in the p-primary component, a direct summand of G, so the
    # failing window is the same on either shift
    failing, killed = [], 0
    for shift in mixed_shifts():
        horizons = Horizons.derive(shift)
        for p in shift.alphabet.primes():
            part = primary_shift(shift, p)
            got = checked_torsion_presentation(part, p, horizons)
            assert got == checked_torsion_presentation(shift, p, horizons), (shift, p)
            failing.append(got)
            killed += p % part.exponent == 0
    assert len(failing) >= 2 * (32 + 1 + 24)
    assert any(t is not None for t in failing) and None in failing
    assert killed >= 10


def test_past_horizon_default():
    shift = make_shift("Z2", [(0, [1, 1])])
    assert default_past_horizon(shift, 3) == 2 * (2 + 3)


def test_cap_zero_negative_verdict(delay_rep):
    rep = controllability_index(delay_rep, 0)
    assert rep.index is None
    assert rep.witness is not None


# -- the fail-fast search against an all-scales, two-form reference -----------


def reference_search(shift, cap):
    """(index, condition table, witness) of the order search, evaluating
    every candidate, to two past the index, over every scale in ascending
    order with two canonical forms per scale; the witness is the first row
    of the first failing scale's past projection outside the
    tail-constrained one."""
    scales = _divisors(shift.alphabet.exponent)

    def failing_rows(n):
        past = default_past_horizon(shift, n)
        module = shift.window(-past, n + past)
        kill = range(1, n + 1)
        for d in scales:
            lhs = module.constrained_projection(-past, 0, kill_scale=d,
                                                kill_positions=kill)
            rhs = module.constrained_projection(-past, 0, range(n + 1, n + past + 1),
                                                kill_scale=d, kill_positions=kill)
            outside = [row for row in lhs.rows if not rhs.contains(row)]
            if outside:
                return past, outside
        return past, []

    table, found = [], None
    for n in range(cap + 1):
        if found is not None and n > found + 2:
            break
        past, outside = failing_rows(n)
        table.append(not outside)
        if not outside and found is None:
            found = n
    witness = None
    if found is None:
        witness = Word.from_window_vector(shift.alphabet, -past, outside[0])
    return found, tuple(table), witness


#: A Z8 shift whose tail near-end state reaches its fixed point at width 9,
#: past 2s = 8: its past horizons are raised to 9.
LATE_FIXED_POINT = make_shift("Z8", [(0, [6, 4, 0, 5])])


def test_fail_fast_search_matches_reference():
    # prime-power, composite and span <= 1 shifts, and one whose indices lie
    # inside a probe bracket; the socle-failure shift (a certify pool entry)
    # has its tail state fixed exactly at width 2s, where its past horizons
    # are not raised
    rng = random.Random(26)
    shifts = [random_shift(rng) for _ in range(10)]
    shifts += [random_shift(rng, pool=["Z6", "Z12", "Z2 x Z2 x Z3"]) for _ in range(4)]
    shifts.append(make_shift("Z2 x Z4", [(0, [(1, 3), (0, 0), (0, 3)])]))
    shifts.append(make_shift("Z8 x Z4", [(0, [(2, 0), (5, 2), (7, 3)])]))
    shifts.append(make_shift("Z2 x Z4", [(0, [(1, 2), (0, 0), (0, 0), (0, 1)])]))  # index 3
    shifts += [make_shift("Z4", [(0, [2])]), make_shift("Z12", [(0, [(2, 0)]), (3, [(0, 1)])])]
    shifts += [parse_spec(SOCLE_FAILURE_SPEC).shift, LATE_FIXED_POINT]
    assert default_past_horizon(LATE_FIXED_POINT, 0) > 2 * LATE_FIXED_POINT.span
    socle = shifts[-2]  # its tail state is first fixed at width 2s
    assert first_width(socle) + len(stored_states(socle, True)) == 2 * socle.span + 2
    assert default_past_horizon(socle, 0) == 2 * socle.span
    absent = 0
    for shift, cap in itertools.product(shifts, (0, 1, 3, 16)):
        exp = shift.alphabet.exponent
        index, table, witness = reference_search(shift, cap)
        got = order_controllability_index(shift, cap)
        assert (got.index, got.condition_table, got.witness) == (index, table, witness), \
            (shift, cap)
        assert got.past_horizons == \
            tuple(default_past_horizon(shift, n) for n in range(len(table)))
        assert _index_search(shift, cap, [exp]) == \
            reference_index_search(shift, cap, [exp]), (shift, cap)
        if index is None:
            absent += 1
            scales = _divisors(exp)
            past = default_past_horizon(shift, cap)
            for order in (scales[::-1], rng.sample(scales, len(scales))):
                assert _steering_witness(shift, cap, past, order) == witness
    assert absent >= 6


#: Alphabets where the near-end states of generators of support 3-6 are
#: often not both fixed at reach 2s: about 2 % of `late_fixed_shifts`'
#: draws are.
LATE_POOL = ["Z4", "Z8", "Z16", "Z2 x Z4", "Z2 x Z8", "Z8 x Z2", "Z4 x Z4", "Z2 x Z2 x Z2",
             "Z9", "Z27", "Z3 x Z3"]


def late_fixed_shifts(rng, count):
    """`count` shifts drawn by rejection whose fixed reach exceeds 2s, so
    that their past horizon at n = 0 at least is raised."""
    out = []
    while len(out) < count:
        group = FiniteAbelianGroup.parse(rng.choice(LATE_POOL))
        shift = GroupShift.make(group, [
            Word.make(group, 0, [tuple(rng.randrange(n) for n in group.orders)
                                 for _ in range(rng.randrange(3, 7))])
            for _ in range(rng.randrange(1, 4))])
        if _fixed_reach(shift) > 2 * shift.span:
            out.append(shift)
    return out


def test_late_fixed_searches_match_the_ascending_references():
    # raised past horizons make every table monotone, so the probing searches
    # equal the ascending full-window references
    shifts = [LATE_FIXED_POINT, *late_fixed_shifts(random.Random(32), 20)]
    absent = 0
    for shift, cap in itertools.product(shifts, (0, 1, 3, 16)):
        exp, reach = shift.alphabet.exponent, _fixed_reach(shift)
        index, table, witness = reference_search(shift, cap)
        got = order_controllability_index(shift, cap)
        assert (got.index, got.condition_table, got.witness) == (index, table, witness), \
            (shift, cap)
        assert got.past_horizons == \
            tuple(max(2 * (shift.span + n), reach) for n in range(len(table))), (shift, cap)
        assert controllability_index(shift, cap) == \
            reference_index_search(shift, cap, [exp]), (shift, cap)
        absent += index is None
    assert absent >= 4


def test_raised_past_horizons_are_reported(tmp_path, capsys):
    # the one report that the raised horizons change: L(0) = 8 becomes 9
    path = tmp_path / "late.spec"
    path.write_text("group: Z8\ngen @0: (6) (4) (0) (5)\n")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    for label in ("controllability", "order_controllability"):
        assert f"{label}.past_horizons: 9 10 12\n{label}.condition_table: ok ok ok\n" \
            f"{label}.monotone: yes\n" in out, label


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["Z2 x Z2", "Z4", "Z2 x Z4"]), st.randoms(use_true_random=False),
       st.integers(17, 32))
def test_default_caps_decide_long_spans_as_caps_of_four_reaches(group, rng, support):
    # the defaults n_cap = max(16, R) and finite-type cap max(8, R), R the
    # near-end fixed reach, give analyze's indices and memory and certify's
    # verdict at caps of 4R, on single generators of support 17-32
    group = FiniteAbelianGroup.parse(group)
    nonzero = [c for c in itertools.product(*map(range, group.orders)) if any(c)]
    syms = [rng.choice(nonzero), *(tuple(map(rng.randrange, group.orders))
                                   for _ in range(support - 2)), rng.choice(nonzero)]
    shift = GroupShift.make(group, [Word.make(group, 0, syms)])
    horizons, big = Horizons.derive(shift), 4 * _fixed_reach(shift)
    assert horizons.n_cap == max(16, big // 4)
    at_default = analyze_controllability(shift, cap=horizons.n_cap)
    at_big = analyze_controllability(shift, cap=big)
    assert (at_default.plain.index, at_default.ordered.index) == \
        (at_big.plain.index, at_big.ordered.index), shift
    assert finite_type_memory(shift).memory == finite_type_memory(shift, big).memory, shift
    assert conjugacy_certificate(shift).complete == \
        conjugacy_certificate(shift, Horizons.derive(shift, n_cap=big)).complete, shift


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([*LATE_POOL, "Z2", "Z6", "Z12"]), st.randoms(use_true_random=False),
       st.integers(1, 6), st.integers(0, 6))
def test_verdicts_from_the_fixed_reach_on_are_the_verdicts_at_infinity(group, rng, support, n):
    # the fixed reach is the least R >= max(s-1, 1) at which both stored cut
    # state sequences are fixed, and from it on the boundary verdict, with
    # both near ends at their fixed points, is the full-window verdict
    shift = random_shift(rng, max_gens=3, max_support=support, pool=[group])
    s, reach, first = shift.span, _fixed_reach(shift), first_width(shift)
    sequences = [stored_states(shift, tail) for tail in (False, True)]

    def fixed(R):
        return all(states[min(R + 1 - first, len(states) - 1)].packed ==
                   states[min(R - first, len(states) - 1)].packed for states in sequences)

    assert reach >= max(s - 1, 1)
    assert fixed(reach) and not any(map(fixed, range(max(s - 1, 1), reach))), shift
    for d, past in itertools.product(_divisors(shift.alphabet.exponent), range(reach, reach + 4)):
        assert _boundary_heads(shift, n, d)[2] == full_window_verdict(shift, n, past, d), \
            (shift, n, d, past)


# -- the plain condition is the order search's scale exp(H) ----------------------


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["Z8 x Z4", "Z9 x Z3", "Z12", "Z2 x Z2 x Z3"]),
       st.randoms(use_true_random=False), st.integers(0, 4), st.integers(0, 4))
def test_scale_exp_elimination_is_the_plain_one(group, rng, n, extra):
    # exp(H) * v == 0 holds for every v, so the condition columns at that
    # scale are zero and the elimination without them is the same one, at
    # past windows from the fixed reach on
    shift = random_shift(rng, max_gens=2, max_support=3, pool=[group])
    exp, past = shift.alphabet.exponent, _fixed_reach(shift) + extra
    module = shift.window(-past, n + past)
    args = (-past, 0, range(n + 1, n + past + 1))
    kept, heads = window_projection_heads(module, *args, kill_scale=exp,
                                          kill_positions=range(1, n + 1))
    got, got_heads = window_projection_heads(module, *args, kill_scale=None,
                                             kill_positions=range(1, n + 1))
    assert (got.packed, got.pivots, got_heads) == (kept.packed, kept.pivots, heads)
    assert _boundary_heads(shift, n, exp)[2] == all(map(kept.contains, heads))
    n_c, n_o = controllability_index(shift, 4).index, order_controllability_index(shift, 4).index
    if n_c is not None and n_o is not None:
        assert n_c <= n_o


# -- boundary-window verdicts against the full-window elimination ----------------


def full_window_verdict(shift, n, past, d):
    kept, heads = window_projection_heads(
        shift.window(-past, n + past), -past, 0, range(n + 1, n + past + 1), kill_scale=d,
        kill_positions=range(1, n + 1))
    return all(map(kept.contains, heads))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["Z2", "Z4", "Z8", "Z3", "Z9", "Z2 x Z4", "Z8 x Z4", "Z9 x Z3",
                        "Z6", "Z12", "Z2 x Z2 x Z3"]),
       st.randoms(use_true_random=False), st.integers(1, 4), st.integers(0, 16))
def test_boundary_verdict_matches_the_full_window(group, rng, support, n):
    # generators of 1..support symbols starting at -1..1, so the span-1
    # shifts and generators of unequal length both occur; every divisor scale
    shift = random_shift(rng, max_gens=3, max_support=support, pool=[group])
    past = default_past_horizon(shift, n)
    for d in _divisors(shift.alphabet.exponent):
        assert _boundary_heads(shift, n, d)[2] == \
            full_window_verdict(shift, n, past, d), (shift, n, d)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["Z2", "Z4", "Z8", "Z9", "Z2 x Z4", "Z8 x Z4", "Z9 x Z3", "Z6", "Z12",
                        "Z2 x Z2 x Z3"]),
       st.randoms(use_true_random=False), st.integers(1, 4), st.integers(0, 5),
       st.integers(1, 5))
def test_steering_verdict_carries_to_the_next_candidate(group, rng, support, n, past):
    # V(n, L+1) implies V(n+1, L) at window scale, whether or not the
    # near-end states are fixed: cut back to [-L, n+1+L], the element that
    # V(n, L+1) gives for a lift of g to [-L-1, n+1+L] matches g's past, is
    # zero on [n+1, n+1+L] and meets d*v == 0 on [1, n+1]
    shift = random_shift(rng, max_gens=3, max_support=support, pool=[group])
    for d in _divisors(shift.alphabet.exponent):
        if full_window_verdict(shift, n, past + 1, d):
            assert full_window_verdict(shift, n + 1, past, d), (shift, n, past, d)


def test_far_states_rise_to_their_fixed_point():
    # U_d starts at S(inf), the footprint of the elements that vanish far
    # out, and a zero position is d-torsion, so every state lies in the
    # next; a strict rise multiplies the state's size by p at least, so over
    # Z/p^e the chain is fixed within e*(s-1)*r steps, where it stops, and
    # `_near_end` returns that fixed point
    rng = random.Random(31)
    longest = 0
    for _ in range(40):
        shift = random_shift(rng, max_gens=3, max_support=rng.randrange(2, 6),
                             pool=["Z4", "Z8", "Z2 x Z4", "Z8 x Z4", "Z9", "Z3 x Z9"])
        s, r, m = shift.span, shift.alphabet.rank, shift.alphabet.modulus
        e = round(math.log(m, shift.alphabet.primes()[0]))
        for mirror, d in itertools.product((False, True), _divisors(shift.alphabet.exponent)):
            fixed = _near_end(shift, mirror, ("far", d))
            states = shift.boundary_table["states"][mirror, ("far", d)][1]
            assert states[0] == _near_end(shift, mirror), (shift, mirror, d)
            for k, (state, after) in enumerate(zip(states, states[1:])):
                assert all(map(after.contains, state.packed)), (shift, mirror, d, k)
            assert fixed == states[-1] and (len(states) == 1 or states[-2] == fixed)
            assert len(states) - 2 <= e * (s - 1) * r, (shift, mirror, d)
            longest = max(longest, len(states) - 2)
    assert longest >= 2, longest


def test_near_end_states_match_their_definition():
    # T_d(W) on the past side: the span of the placements ending in [0, W-1],
    # cut at 0, with d*v == 0 on [0, W-s], projected to the last s-1
    # positions; on the tail side its reflection: the placements starting in
    # [0, W-1], cut at W-1, with d*v == 0 on [s-1, W-1], projected to the
    # first s-1.  Every divisor d of exp(H) (d = 1: the cut state S, which
    # vanishes off them), read off one elimination of the whole block: each
    # stored state T_d(W) from W = s-1 on, and the fixed point that
    # `_near_end` returns at every width past them, as the recursion must
    # not stop a sequence still moving.  The whole-placement states are
    # M^k(0), k steps from the zero state: the placements ending (tail:
    # starting) in the last k frame steps, whole, that vanish on the k
    # positions that left the frame, the same elimination at W = s-1+k
    # over the placements that lie wholly in [0, W-1]
    rng = random.Random(29)
    longest = rising = scaled = 0
    for _ in range(40):
        shift = random_shift(rng, max_gens=3, max_support=rng.randrange(2, 6),
                             pool=["Z4", "Z8", "Z2 x Z4", "Z8 x Z4", "Z12", "Z9"])
        s, r, m = shift.span, shift.alphabet.rank, shift.alphabet.modulus
        gens = [Word.make(g.group, 0, g.symbols) for g in shift.generators]
        kinds = [*_divisors(shift.alphabet.exponent), "whole"]
        for tail, kind in itertools.product((False, True), kinds):
            whole, d = kind == "whole", 1 if kind == "whole" else kind

            def direct(width):
                # every placement ending (tail: starting) in [0, width-1], cut
                # at the far edge, or only the whole ones
                rows = [row for g in gens for row in g.placed_rows(
                    range(0, width - (s - 1 if whole else 0)) if tail else
                    range(s - g.support_length if whole else 1 - g.support_length,
                          width - g.support_length + 1), 0, width * r)]
                near, cut = (s - 1) * r, (width - s + 1) * r
                if tail:
                    return projection_heads(rows, m, [(near, cut, d)], [], 0, near)[0]
                return projection_heads(rows, m, [(0, cut, d)], [], cut, width * r)[0]

            fixed = _near_end(shift, tail, kind)
            states = stored_states(shift, tail, kind)
            assert fixed is states[-1]
            for width in range(s - 1, max(len(states) + 2 * s, 3 * s + 11) + 1):
                got, want = states[min(width - s + 1, len(states) - 1)], direct(width)
                assert (got.packed, got.pivots) == (want.packed, want.pivots), \
                    (shift, tail, kind, width)
            if whole:
                rising = max(rising, len(states) - 1)
            else:
                longest = max(longest, len(states) - 1)
                # a torsion state fixed apart from the cut one
                scaled += d > 1 and states[-1].packed != stored_states(shift, tail)[-1].packed
    assert longest >= 3 and rising >= 3 and scaled >= 12, (longest, rising, scaled)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["Z2", "Z4", "Z8", "Z9", "Z2 x Z4", "Z8 x Z4", "Z9 x Z3", "Z6", "Z12",
                        "Z2 x Z2 x Z3"]),
       st.randoms(use_true_random=False), st.integers(1, 6))
def test_near_end_walk_matches_the_mirrored_reference(group, rng, support):
    # the walk from width s-1, both sides in window orientation, reaches the
    # fixed points of the walk from width 0 on mirrored generators, its tail
    # states reversed, for every kind, and so the same fixed reach; spans 1
    # to 6 over prime-power and composite moduli
    shift = random_shift(rng, max_gens=3, max_support=support, pool=[group])
    divisors = _divisors(shift.alphabet.exponent)
    for tail, kind in itertools.product((False, True),
                                        [*divisors, "whole", *(("far", d) for d in divisors)]):
        got, want = _near_end(shift, tail, kind), mirrored_near_end(shift, tail, kind)[-1]
        if tail:
            want = reversed_state(want, shift.alphabet.rank)
        assert (got.ncols, got.packed, got.pivots) == (want.ncols, want.packed, want.pivots), \
            (shift, tail, kind)
    assert _fixed_reach(shift) == \
        max(1, *(len(mirrored_near_end(shift, tail)) - 2 for tail in (False, True))), shift


# -- the searches against a copy of the full-window search -----------------------


def reference_index_search(shift, cap, scales):
    """The search on full windows, every candidate decided in ascending order
    to two past the index: every verdict a full-window elimination
    made once per (candidate, scale), the plain condition the scale exp(H)
    with no condition columns, the witness read off the last candidate's
    eliminations at its least failing scale."""
    exp = shift.alphabet.exponent

    def heads(n, past, d, made):
        if d not in made:
            made[d] = window_projection_heads(
                shift.window(-past, n + past), -past, 0, range(n + 1, n + past + 1),
                kill_scale=None if d == exp else d, kill_positions=range(1, n + 1))
        return made[d]

    def condition(n, past, made):
        for i, d in enumerate(scales):
            kept, hs = heads(n, past, d, made)
            if not all(map(kept.contains, hs)):
                scales.insert(0, scales.pop(i))
                return False
        return True

    def witness(n, past, made):
        for d in sorted(scales):
            kept, hs = heads(n, past, d, made)
            if all(map(kept.contains, hs)):
                continue
            form = howell_form(PackedRows((*kept.packed, *hs), kept.ncols), kept.modulus)
            row = next(row for row, x in zip(form.rows, form.packed) if not kept.contains(x))
            return Word.from_window_vector(shift.alphabet, -past, row)

    horizons, table, found, n = [], [], None, 0
    while n <= cap and (found is None or n <= found + 2):
        horizons.append(default_past_horizon(shift, n))
        made = {}
        table.append(condition(n, horizons[-1], made))
        if table[-1] and found is None:
            found = n
        n += 1
    w = witness(cap, horizons[-1], made) if found is None else None
    return IndexSearch(found, cap, tuple(horizons), tuple(table), w)


def test_searches_match_the_full_window_search():
    rng = random.Random(28)
    shifts = [random_shift(rng, max_support=rng.randrange(1, 5),
                           pool=["Z2", "Z4", "Z8", "Z2 x Z4", "Z6", "Z12", "Z2 x Z2 x Z3"])
              for _ in range(14)]
    shifts.append(make_shift("Z2 x Z4", [(0, [(1, 3), (0, 0), (0, 3)])]))
    shifts.append(make_shift("Z8 x Z4", [(0, [(2, 0), (5, 2), (7, 3)])]))
    absent = 0
    for shift, cap in itertools.product(shifts, (0, 3, 16)):
        exp = shift.alphabet.exponent
        assert controllability_index(shift, cap) == \
            reference_index_search(shift, cap, [exp]), (shift, cap)
        got = order_controllability_index(shift, cap)
        assert got == reference_index_search(shift, cap, _divisors(exp)), (shift, cap)
        absent += got.index is None
    assert absent >= 6


def test_zero_shift_and_span_one_shifts_steer_at_once(tmp_path, capsys):
    # no placement straddles a position: the boundary window has no near-end
    # columns, so every verdict holds with no kept rows and no heads, and
    # the zero shift has no span at all
    zero = parse_spec("group: Z2\n").shift
    span_one = [make_shift("Z4", [(0, [2])]),
                make_shift("Z2 x Z4", [(1, [(1, 2)]), (-1, [(0, 3)])]),
                make_shift("Z12", [(0, [(2, 0)]), (3, [(0, 1)])])]
    for shift in (zero, *span_one):
        assert shift.span <= 1
        for n, past in itertools.product(range(4), (1, 2, 5)):
            for d in _divisors(shift.alphabet.exponent):
                assert _boundary_heads(shift, n, d)[2]
                assert full_window_verdict(shift, n, past, d)
        rep = analyze_controllability(shift, cap=3)
        assert (rep.n_c, rep.n_o) == (0, 0)
    path = tmp_path / "zero.spec"
    path.write_text("group: Z2\n")
    for command in ("analyze", "certify", "generators"):
        assert main([command, str(path)]) == 0, command
    assert "order_controllability_index: 0\n" in capsys.readouterr().out
