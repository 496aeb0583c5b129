"""Generator selection by Howell reduction against the eager enumeration it
replaced.

The reference lists every certified p-torsion candidate word with support
[0, s-1] for s = 1..support_cap (each support length in lex order), sorts the
completion pool by (quotient support, support, vector), and greedily keeps
the candidates whose initial symbols extend the F_p span, tested by brute
force on the closure of the kept symbols.  Patched in for
``encoders._pick_generators``, it runs the rest of the pipeline unchanged,
so both canonical generating sets must agree entry for entry.

On shifts drawn at random the quotient order seldom changes a pick, so the
selection is also compared on arbitrary p-torsion modules from a seeded span,
and the least-element search on arbitrary modules against brute force.
"""

import itertools
from unittest import mock

from hypothesis import given, reject, settings, strategies as st

from conftest import brute_force_span, enumerate_elements, random_shift
from groupshift import encoders
from groupshift.encoders import (GeneratorEntry, PipelineFailure,
                                 _candidate_batches, _least_outside, _levels,
                                 canonical_generators)
from groupshift.groups import FiniteAbelianGroup
from groupshift.residues import howell_form
from groupshift.shifts import GroupShift, supported_words
from groupshift.words import Word

#: Candidates the reference may list before a draw is skipped.
REFERENCE_CAP = 1 << 15


class ReferenceCapHit(Exception):
    pass


def eager_batches(group, form, max_len):
    """Per-support-length batches of the candidate vectors of `form` with
    first index 0, shortest supports first and each batch in lex order."""
    if not form.rows:
        return
    width = form.ncols
    rev_form = howell_form([tuple(reversed(row)) for row in form.rows], form.modulus)
    r = group.rank
    budget = REFERENCE_CAP
    for s in range(1, min(max_len, width // r) + 1):
        # reversed vectors zero on their first width - s*r coordinates
        sub = rev_form.zero_prefix(width - s * r)
        if not sub.rows:
            continue
        if sub.size() > budget:
            raise ReferenceCapHit
        budget -= sub.size()
        batch = []
        for rev_vec in enumerate_elements(sub):
            vec = tuple(reversed(rev_vec))
            # exact support [0, s-1]
            if any(vec[:r]) and any(vec[(s - 1) * r:]):
                batch.append(vec + (0,) * (width - s * r))
        batch.sort()
        if batch:
            yield s, batch


def quotient_support(group, vec, p: int) -> int:
    """Support length of the mod-p reduction of the word behind the vector."""
    r = group.rank
    scaled = group.scale_factors
    hot = [k for k in range(len(vec) // r)
           if any(vec[k * r + j] % (p * scaled[j]) for j in range(r))]
    return hot[-1] - hot[0] + 1 if hot else 0


def eager_order(group, form, p: int, max_len: int, quotient: bool):
    """Every candidate vector, in the order the greedy pass visits them."""
    batches = eager_batches(group, form, max_len)
    if not quotient:
        return (vec for _, batch in batches for vec in batch)
    pool = sorted((quotient_support(group, vec, p), s, vec)
                  for s, batch in batches for vec in batch)
    return (vec for _, _, vec in pool)


def eager_picks(picked, rank, group, form, vecs) -> list:
    """Greedy pass: keep each vector whose initial symbol lies outside the
    closure of the kept symbols `picked` (extended in place)."""
    m, r = form.modulus, group.rank
    span = brute_force_span(picked, m, r)
    chosen = []
    for vec in vecs:
        if vec[:r] not in span:
            chosen.append(vec)
            picked.append(vec[:r])
            span = brute_force_span(picked, m, r)
            if len(picked) == rank:
                break
    return chosen


def eager_pick_generators(shift, p, horizons, picked, rank, quotient):
    if len(picked) == rank:
        return []
    group = shift.alphabet
    cands = supported_words(shift, horizons.support_cap, torsion_scale=p)
    vecs = eager_order(group, cands, p, horizons.support_cap, quotient)
    chosen = [Word.from_window_vector(group, 0, vec)
              for vec in eager_picks(picked, rank, group, cands, vecs)]
    if len(picked) < rank:
        raise PipelineFailure("basis-completion" if quotient else "initial-basis",
                              "reference basis incomplete")
    return [GeneratorEntry(w, 0, w) for w in chosen]


def outcome(shift, p):
    try:
        return canonical_generators(shift, p).entries
    except PipelineFailure as exc:
        return exc.stage


#: Non-elementary alphabets, where the completion order by quotient support
#: matters, and two elementary ones for the base case.
P_GROUPS = ["Z2 x Z4", "Z4 x Z4", "Z2 x Z8", "Z9", "Z3 x Z9", "Z2 x Z2", "Z3"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(P_GROUPS), st.randoms(use_true_random=False), st.booleans())
def test_picks_match_eager_reference(group, rng, add_torsion):
    shift = random_shift(rng, max_gens=2, max_support=2, pool=[group])
    p = shift.alphabet.primes()[0]
    if add_torsion:
        # a generator with p-torsion symbols gives initial directions that
        # p*G may not reach, so the basis completion has to pick words
        h = shift.alphabet
        syms = [tuple(rng.randrange(p) * p ** (e - 1) for _, e in h.factors)
                for _ in range(rng.randrange(1, 3))]
        shift = GroupShift.make(h, shift.generators + (Word.make(h, 0, syms),))
    try:
        with mock.patch.object(encoders, "_pick_generators", eager_pick_generators):
            expected = outcome(shift, p)
    except ReferenceCapHit:
        reject()
    assert outcome(shift, p) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(P_GROUPS + ["Z2 x Z2 x Z4"]), st.randoms(use_true_random=False),
       st.booleans())
def test_selection_matches_eager_reference_on_torsion_modules(group, rng, quotient):
    # random p-torsion rows stand in for the certified candidates; the span
    # starts from random scaled p-torsion symbols, as it does after the
    # recursion
    h = FiniteAbelianGroup.parse(group)
    p, r, cap = h.primes()[0], h.rank, rng.randrange(2, 5)
    unit = h.exponent // p  # every p-torsion scaled entry is a multiple
    rows = [[rng.randrange(p) * unit for _ in range(cap * r)]
            for _ in range(rng.randrange(1, 8))]
    cands = howell_form(rows, h.exponent, cap * r)
    seeds = [tuple(rng.randrange(p) * unit for _ in range(r))
             for _ in range(rng.randrange(r))]
    # seeds may be dependent, so no count of kept symbols ends the pass
    expected = eager_picks(list(seeds), None, h, cands,
                           eager_order(h, cands, p, cap, quotient))
    picked, got = list(seeds), []
    # at most r independent symbols exist, so a correct search stops by then
    batches = _candidate_batches(h, cands, p, picked, _levels(cap, quotient))
    for _, batch in itertools.islice(batches, r + 1):
        got.append(min(batch))
        picked.append(got[-1][:r])
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([4, 8, 9, 6, 12]), st.randoms(use_true_random=False))
def test_least_outside_is_the_least_admissible_element(m, rng):
    # over Z/p^k with p^k > p, and over composite moduli, the enumeration
    # order of a Howell form is not lex order; the picked span here is any
    # submodule of (Z/m)^r, the empty one included
    r, width = rng.randrange(1, 4), rng.randrange(1, 3)
    rows = [[rng.randrange(m) for _ in range(r * width)] for _ in range(rng.randrange(1, 5))]
    form = howell_form(rows, m)
    span = howell_form([[rng.randrange(m) for _ in range(r)]
                        for _ in range(rng.randrange(3))], m, r)
    least = min((v for v in enumerate_elements(form) if not span.contains(v[:r])),
                default=None)
    assert _least_outside(form, r, span) == least
