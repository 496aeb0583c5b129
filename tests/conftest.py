import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable

import pytest

from groupshift.control import _divisors, _steering_condition
from groupshift.groups import FiniteAbelianGroup
from groupshift.encoders import (CanonicalGeneratorSet, CheckResult, Encoder, Horizons,
                                 PipelineFailure, _tap_solver, lift_height)
from groupshift.residues import (HowellForm, PackedRows, RowSolver, Vec, _lane_layout,
                                 combine_rows, howell_form, placed_rows, projection_heads,
                                 unpack_rows)
from groupshift.shifts import (GroupShift, _boundary_rows, finite_type_memory, member,
                               supported_words)
from groupshift.specfmt import ShiftSpec
from groupshift.words import Word


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y == g == gcd(a, b) and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def unit_for(a: int, modulus: int) -> int:
    """A unit u mod `modulus` with (a * u) % modulus == gcd(a, modulus)."""
    a %= modulus
    if a == 0:
        return 1
    g = math.gcd(a, modulus)
    a1, m1 = a // g, modulus // g
    inv = pow(a1, -1, m1) if m1 > 1 else 1
    # lift inv to a unit modulo the full modulus
    for t in range(modulus // m1):
        c = (inv + t * m1) % modulus
        if math.gcd(c, modulus) == 1:
            return c
    raise ArithmeticError("unit lift failed")  # pragma: no cover


def annihilator(a: int, modulus: int) -> int:
    """Generator of the ideal {x : a*x == 0 mod modulus}; 1 when a == 0."""
    a %= modulus
    if a == 0:
        return 1
    return modulus // math.gcd(a, modulus)


def coords_add(group: FiniteAbelianGroup, a, b) -> tuple[int, ...]:
    """The sum of two elements of the group, reduced per factor."""
    return tuple((x + y) % n for x, y, n in zip(a, b, group.orders))


def impulse(group: FiniteAbelianGroup, coords, position: int = 0) -> Word:
    return Word.make(group, position, [tuple(coords)])


def full_shift(alphabet: FiniteAbelianGroup) -> GroupShift:
    gens = []
    for j in range(alphabet.rank):
        coords = [0] * alphabet.rank
        coords[j] = 1
        gens.append(impulse(alphabet, coords))
    return GroupShift.make(alphabet, gens)


def restricted(w: Word, lo: int, hi: int) -> Word:
    """The word agreeing with w on [lo, hi] and zero outside."""
    a = max(lo - w.start, 0)
    return Word.trimmed(w.group, w.start + a, w.symbols[a:max(hi + 1 - w.start, a)])


def agrees_on(x: Word, y: Word, lo: int, hi: int) -> bool:
    """Whether x and y have the same symbols on [lo, hi]."""
    return all(x.value_at(i) == y.value_at(i) for i in range(lo, hi + 1))


def word_span(words: Iterable[Word]) -> tuple[int, int] | None:
    """Smallest interval containing the supports of all nonzero words."""
    lo = None
    hi = None
    for w in words:
        if w.is_zero:
            continue
        lo = w.first if lo is None else min(lo, w.first)
        hi = w.last if hi is None else max(hi, w.last)
    if lo is None:
        return None
    return lo, hi


def window_projection_heads(module, keep_lo, keep_hi, zero_positions, kill_scale=None,
                            kill_positions=None):
    """`residues.projection_heads` on a window module, with positions for
    columns: the projection to [keep_lo, keep_hi] of {v : kill_scale*v == 0
    on kill_positions (the whole window when None)} with and without
    `zero_positions` zeroed, as `WindowModule.constrained_projection` runs
    it."""
    lo, r = module.lo, module.shift.alphabet.rank
    if kill_positions is None:
        kill_positions = range(lo, module.hi + 1)
    kill = [((p - lo) * r, r, kill_scale) for p in kill_positions if kill_scale is not None]
    return projection_heads(module.packed, module.modulus, kill,
                            [((p - lo) * r, r) for p in zero_positions],
                            (keep_lo - lo) * r, (keep_hi - lo + 1) * r)


def mirrored_near_end(shift: GroupShift, mirror: bool, kind=1) -> list[HowellForm]:
    """Reference for `shifts._near_end`: the state sequence T_d(0), T_d(1),
    ... to one state past its fixed point, walked from width 0 (from S(inf)
    for ("far", d)).  The tail side walks the mirrored generators, so its
    states come out with their positions reversed (`reversed_state`).  Each
    step below width s-1 masks the frame positions below 0 (cut kinds) or
    leaves out the placements that reach below 0 ("whole"), and a cut
    sequence stops at its first repeat from width s on."""
    s, r = shift.span, shift.alphabet.rank
    m, cols = shift.alphabet.modulus, s * r
    far = isinstance(kind, tuple)
    gens = [Word(g.group, 0, g.symbols[::-1]) if mirror else g for g in shift.generators]
    frame = [(len(g.symbols), x) for g in gens for x in g.placed_rows([-g.last], 1 - s, cols)]
    states = [mirrored_near_end(shift, mirror)[-1] if far else
              HowellForm(m, max(cols - r, 0), (), ())]
    d = kind[1] if far else 1 if kind == "whole" else kind
    w = _lane_layout(m, cols)[0]
    while s > 1 and not (len(states) > (1 if far else s) and
                         states[-1].packed == states[-2].packed):
        cut = 0 if far else max(s - len(states), 0) * r * w  # frame positions below 0
        step = [x for n, x in frame if n <= len(states)] if kind == "whole" else \
            [x >> cut << cut for _, x in frame]
        states.append(projection_heads([*states[-1].packed, *step], m, [(0, r, d)], [],
                                       r, cols)[0])
    return states


def reversed_state(form: HowellForm, rank: int) -> HowellForm:
    """The canonical form of a near-end state with its positions reversed."""
    m, ncols = form.modulus, form.ncols
    w, n = _lane_layout(m, ncols)[0], ncols // rank if rank else 0
    lane = (1 << rank * w) - 1
    rows = [sum((x >> i * rank * w & lane) << (n - 1 - i) * rank * w for i in range(n))
            for x in form.packed]
    return howell_form(PackedRows(tuple(rows), ncols), m)


def splice_property_holds(shift: GroupShift, n: int, reach: int) -> bool:
    """Reference splice check on the full window [-reach, n + reach] with the
    block [0, n]: every element vanishing on the block matches on the strict
    right part one that also vanishes on the whole left half, so zeroing the
    left half keeps the right projection of the block-vanishing submodule,
    decided by one elimination."""
    kept, heads = window_projection_heads(shift.window(-reach, n + reach), n + 1, n + reach,
                                          range(-reach, 0), kill_scale=1,
                                          kill_positions=range(0, n + 1))
    return all(map(kept.contains, heads))


def padded_supported_words(shift: GroupShift, lo: int, hi: int, margin: int,
                           torsion_scale: int | None = None) -> HowellForm:
    """Reference for `shifts.supported_words`: the words certified at a
    margin, the projection to [lo, hi] of the elements of the window [lo -
    margin, hi + margin] that vanish on both pads (with torsion_scale * v ==
    0 on the whole window when given).  It equals the exact form once the
    margin exceeds the shift's memory, and can be larger below that."""
    module = shift.window(lo - margin, hi + margin)
    pads = list(range(lo - margin, lo)) + list(range(hi + 1, hi + margin + 1))
    return module.constrained_projection(lo, hi, zero_positions=pads,
                                         kill_scale=torsion_scale)


def divisible(shift: GroupShift, x: Word, p: int, h: int) -> bool:
    """Reference for the tap division and the heights of
    `encoders.canonical_generators`: whether x = p^h * y for a certified
    finite word y of any support, exactly, for p^h below exp(H).  Moved to
    the block [1, B], B its support length, x must lie in p^h times the rows
    of its boundary window (`shifts._boundary_rows`) with U_{p^h} at its
    fixed point on both near ends: those rows span the windows of the y that
    vanish far out and are p^h-torsion off the block, and p^h * y must
    vanish on the near ends."""
    d, m = p ** h, shift.alphabet.modulus
    rows, ncols, a, _ = _boundary_rows(shift, x.support_length, ("far", d))
    red = _lane_layout(m, ncols)[2]  # products stay below m^2
    form = howell_form(PackedRows(tuple(red(d * row) for row in rows), ncols), m)
    return form.contains(x.placed_rows([1 - x.first], 1 - a // shift.alphabet.rank, ncols)[0])


def padded_word_height(shift: GroupShift, x: Word, p: int, order_index: int,
                       max_h: int) -> int:
    """Reference for the heights of `encoders.canonical_generators`, the
    padded height search: the largest h <= max_h with a certified finite y
    solving p^h y = x, by lifts with supports padded by h*(order index + 1)
    per step.  It can stop below the height where every y is wider than
    that pad, which `divisible` decides exactly."""
    if x.is_zero:
        raise ValueError("height of the zero word is infinite")
    h = 0
    while h < max_h:
        pad = (h + 1) * (order_index + 1)
        if lift_height(shift, x, p, h + 1, pad) is None:
            break
        h += 1
    return h


def capped_torsion_form(shift: GroupShift, p: int, top: int, cap: int) -> HowellForm:
    """Reference for the form F of `shifts.torsion_presentation`: the window
    form on [0, top] of G[p] presented by the distinct translates to 0 of the
    certified p-torsion words supported in [0, cap - 1].  Each candidate's
    packed row is moved down to its first nonzero position, and each
    distinct one is placed at every offset that meets [0, top].  It lies in
    the exact F, and equals it once the cap reaches the words that F needs."""
    r, m = shift.alphabet.rank, shift.alphabet.modulus
    cands = supported_words(shift, cap, torsion_scale=p)
    ncols = (top + 1) * r
    pos = r * _lane_layout(m, ncols)[0]  # bits per position
    starts = dict.fromkeys(x >> ((x & -x).bit_length() - 1) // pos * pos for x in cands.packed)
    rows = [row for x in starts for row in placed_rows(
        x, m, range(-((x.bit_length() - 1) // pos) * r, ncols, r), ncols)]
    return howell_form(PackedRows(tuple(rows), ncols), m)


def form_words(shift: GroupShift, form: HowellForm) -> list[Word]:
    """The words of the rows of a certified-words form, placed at 0."""
    return [Word.from_window_vector(shift.alphabet, 0, row) for row in form.rows]


def padded_member(shift: GroupShift, w: Word, margin: int) -> bool:
    """Reference for `shifts.member`, its margin-padded window: whether the
    restriction of w to its support padded by the margin lies in the window
    module there.  It equals membership once the margin exceeds the shift's
    memory, as the splice block of memory N holds N + 1 positions, and can
    accept a non-member below that."""
    if w.is_zero:
        return True
    lo, hi = w.first - margin, w.last + margin
    return shift.window(lo, hi).form.contains(w.window_vector(lo, hi))


def exact_margins(shift: GroupShift) -> list[int]:
    """Margins at which the padded references are exact: max(3s + 6, 12),
    past every memory the tests' draws reach, and the verified memory + 1
    where `finite_type_memory` finds one below 7."""
    memory = finite_type_memory(shift, 6).memory
    return [max(3 * shift.span + 6, 12)] + ([memory + 1] if memory is not None else [])


def padded_initial_value_space(shift: GroupShift, p: int, margin: int,
                               support_cap: int) -> int:
    """Reference for the initial-value rank of
    `encoders.canonical_generators`, its margin-padded projection: the F_p
    rank of the projection to position 0 of the p-torsion elements of the
    window [-margin, support_cap - 1 + margin] that vanish on [-margin, -1].
    It equals the exact rank once the margin exceeds the shift's memory."""
    module = shift.window(-margin, support_cap - 1 + margin)
    return module.constrained_projection(0, 0, zero_positions=range(-margin, 0),
                                         kill_scale=p).rank


def translated_slack(encoder, horizon: int) -> int:
    """The references' message slack memory + horizon + 1, counted from the
    taps translated to start at 0: a tap that starts at k moves every
    preimage by -k, so the slack grows by the largest |k|."""
    return encoder.memory + horizon + 1 + max(
        (abs(tap.first) for tap in encoder.taps if not tap.is_zero), default=0)


def slack_noncatastrophic(encoder, shift: GroupShift, horizon: int, margin: int,
                          slack: int | None = None):
    """Reference for `encoders.check_noncatastrophic`, its elimination at a
    message slack: the forward tap loop at the margin (`padded_member`),
    then for each t <= horizon the span of each nonzero tap placed at
    -s..t+s, s = the slack (default `translated_slack`, so that translating
    the taps does not change the verdict), on a window covering all of
    them, cut to its elements zero outside [0, t], must contain every row of
    the certified form on [0, t], built for that width alone.  Returns
    (verdict, witness) as the report does."""
    for tap in encoder.taps:
        if not padded_member(shift, tap, margin):
            return False, tap
    m, r = encoder.alphabet.modulus, encoder.alphabet.rank
    taps = [tap for tap in encoder.taps if not tap.is_zero]
    first = min((tap.first for tap in taps), default=0)
    last = max((tap.last for tap in taps), default=0)
    s = translated_slack(encoder, horizon) if slack is None else slack
    for t in range(horizon + 1):
        lo, hi = min(0, first - s), max(t, last + t + s)
        ncols, a, b = (hi - lo + 1) * r, -lo * r, (t + 1 - lo) * r
        rows = [row for tap in taps
                for row in tap.placed_rows(range(-s, t + s + 1), lo, ncols)]
        kept, _ = projection_heads(rows, m, (), [(0, a), (b, ncols - b)], a, b)
        form = supported_words(shift, t + 1)
        bad = next((i for i, x in enumerate(form.packed) if not kept.contains(x)), None)
        if bad is not None:
            return False, Word.from_window_vector(shift.alphabet, 0, form.rows[bad])
    return True, None


def per_t_noncatastrophic(encoder, shift: GroupShift, horizon: int):
    """Reference for `encoders.check_noncatastrophic`, its loop over t: the
    same forward tap lookup and the same I_H on the block [1, H+1], then for
    each t <= horizon every row of the certified words on [0, t], the
    `zero_prefix` of one form, checked against I_H; the witness is the
    first failing row of the least failing t.  Returns (verdict, witness)
    as the report does."""
    width = max([horizon + 1, *(tap.support_length for tap in encoder.taps)])
    words, r = supported_words(shift, width), shift.alphabet.rank
    for tap in encoder.taps:
        if not (tap.is_zero or words.zero_prefix((width - tap.support_length) * r)
                .contains(tap.window_vector(tap.first, tap.last))):
            return False, tap
    taps = GroupShift.make(encoder.alphabet, encoder.taps)
    rows, ncols, a, b = _boundary_rows(taps, horizon + 1, "whole")
    kept, _ = projection_heads(rows, encoder.alphabet.modulus, (),
                               [(0, a), (b, ncols - b)], a, b)
    for t in range(horizon + 1):
        form = words.zero_prefix((width - 1 - t) * r)
        bad = next((i for i, x in enumerate(form.packed) if not kept.contains(x)), None)
        if bad is not None:
            return False, Word.from_window_vector(shift.alphabet, 0, form.rows[bad])
    return True, None


def is_torsion(w: Word, p: int) -> bool:
    return w.scaled(p).is_zero


def enumerate_elements(form):
    """Yield every element of the row span of a Howell form exactly once."""
    m, n = form.modulus, form.ncols
    for coeffs in itertools.product(*(range(m // d) for _, d in form.pivots)):
        yield unpack_rows([combine_rows(coeffs, form.packed, m, n)], m, n)[0]


def format_spec(spec: ShiftSpec) -> str:
    shift = spec.shift
    lines = [f"group: {shift.alphabet.format()}"]
    if shift.memory_hint is not None:
        lines.append(f"memory: {shift.memory_hint}")
    if spec.horizon_override is not None:
        lines.append(f"horizon: {spec.horizon_override}")
    for g in shift.generators:
        lines.append("gen " + g.format())
    return "\n".join(lines) + "\n"


def make_shift(group_text, gens, memory=None):
    """gens: list of (start, [symbol tuples or ints])."""
    group = FiniteAbelianGroup.parse(group_text)
    words = []
    for start, symbols in gens:
        syms = [(s,) if isinstance(s, int) else tuple(s) for s in symbols]
        words.append(Word.make(group, start, syms))
    return GroupShift.make(group, words, memory)


@pytest.fixture
def z2():
    return FiniteAbelianGroup.parse("Z2")


@pytest.fixture
def z4():
    return FiniteAbelianGroup.parse("Z4")


@pytest.fixture
def delay_rep():
    """Proper subshift over Z2 x Z2: second coordinate echoes the first with
    one step of delay."""
    return make_shift("Z2 x Z2", [(0, [(1, 0), (0, 1)])])


GROUP_POOL = ["Z2", "Z3", "Z4", "Z5", "Z7", "Z8", "Z2 x Z2", "Z2 x Z4", "Z6",
              "Z2 x Z2 x Z2", "Z3 x Z3"]


def random_shift(rng: random.Random, max_gens=2, max_support=3,
                 pool=GROUP_POOL):
    group = FiniteAbelianGroup.parse(rng.choice(pool))
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        length = rng.randrange(1, max_support + 1)
        syms = [tuple(rng.randrange(n) for n in group.orders)
                for _ in range(length)]
        w = Word.make(group, rng.randrange(-1, 2), syms)
        if not w.is_zero:
            gens.append(w)
    if not gens:
        gens = [impulse(group, tuple(1 if i == 0 else 0 for i in range(group.rank)))]
    return GroupShift.make(group, gens)


def assert_decided_table(shift: GroupShift, search, ordered: bool) -> None:
    """Decide every candidate n <= cap of the search with `_steering_condition`
    (its verdict at every past window from the fixed reach on), on a fresh
    copy of the shift whose table holds none of the search's verdicts: the
    verdicts are monotone, hold first at the search's index, and begin with
    its condition table, which the search reads off that index."""
    fresh = GroupShift(shift.alphabet, shift.generators, shift.memory_hint)
    exp = shift.alphabet.exponent
    scales = _divisors(exp) if ordered else [exp]
    verdicts = [_steering_condition(fresh, n, scales) for n in range(search.cap + 1)]
    assert verdicts == sorted(verdicts), (shift, verdicts)
    assert search.index == next((n for n, ok in enumerate(verdicts) if ok), None), shift
    assert tuple(verdicts[:len(search.condition_table)]) == search.condition_table, shift


def brute_force_span(rows, modulus, width):
    """Closure of the integer span of the rows inside (Z/modulus)^width."""
    span = {tuple([0] * width)}
    for row in rows:
        new = set()
        for base in span:
            cur = list(base)
            for _ in range(modulus):
                new.add(tuple(cur))
                cur = [(a + b) % modulus for a, b in zip(cur, row)]
        span = new
    return span



def tuple_combine_rows(coeffs, rows, m, width=None):
    """Reference for `residues.combine_rows` on tuple rows: sum_i coeffs[i] *
    rows[i] mod m as a list (`width` sizes an empty row list)."""
    acc = [0] * (len(rows[0]) if rows else width or 0)
    for c, row in zip(coeffs, rows):
        if c:
            acc = [(a + c * x) % m for a, x in zip(acc, row)]
    return acc


def tuple_reduce(rows, pivots, m, ncols, vec):
    """Greedy leading-term reduction of a tuple vector by tuple rows:
    (residual, coefficients per row)."""
    res = [x % m for x in vec]
    if len(res) != ncols:
        raise ValueError("dimension mismatch")
    coeffs = [0] * len(rows)
    for i, (c, d) in enumerate(pivots):
        q = res[c] // d
        if q:
            coeffs[i] = q
            res[c:] = [(x - q * y) % m for x, y in zip(res[c:], rows[i][c:])]
    return tuple(res), tuple(coeffs)


def howell_reduce(form: HowellForm, vec) -> tuple[Vec, Vec]:
    """Greedy leading-term reduction of `vec`, ncols residues or one packed
    row, by a Howell form: (residual, coefficients per row).  The residual
    is the packed one of `HowellForm._reduce`, unpacked; the coefficients,
    which `_reduce` does not keep, come from `tuple_reduce` on the form's
    unpacked rows."""
    m, n = form.modulus, form.ncols
    residual = unpack_rows([form._reduce(vec)], m, n)[0]
    tuple_vec = unpack_rows([vec], m, n)[0] if isinstance(vec, int) else vec
    return residual, tuple_reduce(form.rows, form.pivots, m, n, tuple_vec)[1]


def two_step_express(solver: RowSolver, target):
    """Reference for `RowSolver.express`, its two steps: reduce the target by
    the form of R, combine the transform rows (the I part of the rows of
    the Howell form of [R | I] with a pivot among R's columns) with the
    reduction's coefficients, and reduce that solution by the kernel's form
    to the canonical one.  None when the target is not a combination."""
    m, n = solver.modulus, solver.gens.ncols
    w = _lane_layout(m, n)[0]
    aug = tuple(row | 1 << (n + i) * w for i, row in enumerate(solver.gens.entries))
    full = howell_form(PackedRows(aug, n + len(aug)), m)
    residual, row_coeffs = howell_reduce(full.prefix(n), target)
    if any(residual):
        return None
    transform = [row >> n * w for row in full.packed[:len(row_coeffs)]]
    return howell_reduce(full.zero_prefix(n),
                         combine_rows(row_coeffs, transform, m, len(aug)))[0]


def random_message(encoder, rng: random.Random, reach: int) -> Word:
    """A random finite message over the encoder's source alphabet: 1 to
    reach + 1 symbols starting in [-reach, reach]."""
    src = encoder.source
    if src.rank == 0:
        return Word.zero(src)
    start = rng.randrange(-reach, reach + 1)
    length = rng.randrange(1, reach + 2)
    syms = [tuple(rng.randrange(n) for n in src.orders) for _ in range(length)]
    return Word.make(src, start, syms)


# -- steps of the paper's proofs, kept as reference code -----------------------


class SpliceFailed(Exception):
    """The glued word is not in the shift."""


def splice(shift: GroupShift, x1: Word, x2: Word, k: int, n: int) -> Word:
    """The word equal to x1 left of k+n and to x2 right of k, checked.

    The inputs must be members that agree on the block [k, k+n]; the gluing
    is unique, and a member whenever n is at least the shift's memory.
    """
    if x1.group != shift.alphabet or x2.group != shift.alphabet:
        raise ValueError("alphabet mismatch")
    if not agrees_on(x1, x2, k, k + n):
        raise ValueError("words disagree on the splice block")
    if not (member(shift, x1) and member(shift, x2)):
        raise ValueError("splice inputs must be members")
    span = word_span([x1, x2])
    if span is None:
        return Word.zero(shift.alphabet)
    lo = min(span[0], k) - 1
    hi = max(span[1], k + n) + 1
    glued = Word.make(shift.alphabet, lo,
                      [x1.value_at(i) if i <= k + n else x2.value_at(i)
                       for i in range(lo, hi + 1)])
    if not member(shift, glued):
        raise SpliceFailed(f"glued word is not in the shift: no splice at N={n}")
    return glued


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


# -- deciders of certificate lines that hold by construction, kept as reference code


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
