import itertools
import math
import random

import pytest

from groupshift.groups import FiniteAbelianGroup
from groupshift.residues import HowellForm, combine_rows, projection_heads, unpack_rows
from groupshift.shifts import GroupShift, finite_type_memory, supported_words
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
    """Reference for `encoders.initial_value_space`, its margin-padded
    projection: the F_p rank of the projection to position 0 of the
    p-torsion elements of the window [-margin, support_cap - 1 + margin]
    that vanish on [-margin, -1].  It equals the exact rank once the margin
    exceeds the shift's memory."""
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
