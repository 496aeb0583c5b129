"""Window-scale controllability analysis of group shift presentations.

Three notions are decided on finite windows: weak controllability (window
modules generated by restrictions of finite-support members), the plain
steering index n_c (any past can be driven to zero within n steps), and the
order-respecting index n_o (the steering element's order on the steering
block divides that of the original).  The plain condition is the order
condition's scale exp(H), decided by the same elimination, so n_c <= n_o.
Every verdict records the window geometry it was computed at; a steering
verdict on [-L, n+L] is decided exactly on a boundary window around the
block [1, n], whose width does not grow with L (`_steering_verdict`); a
monotone condition table (`_steering_is_monotone`) is searched by probing
the candidates 0, 1, 2, 4, ..., cap and read off the index.  Weak
controllability of the p-torsion subshift is read off the p-primary
component's `shifts.torsion_presentation`, which `encoders.socle_shift`
returns in `certify`, so `analyze` and `certify` decide it alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import _prime_power_factors
from .residues import (HowellForm, PackedRows, _eliminate, _lane_layout, howell_form,
                       projection_heads)
from .shifts import GroupShift, Horizons, primary_shift, torsion_presentation
from .words import Word

#: Candidates the condition table runs past the first success: read off
#: the index when the table is monotone (`_steering_is_monotone`), decided
#: otherwise, so the table still witnesses monotonicity past the index.
_CONFIRM_STEPS = 2


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in _prime_power_factors(n):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def default_past_horizon(shift: GroupShift, candidate: int) -> int:
    """Past-window length used when none is given: 2 * (span + candidate)."""
    return max(1, 2 * (shift.span + candidate))


@dataclass(frozen=True)
class IndexSearch:
    """Outcome of a least-index search for one controllability notion."""

    index: int | None
    cap: int
    past_horizons: tuple[int, ...]       # L used per candidate n = 0..cap
    condition_table: tuple[bool, ...]    # verdict per n, or off a monotone table's index
    witness: Word | None                 # failing window element when absent


@dataclass(frozen=True)
class ControllabilityReport:
    shift: GroupShift
    weakly_controllable: bool
    weak_witness_windows: tuple[tuple[int, int], ...]
    plain: IndexSearch
    ordered: IndexSearch

    @property
    def n_c(self) -> int | None:
        return self.plain.index

    @property
    def n_o(self) -> int | None:
        return self.ordered.index


def _vacuous(shift: GroupShift, n: int, d: int) -> bool:
    """True when d*(restriction to [1, n]) == 0 holds for every element: at
    n == 0, where there is no position to constrain, and for d a multiple of
    the exponent of the generated group, such as exp(H)."""
    return n == 0 or d % shift.exponent == 0


def _past_rows(shift: GroupShift, past: int) -> list[int]:
    """Packed rows on the L+1 positions [-L, 0] of the placements that end
    there, cut at -L."""
    r = shift.alphabet.rank
    return [x for g in shift.generators
            for x in g.placed_rows(range(-past - g.last, 1 - g.last), -past, (past + 1) * r)]


def _near_end(shift: GroupShift, width: int, mirror: bool, ends: dict) -> HowellForm:
    """The near-end state S(width): the span of the placements ending at or
    before width-1, cut at position 0, intersected with the vectors supported
    on the last s-1 positions of [0, width-1] (s the span), as a canonical
    form over those s-1 positions (positions below 0 read zero).  `mirror`
    reverses every generator's symbols.

    S(W+1) = (S(W) + placements ending at W) ∩ {vanishing at W-s+1}: the
    s-position frame [W-s+1, W] is eliminated and its first position
    dropped by `zero_prefix`.  From W = s-1 on no placement is cut, so the
    step is a fixed map and the sequence stops at its first repeat.  The
    frame rows of the placements and the sequence are kept in `ends` per
    `mirror`.  Computing each S(L+1) directly instead, one elimination of
    the L+1 positions per candidate, gave about 19% fewer `certify` ops/s."""
    s, r = shift.span, shift.alphabet.rank
    m, cols = shift.alphabet.modulus, s * r
    if mirror not in ends:
        gens = [Word(g.group, 0, g.symbols[::-1]) if mirror else g for g in shift.generators]
        frame = [x for g in gens for x in g.placed_rows([-g.last], 1 - s, cols)]
        ends[mirror] = frame, [HowellForm(m, cols - r, (), ())]
    frame, states = ends[mirror]
    w = _lane_layout(m, cols)[0]
    while len(states) <= width and not (len(states) > s and
                                        states[-1].packed == states[-2].packed):
        cut = max(s - len(states), 0) * r * w  # frame positions below 0
        done, pivots = _eliminate([*states[-1].packed, *(x >> cut << cut for x in frame)],
                                  m, cols, 0)
        states.append(HowellForm(m, cols, tuple(done), tuple(pivots)).zero_prefix(r))
    return states[min(width, len(states) - 1)]


def _boundary_heads(shift: GroupShift, n: int, past: int, d: int | None,
                    ends: dict) -> tuple[HowellForm, list[int]]:
    """The (kept, heads) elimination of the steering condition at candidate
    index n, past window L and scale d (None: no order demand) on the
    boundary window [lo, hi] = [2-s, n+s-1] clipped to [-L, n+L], s the
    span; the kept part is the past near end [lo, 0].

    The window holds the placements that meet the block [1, n] or straddle
    it, the past near-end state S(L+1) on [lo, 0] and the tail near-end
    state on [n+1, hi], the mirrored shift's S(L) with its positions
    reversed (`_near_end`) by lane shifts, once per state into `ends`.  A
    placement that lies in the past or in the tail meets the rest of
    [-L, n+L] only on those near-end positions, so standing in the submodule
    it generates there for it changes either past projection of the full
    window only by the span of the past-only placements.  Conditions d*v on
    [1, n], zero columns on the tail near end, kept part on the past near
    end.  With s <= 1 no placement straddles a position and there is
    nothing to eliminate."""
    s, r = shift.span, shift.alphabet.rank
    m = shift.alphabet.modulus
    if s <= 1:
        return HowellForm(m, 0, (), ()), []
    lo, hi = max(2 - s, -past), min(n + s - 1, n + past)
    ncols, tail_col = (hi - lo + 1) * r, (n + 1 - lo) * r
    w = _lane_layout(m, ncols)[0]
    # the states read zero where the window is clipped, so the lanes that
    # these shifts move out of [lo, hi] are zero
    rows = [x >> (lo + s - 2) * r * w for x in _near_end(shift, past + 1, False, ends).packed]
    state, tails = _near_end(shift, past, True, ends).packed, ends.setdefault("tails", {})
    if state not in tails:
        tails[state] = [sum((x >> i * r * w & (1 << r * w) - 1) << (s - 2 - i) * r * w
                            for i in range(s - 1)) for x in state]
    rows += [x << tail_col * w for x in tails[state]]
    for g in shift.generators:
        rows += g.placed_rows(range(1 - g.last, n - g.first + 1), lo, ncols)
    kill = [] if d is None else [((1 - lo) * r, n * r, d)]
    return projection_heads(rows, m, kill, [(tail_col, ncols - tail_col)], 0, (1 - lo) * r)


def _steering_verdict(shift: GroupShift, n: int, past: int, d: int, made: dict,
                      ends: dict) -> tuple[HowellForm, list[int], bool]:
    """(kept, heads, verdict) of the steering condition at candidate index n,
    past window L and scale d, made once per (n, L, verdict key) into `made`
    by one boundary elimination (`_boundary_heads`): the condition holds
    when every head lies in the kept rows.  Every scale where the order
    demand is vacuous (`_vacuous`) shares the verdict key of the plain
    condition."""
    key = (n, past, None if _vacuous(shift, n, d) else d)
    if key not in made:
        kept, heads = _boundary_heads(shift, n, past, key[2], ends)
        made[key] = kept, heads, all(map(kept.contains, heads))
    return made[key]


def _steering_condition(shift: GroupShift, n: int, past: int,
                        scales: list[int], made: dict, ends: dict) -> bool:
    """Decide the steering condition at candidate index n, past window L.

    Plain variant (scales [exp(H)]): every g in G|[-L, n+L] matches some g1
    with the same past [-L, 0] and zero tail [n+1, n+L], which is one
    equality of past projections.  Ordered variant additionally demands
    order(g1|[1,n]) | order(g|[1,n]); split by divisors d of exp(H), "order
    divides d" is the linear condition d*(restriction to [1,n]) == 0, so each
    divisor d yields one equality between d-constrained past projections,
    decided on the boundary window by `_steering_verdict`.  The verdict is
    an all() over the scales, so their order is free: a failing scale moves
    to the front of `scales`, where the next candidate tries it first.
    """
    for i, d in enumerate(scales):
        if not _steering_verdict(shift, n, past, d, made, ends)[2]:
            scales.insert(0, scales.pop(i))
            return False
    return True


def _steering_witness(shift: GroupShift, n: int, past: int, scales: list[int],
                      made: dict, ends: dict) -> Word:
    """A past in G|[-L, n+L] that no element with zero tail [n+1, n+L]
    matches, at the first failing scale in ascending order: the first row of
    the canonical past projection outside the tail-constrained one.

    Both projections are the span of the placements ending in [-L, 0] plus
    the failing boundary elimination's rows on [lo, 0], the kept rows for
    the tail-constrained one and the heads too for the other.  One Howell
    form over [-L, 0] and one marker column per head reads both: its rows
    with pivot on [-L, 0], cut there, are the canonical past projection, and
    such a row lies in the tail-constrained one exactly when its markers lie
    in the span of the rows with pivot among the markers."""
    for d in sorted(scales):
        kept, heads, holds = _steering_verdict(shift, n, past, d, made, ends)
        if holds:
            continue
        r, m = shift.alphabet.rank, kept.modulus
        cols = (past + 1) * r
        w = _lane_layout(m, cols)[0]
        at = (max(2 - shift.span, -past) + past) * r * w  # lo on [-L, 0]
        rows = [*_past_rows(shift, past), *(x << at for x in kept.packed),
                *((x << at) + (1 << (cols + i) * w) for i, x in enumerate(heads))]
        form = howell_form(PackedRows(tuple(rows), cols + len(heads)), m)
        markers = form.zero_prefix(cols)
        row = next(row for row, x, (c, _) in zip(form.rows, form.packed, form.pivots)
                   if c < cols and not markers.contains(x >> cols * w))
        return Word.from_window_vector(shift.alphabet, -past, row[:cols])
    raise ArithmeticError(f"steering condition at n={n}, L={past} has no witness")


def _steering_is_monotone(shift: GroupShift, ends: dict) -> bool:
    """True when V(n, L(n)) is monotone in n: the span s is at most 1 (every
    verdict holds), or both near-end states are fixed from L(0) = 2s on (the
    past one at width L(0)+1, the tail one at width L(0)).  Then V(n, L) is
    one verdict for all L >= L(0) >= s-1, and V(n, L+1) implies V(n+1, L):
    the element V(n, L+1) gives for a lift of g to [-L-1, n+1+L], cut back
    to [-L, n+1+L], matches g's past, is zero on [n+1, n+1+L] and meets
    d*v == 0 on [1, n+1]."""
    if shift.span <= 1:
        return True
    past = default_past_horizon(shift, 0)
    return all(_near_end(shift, w + 1, mirror, ends).packed ==
               _near_end(shift, w, mirror, ends).packed
               for w, mirror in ((past + 1, False), (past, True)))


def _index_search(shift: GroupShift, cap: int, scales: list[int], confirm: int,
                  memo: tuple[dict, dict] | None) -> IndexSearch:
    """Least candidate n <= cap whose steering condition holds, with the
    condition table run `confirm` candidates past it (to cap, and the cap
    candidate's witness, when none holds).  A monotone table
    (`_steering_is_monotone`) is probed at 0, 1, 2, 4, ..., cap, scanned
    upward in the bracket below the first passing probe and read off the
    index; otherwise every candidate is decided in ascending order.  `memo`
    holds the verdicts and near-end states, for searches over one shift to
    share; the conditions reorder the caller's fresh list of scales."""
    made, ends = memo or ({}, {})
    decided: dict[int, bool] = {}

    def decide(n: int) -> bool:
        if n not in decided:
            decided[n] = _steering_condition(shift, n, default_past_horizon(shift, n),
                                             scales, made, ends)
        return decided[n]

    monotone = _steering_is_monotone(shift, ends)
    probes = sorted({0, cap, *(1 << k for k in range(cap.bit_length()))}) \
        if monotone else range(cap + 1)
    found, low = None, 0
    for probe in probes:
        if decide(probe):
            found = next(n for n in range(low, probe + 1) if decide(n))
            break
        low = probe + 1
    size = cap + 1 if found is None else min(cap, found + confirm) + 1
    table = tuple(found is not None and n >= found if monotone else decide(n)
                  for n in range(size))
    witness = None if found is not None else _steering_witness(
        shift, cap, default_past_horizon(shift, cap), scales, made, ends)
    return IndexSearch(found, cap, tuple(default_past_horizon(shift, n) for n in range(size)),
                       table, witness)


def controllability_index(shift: GroupShift, cap: int,
                          memo: tuple[dict, dict] | None = None) -> IndexSearch:
    """Least n <= cap steering every window past to zero, or absent."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    return _index_search(shift, cap, [shift.alphabet.exponent], _CONFIRM_STEPS, memo)


def order_controllability_index(shift: GroupShift, cap: int, confirm: int = _CONFIRM_STEPS,
                                memo: tuple[dict, dict] | None = None) -> IndexSearch:
    """Least n <= cap steering with order divisibility on [1, n], or absent;
    the table runs `confirm` candidates past the least."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    return _index_search(shift, cap, _divisors(shift.alphabet.exponent), confirm, memo)


def monotone_after_success(search: IndexSearch) -> bool:
    """True when the condition stays satisfied for every n past the first."""
    seen = False
    for ok in search.condition_table:
        if seen and not ok:
            return False
        seen = seen or ok
    return True


@dataclass(frozen=True)
class WeakControllabilityReport:
    holds: bool
    windows: tuple[tuple[int, int], ...]
    detail: str = ""


def socle_controllability(shift: GroupShift, p: int,
                          horizons: Horizons) -> WeakControllabilityReport:
    """Weak controllability of the p-torsion subshift on the windows
    [0,0]..[0,window_horizon], read off `shifts.torsion_presentation` of the
    p-primary component, a direct summand of G that holds G[p]."""
    _, failing = torsion_presentation(primary_shift(shift, p), p, horizons)
    windows = tuple((0, t) for t in range(horizons.window_horizon + 1))
    if failing is None:
        return WeakControllabilityReport(True, windows)
    return WeakControllabilityReport(
        False, windows,
        f"torsion window [0,{failing}] not generated by finite torsion members")


def weak_controllability_check(shift: GroupShift, derived: str = "self",
                               p: int | None = None, horizon: int = 4,
                               margin: int | None = None) -> WeakControllabilityReport:
    """Check that finite-support members generate every window module.

    derived selects the shift examined: "self" holds by construction and is
    returned as that constant on the windows [0,0]..[0,horizon-1] (every
    window contributor is a placed generator, a finite-support member
    certified by its own padded window); "socle" checks the p-torsion
    subshift with `socle_controllability` at the derived horizons, with the
    window horizon and margin given here.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if derived == "self":
        return WeakControllabilityReport(True, tuple((0, t) for t in range(horizon)))
    if derived != "socle":
        raise ValueError(f"unknown derived shift selector {derived!r}")
    if p is None:
        raise ValueError("socle check needs the prime p")
    return socle_controllability(
        shift, p, Horizons.derive(shift, margin=margin, window_horizon=horizon))


def analyze_controllability(shift: GroupShift, cap: int = 16,
                            horizon: int = 4) -> ControllabilityReport:
    weak = weak_controllability_check(shift, "self", horizon=horizon)
    memo = {}, {}  # the plain verdicts are the order search's scale-exp(H) ones
    plain = controllability_index(shift, cap, memo)
    ordered = order_controllability_index(shift, cap, memo=memo)
    return ControllabilityReport(shift, weak.holds, weak.windows, plain, ordered)
