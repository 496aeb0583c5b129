"""Window-scale controllability analysis of group shift presentations.

Three notions are decided on finite windows: weak controllability (window
modules generated by restrictions of finite-support members), the plain
steering index n_c (any past can be driven to zero within n steps), and the
order-respecting index n_o (the steering element's order on the steering
block divides that of the original).  The plain condition is the order
condition's scale exp(H), decided by the same elimination, so n_c <= n_o.
Every verdict records the window geometry it was computed at; the past
window L(n) is at least the reach where both near-end states are fixed
(`default_past_horizon`), so a steering verdict on [-L, n+L] is the one at
L = inf, decided exactly on a boundary window around the block [1, n] by
the engine that decides finite type too (`shifts._boundary_heads`), in the
shift's one table.  So the condition table is monotone: it is searched by
probing the candidates 0, 1, 2, 4, ..., cap and read off the index.  Weak
controllability of the p-torsion subshift holds by construction where n_o
exists, as in `certify`; otherwise it is read off the p-primary component's
`shifts.torsion_presentation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import _prime_power_factors
from .residues import PackedRows, _lane_layout, howell_form
from .shifts import (GroupShift, Horizons, _boundary_heads, _fixed_reach, primary_shift,
                     torsion_presentation)
from .words import Word

#: Candidates the condition table runs past the index, read off it, so that
#: `analyze` shows the condition staying satisfied.
_CONFIRM_STEPS = 2


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in _prime_power_factors(n):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def default_past_horizon(shift: GroupShift, candidate: int) -> int:
    """Past-window length L(n) used when none is given: 2 * (span + n),
    raised to the reach R where both near-end states are fixed
    (`shifts._fixed_reach`).  At L >= R the verdict V(n, L) is the one at
    L = inf, and V(n, L+1) implies V(n+1, L): the element V(n, L+1) gives
    for a lift of g to [-L-1, n+1+L], cut back to [-L, n+1+L], matches g's
    past, is zero on [n+1, n+1+L] and meets d*v == 0 on [1, n+1].  So the
    verdicts at L(n) are monotone in n, for every shift."""
    return max(2 * (shift.span + candidate), _fixed_reach(shift))


@dataclass(frozen=True)
class IndexSearch:
    """Outcome of a least-index search for one controllability notion."""

    index: int | None
    cap: int
    past_horizons: tuple[int, ...]       # L(n) per candidate n in the table
    condition_table: tuple[bool, ...]    # verdict per n, read off the index
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


def _steering_condition(shift: GroupShift, n: int, scales: list[int]) -> bool:
    """Decide the steering condition at candidate index n, at every past
    window L >= `shifts._fixed_reach`.

    Plain variant (scales [exp(H)]): every g in G|[-L, n+L] matches some g1
    with the same past [-L, 0] and zero tail [n+1, n+L], which is one
    equality of past projections.  Ordered variant additionally demands
    order(g1|[1,n]) | order(g|[1,n]); split by divisors d of exp(H), "order
    divides d" is the linear condition d*(restriction to [1,n]) == 0, so each
    divisor d yields one equality between d-constrained past projections,
    decided on the boundary window by `shifts._boundary_heads`, which gives
    every scale where the demand is vacuous the plain verdict.  The verdict
    is an all() over the scales, so their order is free: a failing scale
    moves to the front of `scales`, where the next candidate tries it first.
    """
    for i, d in enumerate(scales):
        if not _boundary_heads(shift, n, d)[2]:
            scales.insert(0, scales.pop(i))
            return False
    return True


def _steering_witness(shift: GroupShift, n: int, past: int, scales: list[int]) -> Word:
    """A past in G|[-L, n+L] that no element with zero tail [n+1, n+L]
    matches, at the first failing scale in ascending order: the first row of
    the canonical past projection outside the tail-constrained one.

    Both projections are the span of the placements ending in [-L, 0] plus
    the failing boundary elimination's rows on [2-s, 0], the kept rows for
    the tail-constrained one and the heads too for the other.  One Howell
    form over [-L, 0] and one marker column per head reads both: its rows
    with pivot on [-L, 0], cut there, are the canonical past projection, and
    such a row lies in the tail-constrained one exactly when its markers lie
    in the span of the rows with pivot among the markers."""
    for d in sorted(scales):
        kept, heads, holds = _boundary_heads(shift, n, d)
        if holds:
            continue
        r, m = shift.alphabet.rank, kept.modulus
        cols = (past + 1) * r
        w = _lane_layout(m, cols)[0]
        at = (2 - shift.span + past) * r * w  # 2-s on [-L, 0]
        # the placements ending on [-L, 0], cut at -L
        rows = [x for g in shift.generators
                for x in g.placed_rows(range(-past - g.last, 1 - g.last), -past, cols)]
        rows += [*(x << at for x in kept.packed),
                 *((x << at) + (1 << (cols + i) * w) for i, x in enumerate(heads))]
        form = howell_form(PackedRows(tuple(rows), cols + len(heads)), m)
        markers = form.zero_prefix(cols)
        row = next(row for row, x, (c, _) in zip(form.rows, form.packed, form.pivots)
                   if c < cols and not markers.contains(x >> cols * w))
        return Word.from_window_vector(shift.alphabet, -past, row[:cols])
    raise ArithmeticError(f"steering condition at n={n}, L={past} has no witness")


def _least_index(shift: GroupShift, cap: int, scales: list[int]) -> int | None:
    """Least candidate n <= cap whose steering condition holds, or None: the
    table is monotone (`default_past_horizon`), so the candidates 0, 1, 2,
    4, ..., cap are probed and the bracket below the first passing probe is
    scanned upward; the conditions reorder the caller's fresh list of scales."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    low = 0
    for probe in sorted({0, cap, *(1 << k for k in range(cap.bit_length()))}):
        if _steering_condition(shift, probe, scales):
            return next((n for n in range(low, probe)
                         if _steering_condition(shift, n, scales)), probe)
        low = probe + 1
    return None


def _index_search(shift: GroupShift, cap: int, scales: list[int]) -> IndexSearch:
    """`_least_index`, with the condition table read off it `_CONFIRM_STEPS`
    candidates past it (to cap, with the cap's witness, when none holds)."""
    found = _least_index(shift, cap, scales)
    size = cap + 1 if found is None else min(cap, found + _CONFIRM_STEPS) + 1
    witness = None if found is not None else _steering_witness(
        shift, cap, default_past_horizon(shift, cap), scales)
    return IndexSearch(found, cap, tuple(default_past_horizon(shift, n) for n in range(size)),
                       tuple(found is not None and n >= found for n in range(size)), witness)


def controllability_index(shift: GroupShift, cap: int) -> IndexSearch:
    """Least n <= cap steering every window past to zero, or absent."""
    return _index_search(shift, cap, [shift.alphabet.exponent])


def order_controllability_index(shift: GroupShift, cap: int) -> IndexSearch:
    """Least n <= cap steering with order divisibility on [1, n], or absent."""
    return _index_search(shift, cap, _divisors(shift.alphabet.exponent))


@dataclass(frozen=True)
class WeakControllabilityReport:
    holds: bool
    windows: tuple[tuple[int, int], ...]
    detail: str = ""


def socle_controllability(shift: GroupShift, p: int,
                          horizons: Horizons) -> WeakControllabilityReport:
    """Weak controllability of the p-torsion subshift on the windows
    [0,0]..[0,window_horizon].  It holds by construction when the order
    search finds n_o <= n_cap (`encoders._by_construction_checks`: for g in
    G[p], the cuts at n_o and d = p give a finite p-torsion word equal to g
    on [0, t]); the search's verdicts live in the shift's table, which
    `analyze_controllability` reuses.  Otherwise it is read off
    `shifts.torsion_presentation` of the p-primary component, a direct
    summand of G that holds G[p]."""
    windows = tuple((0, t) for t in range(horizons.window_horizon + 1))
    if _least_index(shift, horizons.n_cap, _divisors(shift.alphabet.exponent)) is not None:
        return WeakControllabilityReport(True, windows)
    failing = torsion_presentation(primary_shift(shift, p), p, horizons)[2]
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
    window contributor is a placed generator, a finite-support member);
    "socle" checks the p-torsion subshift with `socle_controllability` at
    the derived horizons, with the window horizon given here.  The margin
    reaches no verdict; it stays because perfbench/ops.py:run_analyze
    passes it.
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
    # the plain verdicts are the order search's scale-exp(H) ones, in one table
    plain = controllability_index(shift, cap)
    ordered = order_controllability_index(shift, cap)
    return ControllabilityReport(shift, weak.holds, weak.windows, plain, ordered)
