"""Window-scale controllability analysis of group shift presentations.

Three notions are decided on finite windows: weak controllability (window
modules generated by restrictions of finite-support members), the plain
steering index n_c (any past can be driven to zero within n steps), and the
order-respecting index n_o (the steering element's order on the steering
block divides that of the original).  The plain condition is the order
condition's scale exp(H), decided by the same elimination, so n_c <= n_o.
Every verdict records the window geometry it was computed at.  Weak
controllability of the p-torsion subshift is read off
`shifts.torsion_presentation`, the presentation that `encoders.socle_shift`
returns, so `analyze` and `certify` decide it alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import _prime_power_factors
from .residues import HowellForm, PackedRows, howell_form
from .shifts import GroupShift, Horizons, torsion_presentation
from .words import Word

#: Candidates scanned past the first success, so the condition table still
#: witnesses monotonicity past the index.
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
    condition_table: tuple[bool, ...]    # condition verdict per candidate n
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


def _steering_heads(shift: GroupShift, n: int, past: int, d: int,
                    made: dict) -> tuple[HowellForm, list[int]]:
    """The (kept, heads) elimination of the steering condition at candidate
    index n, past window L and scale d, made once into `made[d]`.  At
    d == exp(H) the order demand d*(restriction to [1,n]) == 0 is vacuous, so
    that scale is eliminated with no condition columns: it is the plain
    steering condition."""
    if d not in made:
        made[d] = shift.window(-past, n + past).projection_heads(
            -past, 0, range(n + 1, n + past + 1),
            kill_scale=None if d == shift.alphabet.exponent else d,
            kill_positions=range(1, n + 1))
    return made[d]


def _steering_condition(shift: GroupShift, n: int, past: int,
                        scales: list[int], made: dict) -> bool:
    """Decide the steering condition at candidate index n, past window L.

    Plain variant (scales [exp(H)]): every g in G|[-L, n+L] matches some g1
    with the same past [-L, 0] and zero tail [n+1, n+L], which is one
    equality of past projections.  Ordered variant additionally demands
    order(g1|[1,n]) | order(g|[1,n]); split by divisors d of exp(H), "order
    divides d" is the linear condition d*(restriction to [1,n]) == 0, so each
    divisor d yields one equality between d-constrained past projections,
    decided by one elimination; the divisor exp(H) is the plain condition.
    The verdict is an all() over the scales, so their order is free: a
    failing scale moves to the front of `scales`, where the next candidate
    tries it first.
    """
    for i, d in enumerate(scales):
        kept, heads = _steering_heads(shift, n, past, d, made)
        if not all(map(kept.contains, heads)):
            scales.insert(0, scales.pop(i))
            return False
    return True


def _steering_witness(shift: GroupShift, n: int, past: int,
                      scales: list[int], made: dict) -> Word:
    """A past in G|[-L, n+L] that no element with zero tail [n+1, n+L]
    matches, at the first failing scale in ascending order (read off the
    eliminations in `made` where the steering condition at the same n and L
    already ran them): the first row of the canonical past projection
    outside the tail-constrained one.  That canonical form is read off the
    same elimination, as the Howell form of its kept rows and heads."""
    for d in sorted(scales):
        kept, heads = _steering_heads(shift, n, past, d, made)
        if all(map(kept.contains, heads)):
            continue
        past_form = howell_form(PackedRows((*kept.packed, *heads), kept.ncols), kept.modulus)
        row = next(row for row, x in zip(past_form.rows, past_form.packed)
                   if not kept.contains(x))
        return Word.from_window_vector(shift.alphabet, -past, row)
    raise ArithmeticError(f"steering condition at n={n}, L={past} has no witness")


def _index_search(shift: GroupShift, cap: int, scales: list[int],
                  confirm: int) -> IndexSearch:
    """Scan candidates 0..cap, stopping `confirm` candidates after the first
    success; when none succeeds, the witness is the last failure's, read
    off that candidate's eliminations.  The steering conditions reorder the
    caller's fresh list of scales."""
    horizons = []
    table = []
    found = None
    n = 0
    while n <= cap and (found is None or n <= found + confirm):
        horizons.append(default_past_horizon(shift, n))
        made: dict = {}
        table.append(_steering_condition(shift, n, horizons[-1], scales, made))
        if table[-1] and found is None:
            found = n
        n += 1
    witness = None
    if found is None:
        witness = _steering_witness(shift, cap, horizons[-1], scales, made)
    return IndexSearch(found, cap, tuple(horizons), tuple(table), witness)


def controllability_index(shift: GroupShift, cap: int) -> IndexSearch:
    """Least n <= cap steering every window past to zero, or absent."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    return _index_search(shift, cap, [shift.alphabet.exponent], _CONFIRM_STEPS)


def order_controllability_index(shift: GroupShift, cap: int,
                                confirm: int = _CONFIRM_STEPS) -> IndexSearch:
    """Least n <= cap steering with order divisibility on [1, n], or absent;
    `confirm` further candidates are scanned past the least."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    return _index_search(shift, cap, _divisors(shift.alphabet.exponent), confirm)


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
    [0,0]..[0,window_horizon], read off `shifts.torsion_presentation`."""
    _, failing = torsion_presentation(shift, p, horizons)
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
    plain = controllability_index(shift, cap)
    ordered = order_controllability_index(shift, cap)
    return ControllabilityReport(shift, weak.holds, weak.windows, plain, ordered)
