"""Seeded input corpora for the four benchmark workloads.

Shift workloads (certify, analyze, oracle) draw from a fixed pool of shifts
stored in ``data/<workload>.json``.  The pool was drawn once by ``record.py``
with the shape rules below, deduplicated so that no two pool entries touch a
common ``lru_cache`` key, and stored with the reference result of every entry
at the commit that recorded it.  References exist only for a finite pool, so
the workload seed chooses and orders pool entries rather than drawing fresh
shifts.

The order is stratified: pool entries are split into equal-count bins by the
cost recorded with them, and every round of the schedule takes one entry from
each bin, visiting bins in bit-reversed order.  Any prefix of the schedule
then has the cost mix of the whole pool, which keeps the medians of a
run steady from seed to seed.  Entries that raised when they were recorded
(each costs seconds) are spread evenly through the schedule at their rate in
the pool, in a fixed order, so every run meets the same ones.  Pinned
entries (the two named ROADMAP cases of ``certify``) always run first.

A run does a fixed amount of work: the shortest schedule prefix whose
recorded cost reaches the requested seconds, measured on the seed-0 schedule
so that every seed runs the same number of operations (``run_length``).
Operations recorded below ``REPEAT_BELOW_S`` that did not raise run once in
each of ``PASSES`` fresh processes and count ``PASSES`` times towards that
cost (``repeated``); the others run once.

The encode workload has no pool: its messages are drawn from the seed and
checked against a naive tap sum, and only its encoders carry references.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import oracles
from groupshift.groups import FiniteAbelianGroup

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("certify", "analyze", "encode", "oracle")

ACCEPTANCE_POOL = ("Z2", "Z3", "Z4", "Z5", "Z7", "Z8", "Z2 x Z2", "Z2 x Z4",
                   "Z2 x Z2 x Z2", "Z6")


@dataclass(frozen=True)
class ShiftShape:
    """Shape rules for random shift presentations (all generators at @0)."""

    alphabets: tuple[str, ...]
    gens: tuple[int, int]      # inclusive range of generator count
    support: tuple[int, int]   # inclusive range of generator support length
    per_alphabet: int          # pool entries wanted per alphabet
    attempts: int              # draws tried per alphabet before giving up


SHAPES = {
    "certify": ShiftShape(
        ACCEPTANCE_POOL + ("Z8 x Z4", "Z4 x Z4", "Z16", "Z2 x Z8",
                           "Z4 x Z2 x Z2", "Z9 x Z3", "Z27", "Z25"),
        gens=(1, 2), support=(1, 3), per_alphabet=20, attempts=200),
    "analyze": ShiftShape(
        ("Z2", "Z3", "Z4", "Z5", "Z8", "Z9", "Z2 x Z2", "Z3 x Z3", "Z6",
         "Z10", "Z12", "Z2 x Z2 x Z3"),
        gens=(2, 3), support=(4, 5), per_alphabet=8, attempts=40),
    "oracle": ShiftShape(ACCEPTANCE_POOL, gens=(1, 2), support=(1, 3),
                         per_alphabet=16, attempts=200),
}

#: The two cases named in ROADMAP Open items 1 and 2; always run first.
ROADMAP_CASES = (
    ("Z8 x Z4", ((0, ((1, 2), (3, 1), (2, 2))), (0, ((0, 1), (4, 3))))),
    ("Z9 x Z3", ((0, ((1, 2), (3, 1), (2, 2))), (0, ((0, 1), (4, 0))))),
)

#: Encoders synthesized during encode set-up: taps of support >= 2, and the
#: last one mixes the primes 2 and 3.
ENCODER_SHIFTS = (
    ("Z2 x Z2", ((0, ((1, 1), (0, 0), (0, 1))),)),
    ("Z3 x Z3", ((0, ((0, 2), (2, 1), (2, 2))),)),
    ("Z2 x Z4", ((0, ((1, 2), (1, 0), (0, 2))),)),
    ("Z6 x Z6", ((0, ((1, 0, 1, 0), (0, 0, 0, 0), (0, 0, 1, 0))),
                 (0, ((0, 0, 0, 2), (0, 2, 0, 1), (0, 2, 0, 2))))),
)
#: Processes a run times its cheap operations in, and what counts as cheap.
PASSES = 3
REPEAT_BELOW_S = 0.5
MESSAGE_LENGTHS = (100, 1000)
ENCODE_OPS = 256
BINS = 64


def bit_reversed(n: int) -> list[int]:
    """0..n-1 in bit-reversed order (n a power of two)."""
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(n)]


def draw_shift(rng: random.Random, alphabet: str, shape: ShiftShape):
    """One random presentation as plain data: (alphabet, ((start, symbols), ...))."""
    orders = FiniteAbelianGroup.parse(alphabet).orders
    gens = []
    while not gens:
        for _ in range(rng.randint(*shape.gens)):
            length = rng.randint(*shape.support)
            syms = tuple(tuple(rng.randrange(n) for n in orders)
                         for _ in range(length))
            if any(any(s) for s in syms):
                gens.append((0, syms))
    return alphabet, tuple(gens)


def shift_key(alphabet: str, gens) -> str:
    """Stable text key of a presentation, used to match references."""
    body = " | ".join(f"@{start}: " + " ".join(
        "(" + ",".join(str(c) for c in sym) + ")" for sym in syms)
        for start, syms in gens)
    return f"{alphabet} :: {body}"


def load_pool(workload: str) -> dict:
    return json.loads((DATA_DIR / f"{workload}.json").read_text())


def schedule(entries: list[dict], seed: int, workload: str) -> list[dict]:
    """Pinned entries first, then cost-stratified rounds in seeded order,
    with the entries that raised when recorded spread evenly through it in
    a fixed order."""
    rng = random.Random(f"{workload}:{seed}")
    pinned = [e for e in entries if e.get("pinned")]
    rest = [e for e in entries if not e.get("pinned")]
    raising = [e for e in rest if e["ref"]["status"] == "raises"]
    ranked = sorted((e for e in rest if e["ref"]["status"] != "raises"),
                    key=lambda e: (e["cost_s"], e["key"]))
    n = len(ranked)
    bins = [ranked[b * n // BINS:(b + 1) * n // BINS] for b in range(BINS)]
    for b in bins:
        rng.shuffle(b)
    raising.sort(key=lambda e: e["key"])
    stratified = []
    visit = bit_reversed(BINS)
    while any(bins):
        for b in visit:
            if bins[b]:
                stratified.append(bins[b].pop())
    total = len(stratified) + len(raising)
    gap = total / len(raising) if raising else 0
    slots = {math.floor((k + 1) * gap) - 1: e for k, e in enumerate(raising)}
    rest_iter = iter(stratified)
    return pinned + [slots[i] if i in slots else next(rest_iter) for i in range(total)]


def oracle_hi(orders: tuple[int, ...]) -> int:
    """Right end of the oracle window by acceptance criterion 2's rule: the
    widest w <= 8 with |H|^w <= 2^15."""
    return oracles.widest_window(orders, 8, 1 << 15)


def message_lengths(seed: int) -> list[int]:
    """Encode message lengths, log-uniform over MESSAGE_LENGTHS: stratified
    into BINS bins of equal length ratio, one bin per group of E consecutive
    operations (one per encoder), bins visited in bit-reversed order.  Cost
    is quadratic in length, so log-uniform lengths spread the costs evenly
    over a decade instead of crowding them at the top."""
    rng = random.Random(f"encode-lengths:{seed}")
    lo, hi = MESSAGE_LENGTHS
    visit = bit_reversed(BINS)
    n_enc = len(ENCODER_SHIFTS)
    return [int(lo * (hi / lo) ** ((visit[(i // n_enc) % BINS] + rng.random()) / BINS))
            for i in range(ENCODE_OPS)]


def message_plan(seed: int, source_orders: list[tuple[int, ...]], count: int):
    """The first `count` seeded encode messages as (encoder index, symbols);
    op i uses encoder i mod E."""
    rng = random.Random(f"encode:{seed}")
    plan = []
    for i, length in enumerate(message_lengths(seed)[:count]):
        enc = i % len(source_orders)
        orders = source_orders[enc]
        plan.append((enc, tuple(tuple(rng.randrange(n) for n in orders)
                                for _ in range(length))))
    return plan


def expected_costs(workload: str, seed: int) -> list[tuple[float, bool]]:
    """Recorded cost per scheduled operation, and whether it raised; encode
    costs come from each encoder's recorded time for a 1000-symbol message,
    scaled by the square of the length (encode is quadratic at the
    recording commit)."""
    pool = load_pool(workload)
    if workload != "encode":
        return [(e["cost_s"], e["ref"]["status"] == "raises")
                for e in schedule(pool["entries"], seed, workload)]
    per_1000 = [e["cost_1000_s"] for e in pool["entries"]]
    return [(per_1000[i % len(per_1000)] * (n / 1000) ** 2, False)
            for i, n in enumerate(message_lengths(seed))]


def _again(cost: float, raised: bool) -> bool:
    return not raised and cost < REPEAT_BELOW_S


def repeated(workload: str, seed: int, count: int) -> list[int]:
    """Indices among the first `count` operations that run in every pass."""
    return [i for i, c in enumerate(expected_costs(workload, seed)[:count]) if _again(*c)]


def run_length(workload: str, seconds: float) -> int:
    """Operations per run: the shortest prefix of the seed-0 schedule whose
    recorded cost, with repeated operations counted once per pass, reaches
    `seconds`."""
    total = 0.0
    costs = expected_costs(workload, 0)
    for n, (cost, raised) in enumerate(costs):
        if total >= seconds:
            return n
        total += cost * (PASSES if _again(cost, raised) else 1)
    return len(costs)
