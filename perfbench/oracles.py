"""Independent references written in the benchmark, on plain tuples.

Nothing here calls the library, so a defect shared by the library's fast
paths cannot hide itself from these checks.
"""

from __future__ import annotations

import math


def trim(start: int, symbols: list[tuple[int, ...]]) -> tuple[int, tuple]:
    """(start, symbols) with zero symbols stripped from both ends; the zero
    word becomes (0, ())."""
    lo, hi = 0, len(symbols)
    while lo < hi and not any(symbols[lo]):
        lo += 1
    while hi > lo and not any(symbols[hi - 1]):
        hi -= 1
    if lo == hi:
        return 0, ()
    return start + lo, tuple(symbols[lo:hi])


def naive_encode(orders: tuple[int, ...], taps, msg_start: int, message) -> tuple[int, tuple]:
    """Per-position tap sum: out[t + i] += c_j(t) * tap_j[i] over all message
    positions t and source coordinates j.  taps are (start, symbols) pairs."""
    live = [(start, syms) for start, syms in taps if syms]
    if not message or not live:
        return 0, ()
    lo = msg_start + min(start for start, _ in live)
    hi = msg_start + len(message) - 1 + max(start + len(syms) - 1 for start, syms in live)
    rank = len(orders)
    out = [[0] * rank for _ in range(hi - lo + 1)]
    for t, coeffs in enumerate(message, start=msg_start):
        for (start, syms), c in zip(taps, coeffs):
            if not c:
                continue
            for i, sym in enumerate(syms):
                acc = out[t + start + i - lo]
                for k in range(rank):
                    acc[k] += c * sym[k]
    return trim(lo, [tuple(x % n for x, n in zip(acc, orders)) for acc in out])


def window_code(orders: tuple[int, ...], gens, lo: int, hi: int) -> frozenset:
    """All configurations on [lo, hi] of the group generated by every integer
    shift of the generator words, as flat coordinate tuples, by closure."""
    width = hi - lo + 1
    rank = len(orders)
    mods = orders * width
    elements = {(0,) * (rank * width)}
    for start, syms in gens:
        if not syms:
            continue
        first, last = start, start + len(syms) - 1
        for t in range(lo - last, hi - first + 1):
            flat = []
            for pos in range(lo, hi + 1):
                i = pos - start - t
                flat.extend(syms[i] if 0 <= i < len(syms) else (0,) * rank)
            order = 1
            for x, n in zip(flat, mods):
                order = math.lcm(order, n // math.gcd(n, x))
            if order == 1:
                continue
            new = set()
            for base in elements:
                cur = base
                for _ in range(order):
                    new.add(cur)
                    cur = tuple((a + b) % n for a, b, n in zip(cur, flat, mods))
            elements = new
    return frozenset(elements)


def widest_window(orders: tuple[int, ...], max_width: int, limit: int) -> int:
    """Right end of [0, w-1] for the widest w <= max_width with |H|^w <= limit
    (w >= 1)."""
    order = math.prod(orders)
    width = 1
    while width < max_width and order ** (width + 1) <= limit:
        width += 1
    return width - 1
