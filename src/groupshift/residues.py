"""Exact linear algebra over residue rings Z/m.

Everything here works with plain Python integers reduced into [0, m).  The
canonical row form is the Howell form, which is unique per row span over any
Z/m and therefore usable for module equality tests; plain row echelon is not
canonical over rings with zero divisors.  Over Z/p^e the p-torsion entries
form p^(e-1) Z/p^e, a copy of F_p, so the Howell form of p-torsion vectors is
an F_p basis: its rank is the F_p rank and `contains` is F_p membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

MAX_MODULUS = 1 << 31
#: Default cap on the elements a module or code enumeration may produce.
ENUM_CAP = 1 << 20

Vec = tuple[int, ...]


class EnumerationCapExceeded(Exception):
    """An enumeration would exceed the configured element cap."""


def validate_modulus(modulus: int) -> None:
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if modulus > MAX_MODULUS:
        raise ValueError(f"modulus {modulus} exceeds the 2**31 cap")


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


def combine_rows(coeffs: Sequence[int], rows: Sequence[Sequence[int]], m: int,
                 width: int | None = None) -> list[int]:
    """sum_i coeffs[i] * rows[i] mod m (`width` sizes an empty row list)."""
    acc = [0] * (len(rows[0]) if rows else width or 0)
    for c, row in zip(coeffs, rows):
        if c:
            acc = [(a + c * x) % m for a, x in zip(acc, row)]
    return acc


@dataclass(frozen=True)
class HowellForm:
    """Canonical row form over Z/modulus: unique for a given row span."""

    modulus: int
    ncols: int
    rows: tuple[Vec, ...]
    pivots: tuple[tuple[int, int], ...]  # (column, pivot value) per row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def size(self) -> int:
        """Number of elements of the row span."""
        total = 1
        for _, d in self.pivots:
            total *= self.modulus // d
        return total

    def reduce(self, vec: Sequence[int]) -> tuple[Vec, Vec]:
        """Greedy leading-term reduction: (residual, coefficients per row)."""
        m = self.modulus
        res = [x % m for x in vec]
        if len(res) != self.ncols:
            raise ValueError("dimension mismatch")
        coeffs = [0] * len(self.rows)
        for i, (c, d) in enumerate(self.pivots):
            q = res[c] // d
            if q:
                coeffs[i] = q
                res[c:] = [(x - q * y) % m for x, y in zip(res[c:], self.rows[i][c:])]
        return tuple(res), tuple(coeffs)

    def contains(self, vec: Sequence[int]) -> bool:
        residual, _ = self.reduce(vec)
        return not any(residual)

    def zero_prefix(self, k: int) -> "HowellForm":
        """Canonical form of {v[k:] : v in the span, v[:k] == 0}.

        By the Howell property the rows with pivot column >= k span exactly
        the span elements that vanish on the first k columns, and they are
        already in Howell form, so no reduction runs.
        """
        i = sum(c < k for c, _ in self.pivots)  # pivot columns ascend
        return HowellForm(self.modulus, self.ncols - k,
                          tuple(row[k:] for row in self.rows[i:]),
                          tuple((c - k, d) for c, d in self.pivots[i:]))

    def spans_same(self, other: "HowellForm") -> bool:
        return (self.modulus, self.ncols, self.rows) == (other.modulus, other.ncols, other.rows)

    def enumerate_elements(self) -> Iterator[Vec]:
        """Yield every element of the row span exactly once."""
        m = self.modulus
        ranges = [m // d for _, d in self.pivots]
        nrows = len(self.rows)

        def rec(i: int, acc: list[int]) -> Iterator[Vec]:
            if i == nrows:
                yield tuple(acc)
                return
            cur = acc
            for t in range(ranges[i]):
                if t:
                    cur = [(a + x) % m for a, x in zip(cur, self.rows[i])]
                yield from rec(i + 1, cur)

        yield from rec(0, [0] * self.ncols)


def _eliminate(rows: Sequence[Sequence[int]], m: int, ncols: int,
               drop: int) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Howell elimination: (rows, (column, pivot value) per row), pivot
    columns ascending.  Rows with pivot column >= `drop` are in Howell form;
    the rows left of it are never back-reduced.

    Per column the pivot is the live entry of least gcd d with the modulus
    (least valuation over Z/p^e), scaled to d; an entry d divides is cleared
    by one subtraction, any other (composite moduli only) by an xgcd fold.
    Live rows are zero left of the pivot column, so row operations start
    there.  Saturation gives the Howell property that `zero_prefix` reads.
    """
    live = [row for row in ([x % m for x in r] for r in rows) if any(row)]
    done: list[list[int]] = []
    dropped = 0
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        hits = [w for w in live if w[c]]
        if not hits:
            continue
        gcds = [math.gcd(w[c], m) for w in hits]
        d = min(gcds)
        row = hits.pop(gcds.index(d))
        u = unit_for(row[c], m)
        tail = [(u * x) % m for x in row[c:]] if u != 1 else row[c:]
        live = [w for w in live if not w[c]]
        for rj in hits:
            b = rj[c]
            if b % d == 0:
                q = b // d
                t = [(y - q * x) % m for x, y in zip(tail, rj[c:])]
            else:
                # unimodular fold of the two rows: det(x v - y u) = 1
                g, x, y = xgcd(d, b)
                u, v = -(b // g), d // g
                pairs = list(zip(tail, rj[c:]))
                tail = [(x * s + y * z) % m for s, z in pairs]
                t = [(u * s + v * z) % m for s, z in pairs]
                d = g
            if any(t):
                rj[c:] = t
                live.append(rj)
        row[c:] = tail
        # reduce entries above the pivot into [0, d)
        for rk in done[dropped:]:
            q = rk[c] // d
            if q:
                rk[c:] = [(y - q * x) % m for x, y in zip(tail, rk[c:])]
        # saturation: the annihilator multiple of the pivot row re-enters the
        # worklist so later columns see every combination with zero lead
        ann = annihilator(d, m)
        if ann % m:
            extra = [(ann * x) % m for x in tail]
            if any(extra):
                live.append([0] * c + extra)
        done.append(row)
        pivots.append((c, d))
        dropped += c < drop
    return done, pivots


def howell_form(rows: Sequence[Sequence[int]], modulus: int,
                ncols: int | None = None, drop: int = 0) -> HowellForm:
    """Canonical Howell row form of the given rows (`ncols` sizes an empty
    list), or with `drop` = k its `zero_prefix(k)`."""
    validate_modulus(modulus)
    ncols = len(rows[0]) if rows else (ncols or 0)
    done, pivots = _eliminate(rows, modulus, ncols, drop)
    form = HowellForm(modulus, ncols, tuple(map(tuple, done)), tuple(pivots))
    return form.zero_prefix(drop) if drop else form


def constrained_form(rows: Sequence[Sequence[int]], modulus: int,
                     conditions: Sequence[tuple[int, int]], lo: int, hi: int) -> HowellForm:
    """Canonical form of the projection to columns [lo, hi) of the submodule
    {v in span(rows) : k * v[c] == 0 for every (c, k) in conditions}: the rows
    of [conditions | kept part] zero on the condition columns span it."""
    ext = [[(k * row[c]) % modulus for c, k in conditions] + list(row[lo:hi])
           for row in rows]
    return howell_form(ext, modulus, len(conditions) + hi - lo, drop=len(conditions))


def projection_heads(rows: Sequence[Sequence[int]], modulus: int,
                     conditions: Sequence[tuple[int, int]], zero_cols: Sequence[int],
                     lo: int, hi: int) -> tuple[HowellForm, list[Vec]]:
    """(kept, heads) for the projection to [lo, hi) of the `conditions`
    submodule with and without `zero_cols` zeroed.

    One elimination over [conditions | zero columns | kept part]: its rows
    with pivot in the kept part (`kept`) span the projection with the zero
    columns added as conditions, and by the Howell property the kept parts
    of the rows with pivot among the zero columns (`heads`) span the one
    without them together with `kept`.  So zeroing keeps the projection
    exactly when every head lies in `kept`, and `howell_form(kept.rows +
    heads)` is `constrained_form(rows, modulus, conditions, lo, hi)`.
    Nothing is back-reduced, so `kept` is not canonical; greedy leading-term
    reduction still decides membership, which needs only the Howell property.
    """
    validate_modulus(modulus)
    k, drop = len(conditions), len(conditions) + len(zero_cols)
    ext = [[(s * row[c]) % modulus for c, s in conditions]
           + [row[c] for c in zero_cols] + list(row[lo:hi]) for row in rows]
    ncols = drop + hi - lo
    done, pivots = _eliminate(ext, modulus, ncols, ncols)
    kept = HowellForm(modulus, ncols, tuple(map(tuple, done)),
                      tuple(pivots)).zero_prefix(drop)
    return kept, [tuple(row[drop:]) for row, (c, _) in zip(done, pivots) if k <= c < drop]


@dataclass(frozen=True)
class RowSolver:
    """Expresses targets as Z-combinations of a fixed generating row list.

    Built from one Howell form of the augmented rows [R | I]: the rows with a
    pivot among R's columns give the form of R and the transform, and the
    rest, read off by `zero_prefix`, the coefficient kernel {c : c @ R == 0}.
    Provides membership and one canonical coefficient vector per target.
    """

    modulus: int
    gens: tuple[Vec, ...]
    ncols: int

    @cached_property
    def _data(self) -> tuple[HowellForm, tuple[Vec, ...], HowellForm]:
        m, n, k = self.modulus, self.ncols, len(self.gens)
        aug = [list(g) + [int(i == j) for j in range(k)] for i, g in enumerate(self.gens)]
        full = howell_form(aug, m, n + k)
        r = sum(c < n for c, _ in full.pivots)
        form = HowellForm(m, n, tuple(row[:n] for row in full.rows[:r]), full.pivots[:r])
        transform = tuple(row[n:] for row in full.rows[:r])
        return form, transform, full.zero_prefix(n)

    @property
    def form(self) -> HowellForm:
        return self._data[0]

    @property
    def kernel(self) -> HowellForm:
        return self._data[2]

    def express(self, target: Sequence[int]) -> Optional[Vec]:
        """Canonical coefficients c with c @ gens == target, or None."""
        form, transform, kernel = self._data
        residual, row_coeffs = form.reduce(target)
        if any(residual):
            return None
        coeffs = combine_rows(row_coeffs, transform, self.modulus, len(self.gens))
        # reduction by the kernel's Howell form picks one canonical solution
        return kernel.reduce(coeffs)[0]


def row_solver(rows: Sequence[Sequence[int]], modulus: int,
               ncols: int | None = None) -> RowSolver:
    validate_modulus(modulus)
    width = len(rows[0]) if rows else (ncols or 0)
    return RowSolver(modulus, tuple(tuple(x % modulus for x in r) for r in rows), width)

