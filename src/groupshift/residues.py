"""Exact linear algebra over residue rings Z/m.

Everything here works with plain Python integers reduced into [0, m).  The
canonical row form is the Howell form, which is unique per row span over any
Z/m and therefore usable for module equality tests; plain row echelon is not
canonical over rings with zero divisors.  Over Z/p^e the p-torsion entries
form p^(e-1) Z/p^e, a copy of F_p, so the Howell form of p-torsion vectors is
an F_p basis: its rank is the F_p rank and `contains` is F_p membership.

Every Howell form comes from one elimination kernel, `_eliminate`, which
packs each row into one int: entry j sits in lane bits [j*w, (j+1)*w).  The
lane width w is byte-aligned and holds every value a row operation forms
(below m^2), so a row operation is a few big-int operations and one lane
reduction: `& MASK` for m = 2^e, SWAR Barrett for any other m.  It runs
over Z/p^e; a composite m is split into its prime powers by CRT.  Live rows
wait in buckets keyed by their leading lane.  Rows stay packed from
`placed_rows` through `projection_heads` and `_eliminate` into `HowellForm`,
whose `contains`, `zero_prefix`, `prefix` and `spans_same` work on one int
per row; `HowellForm.rows` unpacks them for the callers that build words or
report lines.  `howell_form` and `row_solver` take tuple rows or
`PackedRows`, `RowSolver` solves by one reduction on packed rows and
`combine_rows` forms packed combinations.  `projection_heads` is the one
routine that builds constrained rows, moving column runs: its `kept` rows
are the canonical constrained projection.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .groups import _prime_power_factors

MAX_MODULUS = 1 << 31
#: Default cap on the elements a module or code enumeration may produce.
ENUM_CAP = 1 << 20

Vec = tuple[int, ...]

#: Little-endian struct codes of the lane widths up to 64 bits, in bytes.
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
#: Every byte value, in order; `residue_table` repeats a prefix of it.
_BYTE_VALUES = bytes(range(256))


def residue_table(m: int) -> bytes:
    """The `bytes.translate` table taking each byte to its residue mod m."""
    return (_BYTE_VALUES[:m] * -(-256 // m))[:256]


class EnumerationCapExceeded(Exception):
    """An enumeration would exceed the configured element cap."""


def validate_modulus(modulus: int) -> None:
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if modulus > MAX_MODULUS:
        raise ValueError(f"modulus {modulus} exceeds the 2**31 cap")


@dataclass(frozen=True)
class HowellForm:
    """Canonical row form over Z/modulus: unique for a given row span.  Each
    row is one packed int (`_lane_layout`)."""

    modulus: int
    ncols: int
    packed: tuple[int, ...]
    pivots: tuple[tuple[int, int], ...]  # (column, pivot value) per row

    @cached_property
    def rows(self) -> tuple[Vec, ...]:
        return unpack_rows(self.packed, self.modulus, self.ncols)

    @property
    def rank(self) -> int:
        return len(self.packed)

    def size(self) -> int:
        """Number of elements of the row span."""
        return math.prod(self.modulus // d for _, d in self.pivots)

    @cached_property
    def _pivot_rows(self) -> dict[int, int]:
        """Row index per pivot column."""
        return {c: i for i, (c, _) in enumerate(self.pivots)}

    def _reduce(self, vec: Sequence[int] | int) -> int:
        """The packed residual of greedy leading-term reduction of `vec`,
        ncols residues or one packed row.  A step is red(x + q*(K - row)),
        below m^2 per lane as in `_eliminate`.  A row changes only lanes from
        its pivot column on, so the scan jumps from one nonzero lane of the
        residual to the next and visits no other pivot."""
        m, n = self.modulus, self.ncols
        w, k_lanes, red = _lane_layout(m, n)
        x = vec if isinstance(vec, int) else pack_rows([vec], m, n)[0]
        lane = (1 << w) - 1
        at = 0  # lanes below bit `at` are final
        while y := x >> at:
            at += ((y & -y).bit_length() - 1) // w * w
            i = self._pivot_rows.get(at // w)
            if i is not None:
                q = ((x >> at) & lane) // self.pivots[i][1]
                if q:
                    x = red(x + q * (k_lanes - self.packed[i]))
            at += w
        return x

    def contains(self, vec: Sequence[int] | int) -> bool:
        return not self._reduce(vec)

    def zero_prefix(self, k: int) -> "HowellForm":
        """Canonical form of {v[k:] : v in the span, v[:k] == 0}.

        By the Howell property the rows with pivot column >= k span exactly
        the span elements that vanish on the first k columns, and they are
        already in Howell form, so no reduction runs: each is shifted down
        by k lanes.
        """
        i = sum(c < k for c, _ in self.pivots)  # pivot columns ascend
        at = k * _lane_layout(self.modulus, self.ncols)[0]
        return HowellForm(self.modulus, self.ncols - k,
                          tuple(row >> at for row in self.packed[i:]),
                          tuple((c - k, d) for c, d in self.pivots[i:]))

    def prefix(self, k: int) -> "HowellForm":
        """Canonical form of the projection to the first k columns: by the
        Howell property, as in `zero_prefix`, the rows with pivot column < k,
        each cut to k lanes."""
        i = sum(c < k for c, _ in self.pivots)
        cut = (1 << k * _lane_layout(self.modulus, self.ncols)[0]) - 1
        return HowellForm(self.modulus, k, tuple(row & cut for row in self.packed[:i]),
                          self.pivots[:i])

    def spans_same(self, other: "HowellForm") -> bool:
        return (self.modulus, self.ncols, self.packed) == (other.modulus, other.ncols,
                                                           other.packed)


def _lane_bytes(bits: int) -> int:
    """Bytes of a lane holding `bits` bits: a struct item size up to 64
    bits, whole bytes past it."""
    nbytes = -(-bits // 8)
    return next((n for n in _CODES if n >= nbytes), nbytes)


@lru_cache(maxsize=1024)
def _lane_layout(m: int, ncols: int) -> tuple[int, int, Callable[[int], int]]:
    """(lane width w in bits, m in every lane, lane reduction mod m) for rows
    of `ncols` residues mod m packed into one int.

    Every value a row operation forms is below m^2 per lane, so no lane
    carries into the next.  For m = 2^e `& MASK` reduces it (w >= 2e).  For
    any other m it is SWAR Barrett: Q = ((Z * mu) >> s) & QMASK with
    s = bits(m^2 - 1) and mu = floor(2^s / m) leaves Z - m*Q in [0, 2m), and
    one subtraction of m, selected per lane by the guard bit k of
    Z - m*Q + 2^k - m, lands in [0, m); w holds (m^2 - 1) * mu, and the
    bits of Z * mu below s spill into the lane below, above QMASK.
    Widths round up to 1, 2, 4 or 8 bytes, or to whole bytes past 64 bits.
    """
    zmax = m * m - 1
    if m & (m - 1) == 0:
        w = 8 * _lane_bytes(zmax.bit_length())
        ones = ((1 << w * ncols) - 1) // ((1 << w) - 1)
        return w, m * ones, ((m - 1) * ones).__and__
    s = zmax.bit_length()
    mu = (1 << s) // m
    w = 8 * _lane_bytes((zmax * mu).bit_length())
    ones = ((1 << w * ncols) - 1) // ((1 << w) - 1)
    qmask = ((1 << w - s) - 1) * ones
    k = m.bit_length() + 1
    guard = ((1 << k) - m) * ones

    def barrett(z: int) -> int:
        r = z - m * (((z * mu) >> s) & qmask)
        return r - m * (((r + guard) >> k) & ones)

    return w, m * ones, barrett


def _lanes_to_bytes(vals: list[int], nbytes: int) -> bytes:
    code = _CODES.get(nbytes)
    if code:
        return struct.pack(f"<{len(vals)}{code}", *vals)
    return b"".join(x.to_bytes(nbytes, "little") for x in vals)


def _bytes_to_lanes(raw: bytes, nbytes: int) -> Sequence[int]:
    """The little-endian lanes of `nbytes` bytes each in `raw`."""
    code = _CODES.get(nbytes)
    if code:
        return struct.unpack(f"<{len(raw) // nbytes}{code}", raw)
    return tuple(int.from_bytes(raw[i:i + nbytes], "little")
                 for i in range(0, len(raw), nbytes))


def pack_rows(rows: Sequence[Sequence[int]], m: int, ncols: int) -> list[int]:
    """The rows as ints of `ncols` lanes (`_lane_layout`), entries reduced mod m.

    For m <= 256 entries in [0, 256) are reduced by one byte translation
    (`residue_table`) and copied into the low byte of each lane; any others
    are reduced one by one and packed by `_lanes_to_bytes`.
    """
    if set(map(len, rows)) - {ncols}:
        raise ValueError(f"rows must have {ncols} entries")
    nbytes = _lane_layout(m, ncols)[0] // 8
    try:
        low = b"".join(map(bytes, rows)) if m <= 256 else None
    except ValueError:  # an entry outside [0, 256)
        low = None
    if low is not None:
        raw = bytearray(nbytes * len(low))
        raw[::nbytes] = low.translate(residue_table(m))
    else:
        raw = _lanes_to_bytes([x % m for r in rows for x in r], nbytes)
    size = nbytes * ncols
    return [int.from_bytes(raw[i * size:(i + 1) * size], "little") for i in range(len(rows))]


def placed_rows(vec: Sequence[int] | int, modulus: int, offsets: Iterable[int],
                ncols: int) -> list[int]:
    """Packed rows of `ncols` columns, one per offset o, each holding entry j
    of `vec` (residues or one packed row) at column o + j (o may be
    negative) and 0 in every other column."""
    w = _lane_layout(modulus, ncols)[0]
    x = vec if isinstance(vec, int) else pack_rows([vec], modulus, len(vec))[0]
    cut = (1 << w * ncols) - 1
    return [(x << o * w if o >= 0 else x >> -o * w) & cut for o in offsets]


def unpack_rows(packed: Sequence[int], modulus: int, ncols: int) -> tuple[Vec, ...]:
    """The residue tuples of packed rows of `ncols` columns."""
    nbytes = _lane_layout(modulus, ncols)[0] // 8
    raw = b"".join(row.to_bytes(nbytes * ncols, "little") for row in packed)
    flat = _bytes_to_lanes(raw, nbytes)
    return tuple(flat[i * ncols:(i + 1) * ncols] for i in range(len(packed)))


@lru_cache(maxsize=64)
def _pivot_arithmetic(m: int) -> tuple[tuple[tuple[int, int], ...], Callable, Callable]:
    """((prime power q, CRT idempotent) per prime of m, memoized gcd with m,
    memoized unit of nonzero lane values mod m = p^e): a = p^v * a' has the
    unit a'^-1 mod p^(e-v), which takes it to its gcd p^v."""
    memo = lru_cache(maxsize=1024)
    gcd = memo(partial(math.gcd, m))
    parts = tuple((p ** e, m // p ** e * pow(m // p ** e, -1, p ** e))
                  for p, e in _prime_power_factors(m))
    return parts, gcd, memo(lambda a: pow(a // gcd(a), -1, m // gcd(a)))


def _eliminate(rows: Iterable[int], m: int, ncols: int,
               drop: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Howell elimination: (packed rows, (column, pivot value) per row),
    pivot columns ascending.  Rows with pivot column >= `drop` are in Howell
    form; the rows left of it are never back-reduced.

    Over m = p^e the pivot per column is the first live entry of least
    valuation, scaled to its gcd d with m; the scan stops at a unit.  d
    divides every entry of its column, so one subtraction clears each.
    Saturation gives the Howell property that `zero_prefix` reads.  Gcds and
    units of lane values are looked up in `_pivot_arithmetic`.  A composite
    m is split into its prime powers by `_crt_eliminate`.

    The rows come and leave packed, each one int with entry j in [0, m) at
    lane bits [j*w, (j+1)*w) (`_lane_layout`).  A row operation Y - q*X is
    the lane reduction of Y + q*(K - X), K holding m in every lane.  Live
    rows sit in buckets by leading lane, each in the order the rows went
    live, so a column touches only the rows that lead there.
    """
    parts, gcd, unit = _pivot_arithmetic(m)
    if len(parts) > 1:
        return _crt_eliminate(rows, m, ncols, drop, parts)
    w, k_lanes, red = _lane_layout(m, ncols)
    lane = (1 << w) - 1
    buckets: list[list[int]] = [[] for _ in range(ncols)]
    for row in rows:
        if row:
            buckets[((row & -row).bit_length() - 1) // w].append(row)
    done: list[int] = []
    dropped = 0
    pivots: list[tuple[int, int]] = []
    for c, hits in enumerate(buckets):
        if not hits:
            continue
        at = c * w
        if len(hits) == 1:  # a lone live row is the pivot row
            row = hits.pop()
            d = gcd(a := (row >> at) & lane)
        else:
            d, best = m, 0  # every live entry here is nonzero, so its gcd is below m
            for j, h in enumerate(hits):
                g = gcd((h >> at) & lane)
                if g < d:
                    d, best = g, j
                    if g == 1:
                        break
            row = hits.pop(best)
            a = (row >> at) & lane
        tail = row if a == d else red(unit(a) * row)
        neg = k_lanes - tail
        for rj in hits:
            if rj := red(rj + ((rj >> at) & lane) // d * neg):
                buckets[((rj & -rj).bit_length() - 1) // w].append(rj)
        buckets[c] = []
        # reduce entries above the pivot into [0, d)
        for i in range(dropped, len(done)):
            q = ((done[i] >> at) & lane) // d
            if q:
                done[i] = red(done[i] + q * neg)
        # saturation: the annihilator m/d times the pivot row re-enters the
        # worklist so later columns see every combination with zero lead
        if d > 1 and (row := red(m // d * tail)):
            buckets[((row & -row).bit_length() - 1) // w].append(row)
        done.append(tail)
        pivots.append((c, d))
        dropped += c < drop
    return done, pivots


def _crt_eliminate(rows: Iterable[int], m: int, ncols: int, drop: int,
                   parts: tuple[tuple[int, int], ...]) -> tuple[list[int], list[tuple[int, int]]]:
    """`_eliminate` over a composite m: one elimination per prime power q of
    m with no back-reduction, merged per pivot column into the sum of
    e_q * (D / d_q) * row_q over the q with a pivot d_q there, e_q the CRT
    idempotent and D = m / prod(q / d_q) the merged pivot.  It is a unit
    multiple of row_q mod each such q and zero mod the others, so the Howell
    property holds, and back-reduction as in `_eliminate` makes the rows
    from `drop` on the unique Howell form."""
    w, k_lanes, red = _lane_layout(m, ncols)
    flat = unpack_rows(list(rows), m, ncols)
    merge: dict[int, list[tuple[int, int, int, int]]] = {}  # column: (q/d_q, e_q, d_q, row_q)
    for q, e in parts:
        q_rows, q_pivots = _eliminate(pack_rows(flat, q, ncols), q, ncols, ncols)
        for row, (c, d) in zip(pack_rows(unpack_rows(q_rows, q, ncols), m, ncols), q_pivots):
            merge.setdefault(c, []).append((q // d, e, d, row))
    done, pivots, dropped, lane = [], [], 0, (1 << w) - 1
    for c in sorted(merge):
        big = m // math.prod(t[0] for t in merge[c])
        tail = combine_rows([e * (big // d) for _, e, d, _ in merge[c]],
                            [t[3] for t in merge[c]], m, ncols)
        at, neg = c * w, k_lanes - tail
        for i in range(dropped, len(done)):
            q = ((done[i] >> at) & lane) // big
            if q:
                done[i] = red(done[i] + q * neg)
        done.append(tail)
        pivots.append((c, big))
        dropped += c < drop
    return done, pivots


class PackedRows(NamedTuple):
    """Rows packed by `pack_rows` for `howell_form`, entries in [0, m)."""

    entries: tuple[int, ...]
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.entries)


def _as_packed(rows: Sequence[Sequence[int]] | PackedRows, modulus: int,
               ncols: int | None) -> PackedRows:
    """The rows packed (`ncols` sizes an empty list of tuple rows)."""
    validate_modulus(modulus)
    if isinstance(rows, PackedRows):
        return rows
    ncols = len(rows[0]) if rows else (ncols or 0)
    return PackedRows(tuple(pack_rows(rows, modulus, ncols)), ncols)


def combine_rows(coeffs: Iterable[int], rows: Iterable[int], m: int, ncols: int) -> int:
    """sum_i coeffs[i] * rows[i] mod m over packed rows of `ncols` lanes, one
    lane reduction per nonzero coefficient."""
    red = _lane_layout(m, ncols)[2]
    acc = 0
    for c, row in zip(coeffs, rows):
        c %= m
        if c:
            acc = red(acc + c * row)  # below m^2 per lane
    return acc


def howell_form(rows: Sequence[Sequence[int]] | PackedRows, modulus: int,
                ncols: int | None = None) -> HowellForm:
    """Canonical Howell row form of the given rows (`ncols` sizes an empty
    list of tuple rows)."""
    rows = _as_packed(rows, modulus, ncols)
    done, pivots = _eliminate(rows.entries, modulus, rows.ncols, 0)
    return HowellForm(modulus, rows.ncols, tuple(done), tuple(pivots))


def projection_heads(packed_rows: Iterable[int], modulus: int,
                     conditions: Sequence[tuple[int, int, int]],
                     zeros: Sequence[tuple[int, int]],
                     lo: int, hi: int) -> tuple[HowellForm, list[int]]:
    """(kept, heads) for the projection to [lo, hi) of the `conditions`
    submodule of the span of `packed_rows` (packed as by `placed_rows`) with
    and without the `zeros` columns zeroed.  A condition is a run (first
    column, count, scale): scale*v[c] == 0 on each of its columns; a zero
    run is (first column, count).

    One elimination over [conditions | zero columns | kept part]: its rows
    with pivot in the kept part (`kept`) span the projection with the zero
    columns added as conditions, and by the Howell property the kept parts
    of the rows with pivot among the zero columns (`heads`, packed rows of
    kept width) span the one without them together with `kept`.  So zeroing
    keeps the projection exactly when every head lies in `kept`.  The rows
    from `drop` on are back-reduced, so `kept` is the canonical projection
    with the zero columns as conditions, as in `HowellForm.zero_prefix`;
    `howell_form` of `kept` with the heads appended is the one without them.
    The rows left of `drop` are not back-reduced, and need not be: greedy
    leading-term reduction decides membership from the Howell property alone.
    A run moves by one shift and mask (adjacent runs of one scale as one);
    runs of scale other than 1 take a product and one lane reduction a row.
    """
    validate_modulus(modulus)
    runs: list[list[int]] = []  # [source column, count, scale]
    for c, n, s in [*conditions, *((c, n, 1) for c, n in zeros), (lo, hi - lo, 1)]:
        if runs and runs[-1][2] == s % modulus and runs[-1][0] + runs[-1][1] == c:
            runs[-1][1] += n
        elif n:
            runs.append([c, n, s % modulus])
    k = sum(n for _, n, _ in conditions)
    drop = k + sum(n for _, n in zeros)
    w, _, red = _lane_layout(modulus, ncols := drop + hi - lo)
    moves = [(c * w, (1 << n * w) - 1, to * w, s) for (c, n, s), to in
             zip(runs, accumulate([n for _, n, _ in runs], initial=0))]
    plain, scaled = [mv[:3] for mv in moves if mv[3] == 1], [mv for mv in moves if mv[3] != 1]
    ext = []
    for row in packed_rows:
        x = y = 0
        for at, cut, to in plain:
            x |= (row >> at & cut) << to
        for at, cut, to, s in scaled:
            y |= (row >> at & cut) * s << to  # below m^2 per lane
        ext.append(x | red(y) if scaled else x)
    done, pivots = _eliminate(ext, modulus, ncols, drop)
    i = sum(c < drop for c, _ in pivots)  # pivot columns ascend
    kept = HowellForm(modulus, hi - lo, tuple(row >> drop * w for row in done[i:]),
                      tuple((c - drop, d) for c, d in pivots[i:]))
    return kept, [row >> drop * w for row, (c, _) in zip(done, pivots) if k <= c < drop]


@dataclass(frozen=True)
class RowSolver:
    """Expresses targets as Z-combinations of a fixed generating row list.

    Holds one Howell form of the augmented rows [R | I], the packed
    generators with one identity lane each.  Every row [a | c] of it has
    a == c @ R.  Its rows with a pivot among R's columns, cut there, are
    the form of R (`prefix`), and the rest, read off by `zero_prefix`, the
    coefficient kernel {c : c @ R == 0}.  `express` reduces [-target | 0]
    by it: the greedy steps subtract sum q_i [a_i | c_i], so when R's
    columns reduce to zero, -sum q_i c_i solves c @ R == target, and the
    reduction has run on through the kernel rows, which leaves the unique
    normal form of the solution's coset of the kernel.
    """

    modulus: int
    gens: PackedRows

    @cached_property
    def _data(self) -> HowellForm:
        m, n = self.modulus, self.gens.ncols
        w = _lane_layout(m, n)[0]
        aug = tuple(row | 1 << (n + i) * w for i, row in enumerate(self.gens.entries))
        return howell_form(PackedRows(aug, n + len(aug)), m)

    @property
    def form(self) -> HowellForm:
        return self._data.prefix(self.gens.ncols)

    @property
    def kernel(self) -> HowellForm:
        return self._data.zero_prefix(self.gens.ncols)

    def express(self, target: Sequence[int] | int) -> Optional[Vec]:
        """Canonical coefficients c with c @ gens == target, or None."""
        full, m, n = self._data, self.modulus, self.gens.ncols
        w, k_lanes, red = _lane_layout(m, full.ncols)
        low = (1 << n * w) - 1  # R's columns
        x = target if isinstance(target, int) else pack_rows([target], m, n)[0]
        residual = full._reduce(red((k_lanes & low) - x))
        if residual & low:
            return None
        return unpack_rows([residual >> n * w], m, full.ncols - n)[0]


def row_solver(rows: Sequence[Sequence[int]] | PackedRows, modulus: int,
               ncols: int | None = None) -> RowSolver:
    return RowSolver(modulus, _as_packed(rows, modulus, ncols))
