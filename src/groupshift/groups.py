"""Finite abelian groups as ordered direct sums of cyclic prime-power factors.

Mixed-order cyclic inputs like Z12 are decomposed into prime-power factors at
parse time, so every stored group is already in primary-decomposed form.
Element coordinates are plain integer tuples reduced per factor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, reduce

Coords = tuple[int, ...]

_FACTOR_RE = re.compile(r"^[zZ]\s*(\d+)$")


def _prime_power_factors(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return _prime_power_factors(n) == [(n, 1)]


def parse_orders(text: str) -> tuple[int, ...]:
    """Cyclic factor orders as written in syntax like "Z4 x Z2 x Z9"
    ('x' or '*' separators)."""
    orders = []
    for part in re.split(r"[x*×]", text, flags=re.IGNORECASE):
        m = _FACTOR_RE.match(part.strip())
        if not m:
            raise ValueError(f"unrecognized group factor {part.strip()!r}")
        orders.append(int(m.group(1)))
    return tuple(orders)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum of cyclic groups Z/p^e, kept in the given factor order."""

    factors: tuple[tuple[int, int], ...]  # (prime, exponent) per cyclic factor

    def __post_init__(self) -> None:
        for p, e in self.factors:
            if e < 1:
                raise ValueError(f"factor exponent must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"factor base {p} is not prime")

    @classmethod
    def from_orders(cls, orders: list[int]) -> "FiniteAbelianGroup":
        factors: list[tuple[int, int]] = []
        for n in orders:
            if n < 2:
                raise ValueError(f"cyclic factor order must be >= 2, got Z{n}")
            factors.extend(_prime_power_factors(n))
        return cls(tuple(factors))

    @classmethod
    def parse(cls, text: str) -> "FiniteAbelianGroup":
        return cls.from_orders(parse_orders(text))

    def format(self) -> str:
        return " x ".join(f"Z{p ** e}" for p, e in self.factors) if self.factors else "Z1"

    @cached_property
    def rank(self) -> int:
        return len(self.factors)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(p ** e for p, e in self.factors)

    @cached_property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.orders, 1)

    @cached_property
    def exponent(self) -> int:
        return reduce(math.lcm, self.orders, 1)

    @cached_property
    def modulus(self) -> int:
        """Residue modulus of window vectors: exp(H), 2 for the trivial group."""
        return max(self.exponent, 2)

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for p, _ in self.factors}))

    def is_p_group(self, p: int) -> bool:
        return all(q == p for q, _ in self.factors)

    # -- coordinate arithmetic ------------------------------------------------

    def zero(self) -> Coords:
        return (0,) * self.rank

    def reduce_coords(self, coords) -> Coords:
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        return tuple(c % n for c, n in zip(coords, self.orders))

    def scale(self, k: int, a: Coords) -> Coords:
        return tuple((k * x) % n for x, n in zip(a, self.orders))

    def order_of(self, a: Coords) -> int:
        return reduce(math.lcm, (n // math.gcd(n, x) for x, n in zip(a, self.orders)), 1)

    # -- scaled embedding into Z/exponent -------------------------------------

    @cached_property
    def scale_factors(self) -> tuple[int, ...]:
        """Per-factor multiplier embedding Z/n_j into Z/exponent."""
        exp = self.exponent
        return tuple(exp // n for n in self.orders)

    def coords_to_scaled(self, a: Coords) -> Coords:
        exp = self.exponent
        return tuple((x * s) % exp for x, s in zip(a, self.scale_factors))

    def scaled_to_coords(self, v: Coords) -> Coords:
        out = []
        for x, s, n in zip(v, self.scale_factors, self.orders):
            if x % s:
                raise ValueError(f"scaled value {x} is not in the embedded copy")
            out.append((x // s) % n)
        return tuple(out)


@dataclass(frozen=True)
class PrimaryPart:
    """The p-part of a group together with its embedding and projection."""

    parent: FiniteAbelianGroup
    prime: int
    group: FiniteAbelianGroup
    indices: tuple[int, ...]  # positions of the p-factors inside parent

    def project_coords(self, coords: Coords) -> Coords:
        return tuple(coords[i] for i in self.indices)

    def embed_coords(self, coords: Coords) -> Coords:
        out = [0] * self.parent.rank
        for i, x in zip(self.indices, coords):
            out[i] = x
        return tuple(out)


def primary_component(group: FiniteAbelianGroup, p: int) -> PrimaryPart:
    """The p-primary direct summand of the group (possibly trivial)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    indices = tuple(i for i, (q, _) in enumerate(group.factors) if q == p)
    sub = FiniteAbelianGroup(tuple(group.factors[i] for i in indices))
    return PrimaryPart(group, p, sub, indices)
