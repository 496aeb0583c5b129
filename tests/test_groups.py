import math

import pytest

from groupshift.groups import FiniteAbelianGroup, primary_component

from conftest import coords_add


def test_parse_and_decompose():
    g = FiniteAbelianGroup.parse("Z12")
    assert g.factors == ((2, 2), (3, 1))
    assert g.format() == "Z4 x Z3"
    assert g.exponent == 12
    assert g.order == 12


def test_parse_separators_and_case():
    a = FiniteAbelianGroup.parse("z4 X Z2 * z9")
    assert a.orders == (4, 2, 9)


@pytest.mark.parametrize("bad", ["Z0", "Z1", "Q8", "", "Z4 x", "Z-3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        FiniteAbelianGroup.parse(bad)


def test_element_order_examples():
    z4z2 = FiniteAbelianGroup.parse("Z4 x Z2")
    assert z4z2.order_of((0, 0)) == 1
    assert z4z2.order_of((2, 1)) == 2
    z8 = FiniteAbelianGroup.parse("Z8")
    for x in range(8):
        n = z8.order_of((x,))
        assert (n * x) % 8 == 0
        # brute force check by repeated addition
        acc, steps = (0,), 0
        while True:
            acc = coords_add(z8, acc, (x,))
            steps += 1
            if not any(acc):
                break
        assert steps == n


def test_order_divides_exponent_and_prime_quotient_moves():
    h = FiniteAbelianGroup.parse("Z4 x Z9 x Z2")
    import random
    rng = random.Random(5)
    for _ in range(50):
        g = tuple(rng.randrange(n) for n in h.orders)
        n = h.order_of(g)
        assert h.exponent % n == 0
        assert not any(h.scale(n, g))
        for q in (2, 3):
            if n % q == 0:
                assert any(h.scale(n // q, g))


def test_primary_component_examples():
    z12 = FiniteAbelianGroup.parse("Z12")
    assert primary_component(z12, 2).group.orders == (4,)
    assert primary_component(z12, 5).group.factors == ()
    h = FiniteAbelianGroup.parse("Z4 x Z9 x Z2")
    part = primary_component(h, 2)
    assert part.group.orders == (4, 2)
    # the 2-part has exactly the elements killed by a power of 2
    count = sum(1 for a in range(4) for b in range(9) for c in range(2)
                if all(x * 8 % n == 0 for x, n in zip((a, b, c), h.orders)))
    assert count == part.group.order == 8


def test_primary_components_reassemble_identity():
    h = FiniteAbelianGroup.parse("Z4 x Z9 x Z2")
    parts = [primary_component(h, p) for p in h.primes()]
    assert math.prod(part.group.order for part in parts) == h.order
    import random
    rng = random.Random(11)
    for _ in range(20):
        g = tuple(rng.randrange(n) for n in h.orders)
        total = h.zero()
        for part in parts:
            projected = part.project_coords(g)
            assert len(projected) == part.group.rank
            total = coords_add(h, total, part.embed_coords(projected))
        assert total == g


def test_primary_component_requires_prime():
    with pytest.raises(ValueError):
        primary_component(FiniteAbelianGroup.parse("Z12"), 4)


def test_scaled_embedding_roundtrip_preserves_order():
    h = FiniteAbelianGroup.parse("Z2 x Z4 x Z3")
    import random
    rng = random.Random(2)
    exp = h.exponent
    for _ in range(40):
        coords = tuple(rng.randrange(n) for n in h.orders)
        scaled = h.coords_to_scaled(coords)
        assert h.scaled_to_coords(scaled) == coords
        # order is readable from the scaled form
        order = h.order_of(coords)
        from math import gcd, lcm
        got = 1
        for v in scaled:
            got = lcm(got, exp // gcd(exp, v))
        assert got == order


def test_trivial_group_handles():
    t = FiniteAbelianGroup(())
    assert t.rank == 0 and t.order == 1 and t.exponent == 1
    assert t.zero() == ()
