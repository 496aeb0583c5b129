"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  All tolerances are exact
(integer arithmetic); the only numeric budgets are the stated runtimes.
"""

import contextlib
import operator
import random
import subprocess
import sys
import time

import pytest

from groupshift.control import analyze_controllability, order_controllability_index
from groupshift.encoders import (Encoder, Horizons, canonical_generators,
                                 check_noncatastrophic, conjugacy_certificate, encode,
                                 multiple_shift, primary_shift, scaled_finite_words_check,
                                 solve_finite_preimage)
from groupshift.groups import FiniteAbelianGroup
from groupshift.residues import howell_form
from groupshift.shifts import GroupShift, enumerate_window_code
from groupshift.words import Word

from conftest import (assert_decided_table, base_decompose, full_shift, impulse,
                      random_message)

SEED = 20260810
GROUP_POOL = ["Z2", "Z3", "Z4", "Z5", "Z7", "Z8", "Z2 x Z2", "Z2 x Z4",
              "Z2 x Z2 x Z2", "Z6"]
FULL_SHIFT_ALPHABETS = ["Z2", "Z3", "Z4", "Z8", "Z2 x Z4", "Z6"]


@contextlib.contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{text}]: FAIL")
        raise
    print(f"\nACCEPTANCE {number} [{text}]: PASS")


def random_instance(rng: random.Random) -> GroupShift | None:
    group = FiniteAbelianGroup.parse(rng.choice(GROUP_POOL))
    gens = []
    for _ in range(rng.randrange(1, 3)):
        length = rng.randrange(1, 4)
        syms = [tuple(rng.randrange(n) for n in group.orders)
                for _ in range(length)]
        w = Word.make(group, 0, syms)
        if not w.is_zero:
            gens.append(w)
    return GroupShift.make(group, gens) if gens else None


@pytest.fixture(scope="module")
def certified_collection():
    """>= 25 random order-controllable instances with complete certificates,
    generated deterministically; reused by several criteria."""
    rng = random.Random(SEED)
    collection = []
    attempts = 0
    started = time.monotonic()
    while len(collection) < 25 and attempts < 400:
        attempts += 1
        shift = random_instance(rng)
        if shift is None:
            continue
        if order_controllability_index(shift, 16).index is None:
            continue
        cert = conjugacy_certificate(shift)
        assert cert.complete, (
            f"order-controllable instance failed to certify: "
            f"{shift.alphabet.format()} {[g.format() for g in shift.generators]}")
        collection.append((shift, cert))
    elapsed = time.monotonic() - started
    assert len(collection) >= 25
    return collection, elapsed


def oracle_window_form(shift: GroupShift, hi: int):
    """Canonical form of the brute-force window code enumeration on [0, hi]."""
    group = shift.alphabet
    flats = enumerate_window_code(shift, 0, hi)
    # the enumerated coordinates are reduced: scaling needs no reduction
    factors = group.scale_factors * (hi + 1)
    rows = [tuple(map(operator.mul, flat, factors)) for flat in flats]
    return howell_form(rows, max(group.exponent, 2)), len(flats)


def test_criterion_1_full_shift_identity():
    with criterion(1, "full-shift identity certificates"):
        for name in FULL_SHIFT_ALPHABETS:
            alphabet = FiniteAbelianGroup.parse(name)
            shift = full_shift(alphabet)
            started = time.monotonic()
            cert = conjugacy_certificate(shift)
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"{name}: certify took {elapsed:.2f}s"
            assert cert.complete, name
            enc = cert.product_encoder
            assert enc.source.rank == alphabet.rank, name
            # identity up to coordinate relabeling: impulse taps hitting each
            # alphabet factor exactly once, heights e_j - 1
            hit = []
            for tap, height in zip(enc.taps, enc.heights):
                assert tap.support_length == 1 and tap.first == 0, name
                nonzero = [i for i, c in enumerate(tap.value_at(0)) if c]
                assert len(nonzero) == 1 and tap.value_at(0)[nonzero[0]] == 1, name
                i = nonzero[0]
                assert height == alphabet.factors[i][1] - 1, name
                hit.append(i)
            assert sorted(hit) == list(range(alphabet.rank)), name


def test_criterion_2_oracle_equivalence(certified_collection):
    collection, build_time = certified_collection
    with criterion(2, "encoder image equals brute-force window code"):
        started = time.monotonic()
        for shift, cert in collection:
            width = 1
            while width < 8 and shift.alphabet.order ** (width + 1) <= 1 << 15:
                width += 1
            hi = width - 1
            oracle_form, _ = oracle_window_form(shift, hi)
            taps = [t for t in cert.product_encoder.taps if not t.is_zero]
            image = GroupShift.make(shift.alphabet, taps)
            assert image.window(0, hi).form.spans_same(oracle_form), (
                shift.alphabet.format(),
                [g.format() for g in shift.generators])
        total = build_time + (time.monotonic() - started)
        assert total < 60.0, f"criterion 2 took {total:.1f}s"


def test_criterion_3_encoder_invariants(certified_collection):
    collection, _ = certified_collection
    with criterion(3, "homomorphism/equivariance/order bounds, 1000 messages"):
        rng = random.Random(SEED + 1)
        for shift, cert in collection:
            enc = cert.product_encoder
            if enc.source.rank == 0:
                continue
            for _ in range(1000):
                a = random_message(enc, rng, 2)
                b = random_message(enc, rng, 2)
                assert encode(enc, a + b) == encode(enc, a) + encode(enc, b)
                assert encode(enc, a.shifted(1)) == encode(enc, a).shifted(1)
            for j, (p, h) in enumerate(zip(enc.tap_primes, enc.heights)):
                unit = [int(i == j) for i in range(enc.source.rank)]
                image = encode(enc, impulse(enc.source, unit))
                assert (p ** (h + 1)) % image.order() == 0


def test_criterion_4_scaled_finite_words(certified_collection):
    collection, _ = certified_collection
    with criterion(4, "p^r-scaled finite words match the scaled shift"):
        shifts = [full_shift(FiniteAbelianGroup.parse(n))
                  for n in FULL_SHIFT_ALPHABETS]
        shifts += [shift for shift, _ in collection]
        checked = 0
        for shift in shifts:
            for p in shift.alphabet.primes():
                part = primary_shift(shift, p)
                if not part.generators or not part.alphabet.is_p_group(p):
                    continue
                horizons = Horizons.derive(part, window_horizon=8)
                exp_h = part.alphabet.exponent
                r = 1
                while p ** r < exp_h:
                    ok, detail = scaled_finite_words_check(part, p, r, horizons)
                    assert ok, (part.alphabet.format(), r, detail)
                    checked += 1
                    r += 1
        assert checked >= 5


def test_criterion_5_torsion_tap_decomposition(certified_collection):
    collection, _ = certified_collection
    with criterion(5, "u = v + w with p*v = 0 and w over the taps, 200 words"):
        rng = random.Random(SEED + 2)
        targets = []
        for shift, _ in collection:
            for p in shift.alphabet.primes():
                part = primary_shift(shift, p)
                if part.generators:
                    targets.append((part, p))
        done = 0
        idx = 0
        pg_sets = {}
        while done < 200:
            part, p = targets[idx % len(targets)]
            idx += 1
            key = (part, p)
            if key not in pg_sets:
                exp = part.alphabet.exponent
                pg = multiple_shift(part, p, 1) if p < exp else \
                    GroupShift.make(part.alphabet, [])
                pg_sets[key] = canonical_generators(pg, p)
            pg_set = pg_sets[key]
            u = Word.zero(part.alphabet)
            for _ in range(rng.randrange(1, 4)):
                gi = rng.randrange(len(part.generators))
                u = u + part.generators[gi].shifted(rng.randrange(-2, 3)) \
                    .scaled(rng.randrange(1, part.alphabet.exponent + 1))
            dec = base_decompose(part, u, pg_set)
            assert dec.torsion_part + dec.tap_part == u
            assert dec.torsion_part.scaled(p).is_zero
            rebuilt = Word.zero(part.alphabet)
            lifts = {}
            from groupshift.encoders import lift_height
            for i, t, c in dec.coefficients:
                if i not in lifts:
                    lifts[i] = lift_height(
                        part, pg_set.taps[i], p, 1,
                        (pg_set.order_index + 1) * 2 + pg_set.horizons.margin)
                rebuilt = rebuilt + lifts[i].shifted(-t).scaled(c)
            assert rebuilt == dec.tap_part
            done += 1
        assert done >= 200


def test_criterion_6_index_consistency(certified_collection):
    collection, _ = certified_collection
    with criterion(6, "n_c <= n_o and steering-condition monotonicity"):
        rng = random.Random(SEED + 3)
        shifts = [shift for shift, _ in collection]
        for _ in range(10):
            extra = random_instance(rng)
            if extra is not None:
                shifts.append(extra)
        for shift in shifts:
            rep = analyze_controllability(shift, cap=8)
            # the tables are read off the indices, so decide every candidate
            assert_decided_table(shift, rep.plain, ordered=False)
            assert_decided_table(shift, rep.ordered, ordered=True)
            if rep.n_c is not None and rep.n_o is not None:
                assert rep.n_c <= rep.n_o, shift


def test_criterion_7_difference_encoder_flagged(tmp_path):
    with criterion(7, "difference encoder flagged as catastrophic, exit 1"):
        z2 = FiniteAbelianGroup.parse("Z2")
        full = full_shift(z2)
        tap = Word.make(z2, 0, [(1,), (1,)])  # impulse minus shifted impulse
        enc = Encoder(z2, FiniteAbelianGroup(((2, 1),)), (tap,), (0,), (2,))
        rep = check_noncatastrophic(enc, full, horizon=4)
        assert not rep.ok
        assert rep.witness is not None
        assert solve_finite_preimage(enc, rep.witness, 10) is None
        spec = tmp_path / "diff.spec"
        spec.write_text("group: Z2\ngen @0: 1 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "groupshift", "certify", str(spec),
             "--check-presentation"],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc.stdout
        assert "has no finite preimage" in proc.stdout
        assert "verdict: negative" in proc.stdout


def test_criterion_8_deterministic_reports(tmp_path):
    with criterion(8, "byte-identical certify reports"):
        spec = tmp_path / "instance.spec"
        spec.write_text("group: Z2 x Z4\ngen @0: (1,2) (0,2)\ngen @1: (0,1)\n")
        runs = [subprocess.run(
            [sys.executable, "-m", "groupshift", "certify", str(spec)],
            capture_output=True) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # nonempty report
