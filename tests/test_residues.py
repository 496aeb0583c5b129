import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshift.groups import FiniteAbelianGroup, is_prime
from groupshift.residues import (HowellForm, PackedRows, _eliminate, _lane_layout,
                                 _pivot_arithmetic, combine_rows, howell_form, pack_rows,
                                 placed_rows, projection_heads, residue_table, row_solver,
                                 unpack_rows)

from conftest import (annihilator, brute_force_span, enumerate_elements, howell_reduce,
                      tuple_combine_rows, tuple_reduce, two_step_express, unit_for, xgcd)

MODULI = [2, 3, 4, 5, 8, 9, 12]

small_matrices = st.tuples(
    st.sampled_from(MODULI),
    st.integers(1, 3),
    st.integers(1, 4),
).flatmap(lambda t: st.tuples(
    st.just(t[0]),
    st.lists(st.lists(st.integers(0, t[0] - 1), min_size=t[2], max_size=t[2]),
             min_size=t[1], max_size=t[1])))


def test_xgcd_identity():
    for a in range(-20, 21):
        for b in range(-20, 21):
            g, x, y = xgcd(a, b)
            assert a * x + b * y == g
            assert g >= 0


def test_unit_for_contract():
    for m in MODULI:
        for a in range(m):
            u = unit_for(a, m)
            assert math.gcd(u, m) == 1
            assert (a * u) % m == math.gcd(a, m) % m


def test_annihilator_contract():
    for m in MODULI:
        for a in range(m):
            ann = annihilator(a, m)
            assert (a * ann) % m == 0
            if a:
                # ann generates the annihilator ideal: nothing smaller works
                assert all((a * x) % m for x in range(1, ann))


# -- howell form -------------------------------------------------------------


def test_howell_zero_matrix():
    f = howell_form([[0]], 4)
    assert f.rows == () and f.rank == 0


def test_howell_identity():
    f = howell_form([[1, 0], [0, 1]], 9)
    assert f.rows == ((1, 0), (0, 1))
    assert f.pivots == ((0, 1), (1, 1))


def test_howell_diag_two_mod_four():
    f = howell_form([[2, 0], [0, 2]], 4)
    assert len(f.rows) == 2
    assert f.pivots == ((0, 2), (1, 2))
    span = brute_force_span([(2, 0), (0, 2)], 4, 2)
    assert set(enumerate_elements(f)) == span


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_howell_idempotent_and_span_preserving(mat):
    modulus, rows = mat
    f = howell_form(rows, modulus)
    again = howell_form(f.rows, modulus)
    assert again.rows == f.rows
    width = len(rows[0])
    span = brute_force_span(rows, modulus, width)
    assert set(enumerate_elements(f)) == span
    assert f.size() == len(span)


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_howell_membership_matches_enumeration(mat, rng):
    modulus, rows = mat
    f = howell_form(rows, modulus)
    width = len(rows[0])
    span = brute_force_span(rows, modulus, width)
    vec = tuple(rng.randrange(modulus) for _ in range(width))
    assert f.contains(vec) == (vec in span)


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_howell_unique_under_row_shuffles(mat, rng):
    modulus, rows = mat
    f = howell_form(rows, modulus)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    # also premix a random row multiple into another: span-preserving
    if len(shuffled) > 1:
        k = rng.randrange(modulus)
        shuffled[0] = [(a + k * b) % modulus
                       for a, b in zip(shuffled[0], shuffled[1])]
    assert howell_form(shuffled, modulus).rows == f.rows


# -- solving -----------------------------------------------------------------
#
# A @ x == b is solved by a row solver over the columns of A (the rows of
# its transpose): x is the coefficient vector expressing b over them, and
# the solver kernel is the solution kernel {x : A @ x == 0}.


def solve(rows, rhs, modulus):
    """(particular x, kernel rows) of rows @ x == rhs, or None."""
    cols = [tuple(row[j] for row in rows) for j in range(len(rows[0]))]
    solver = row_solver(cols, modulus, len(rows))
    x = solver.express(tuple(v % modulus for v in rhs))
    return None if x is None else (x, solver.kernel.rows)


def test_solve_two_x_eq_one_mod_four():
    assert solve([[2]], [1], 4) is None


def test_solve_identity():
    assert solve([[1, 0], [0, 1]], [3, 4], 5) == ((3, 4), ())


def test_solve_two_x_eq_two_mod_four():
    assert solve([[2]], [2], 4) == ((1,), ((2,),))
    # exhaustive: solutions are exactly {1, 3}
    assert {x for x in range(4) if (2 * x) % 4 == 2} == {1, 3}


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve([[1, 2]], [1, 2], 4)


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_solve_exactness_and_kernel(mat, rng):
    modulus, rows = mat
    nrows, ncols = len(rows), len(rows[0])
    x = [rng.randrange(modulus) for _ in range(ncols)]
    b = [sum(rows[i][j] * x[j] for j in range(ncols)) % modulus
         for i in range(nrows)]
    sol = solve(rows, b, modulus)
    assert sol is not None
    particular, kernel = sol

    def apply(v):
        return tuple(sum(rows[i][j] * v[j] for j in range(ncols)) % modulus
                     for i in range(nrows))

    assert apply(particular) == tuple(b)
    for kv in kernel:
        shifted = tuple((p + k) % modulus for p, k in zip(particular, kv))
        assert apply(shifted) == tuple(b)
    # completeness: the kernel rows span every solution of A @ x == 0
    true = {v for v in itertools.product(range(modulus), repeat=ncols)
            if not any(apply(v))}
    assert brute_force_span(kernel, modulus, ncols) == true


def test_kernel_is_complete_small():
    # kernel of multiplication by the matrix [[2, 0], [0, 3]] mod 6
    _, kernel = solve([[2, 0], [0, 3]], [0, 0], 6)
    got = brute_force_span(kernel, 6, 2)
    true = {(x, y) for x in range(6) for y in range(6)
            if (2 * x) % 6 == 0 and (3 * y) % 6 == 0}
    assert got == true


def two_pass_kernel(gens, modulus, ncols):
    """Reference kernel: the tails of the Howell rows of [R | I] whose lead
    part is zero, put in Howell form by a second pass."""
    k = len(gens)
    full = [list(g) + [int(i == j) for j in range(k)] for i, g in enumerate(gens)]
    tails = [row[ncols:] for row in howell_form(full, modulus, ncols + k).rows
             if not any(row[:ncols])]
    return howell_form(tails, modulus, k)


composite_matrices = st.tuples(
    st.sampled_from([2, 4, 6, 8, 9, 12, 18, 36, 72]),
    st.integers(1, 6),
    st.integers(1, 4),
).flatmap(lambda t: st.tuples(
    st.just(t[0]),
    st.lists(st.lists(st.integers(0, t[0] - 1), min_size=t[2], max_size=t[2]),
             min_size=t[1], max_size=t[1])))


@settings(max_examples=300, deadline=None)
@given(composite_matrices)
def test_one_pass_kernel_matches_two_pass(mat):
    modulus, rows = mat
    solver = row_solver(rows, modulus)
    assert solver.kernel == two_pass_kernel(rows, modulus, len(rows[0]))
    assert solver.form == howell_form(rows, modulus)


@settings(max_examples=300, deadline=None)
@given(composite_matrices, st.data())
def test_express_is_kernel_reduction_of_coefficients(mat, data):
    # the canonical coefficients of x @ R are x reduced by the kernel's form,
    # whichever transform rows the solver keeps
    modulus, rows = mat
    x = data.draw(st.lists(st.integers(0, modulus - 1),
                           min_size=len(rows), max_size=len(rows)))
    solver = row_solver(rows, modulus)
    target = tuple_combine_rows(x, rows, modulus)
    assert solver.express(target) == howell_reduce(solver.kernel, x)[0]


@settings(max_examples=300, deadline=None)
@given(small_matrices, st.data())
def test_zero_prefix_matches_brute_force(mat, data):
    modulus, rows = mat
    ncols = len(rows[0])
    k = data.draw(st.integers(0, ncols))
    sub = howell_form(rows, modulus).zero_prefix(k)
    cut = [v[k:] for v in brute_force_span(rows, modulus, ncols) if not any(v[:k])]
    assert sub == howell_form(cut, modulus, ncols - k)


# -- the live-column kernel against the full-width reference -------------------


def reference_howell_form(rows, modulus, ncols=None):
    """The full-width Howell kernel: first nonzero row as pivot, an xgcd fold
    for every later nonzero entry, every row operation over all columns."""
    m = modulus
    ncols = len(rows[0]) if rows else (ncols or 0)
    work = [row for row in ([x % m for x in r] for r in rows) if any(row)]
    r = 0
    pivots = []
    for c in range(ncols):
        idx = next((i for i in range(r, len(work)) if work[i][c] % m), None)
        if idx is None:
            continue
        work[r], work[idx] = work[idx], work[r]
        for j in range(r + 1, len(work)):
            if work[j][c] % m == 0:
                continue
            a, b = work[r][c], work[j][c]
            g, x, y = xgcd(a, b)
            u, v = -(b // g), a // g
            rr, rj = work[r], work[j]
            work[r] = [(x * rr[k] + y * rj[k]) % m for k in range(ncols)]
            work[j] = [(u * rr[k] + v * rj[k]) % m for k in range(ncols)]
        uu = unit_for(work[r][c], m)
        if uu != 1:
            work[r] = [(uu * x) % m for x in work[r]]
        d = work[r][c]
        for k in range(r):
            q = work[k][c] // d
            if q:
                work[k] = [(a - q * b) % m for a, b in zip(work[k], work[r])]
        ann = annihilator(d, m)
        if ann % m:
            extra = [(ann * x) % m for x in work[r]]
            if any(extra):
                work.append(extra)
        pivots.append((c, d))
        r += 1
    return HowellForm(m, ncols, tuple(pack_rows(work[:r], m, ncols)), tuple(pivots))


PRIME_POWER_MODULI = [2, 4, 8, 9, 27, 25, 81]
#: With three primes, some columns have a pivot for one prime and not another.
COMPOSITE_MODULI = [6, 12, 30, 36, 60, 72]
#: Every lane width of the packed kernel under both reductions: `& MASK`
#: (powers of 2) in 1, 2, 4 and 8 bytes, SWAR Barrett in 1, 2, 4 and 8 bytes
#: and, past 64 bits, in 9 (9699690 = 2*3*5*7*11*13*17*19), 10 and 12 bytes.
LANE_MODULI = [2, 4, 8, 2 ** 7, 2 ** 16, 2 ** 31, 3, 9, 27, 25, 5 ** 4, 3 ** 12, 5 ** 11,
               3 ** 19, 5 ** 13, 6, 12, 9699690]


@functools.lru_cache(maxsize=None)
def proper_divisors(m):
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return sorted({d for s in small for d in (s, m // s)} - {m})


@st.composite
def kernel_inputs(draw, moduli, max_cols=6, reduced=True):
    """(modulus, rows, ncols): rows may be empty, tall, and hold zero and
    duplicate rows; entries are biased towards zero and zero divisors, and
    with `reduced` false may lie outside [0, m)."""
    m = draw(st.sampled_from(moduli))
    ncols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(0), st.integers(0, m - 1),
                      st.builds(lambda d, k: (d * k) % m,
                                st.sampled_from(proper_divisors(m)), st.integers(1, m)))
    if not reduced:
        # one offset kind per input, so that for m <= 256 entries past m
        # also come without a negative or huge entry beside them
        offsets = draw(st.sampled_from([(0, 1), (0, 3), (0, -1), (0, 1 << 40)]))
        entry = st.builds(lambda x, k: x + k * m, entry, st.sampled_from(offsets))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=0, max_size=10))
    extra = draw(st.lists(st.sampled_from(["zero", "duplicate"]), max_size=3))
    for kind in extra:
        at = draw(st.integers(0, len(rows)))
        if kind == "zero" or not rows:
            rows.insert(at, [0] * ncols)
        else:
            rows.insert(at, list(draw(st.sampled_from(rows))))
    return m, rows, ncols


def reference_eliminate(rows, m, ncols, drop):
    """The list kernel: `_eliminate` with each row a list of residues and
    every live row scanned at every column."""
    live = [row for row in ([x % m for x in r] for r in rows) if any(row)]
    done = []
    dropped = 0
    pivots = []
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
        for rk in done[dropped:]:
            q = rk[c] // d
            if q:
                rk[c:] = [(y - q * x) % m for x, y in zip(tail, rk[c:])]
        ann = annihilator(d, m)
        if ann % m:
            extra = [(ann * x) % m for x in tail]
            if any(extra):
                live.append([0] * c + extra)
        done.append(row)
        pivots.append((c, d))
        dropped += c < drop
    return [tuple(row) for row in done], pivots


def packed(rows, m, ncols):
    """Each row packed by `placed_rows` at column offset 0."""
    return [row for vec in rows for row in placed_rows(vec, m, [0], ncols)]


def test_lane_moduli_cover_every_lane_width():
    layouts = {(m & (m - 1) == 0, _lane_layout(m, 1)[0]) for m in LANE_MODULI}
    assert layouts == {(True, 8), (True, 16), (True, 32), (True, 64), (False, 8),
                       (False, 16), (False, 32), (False, 64), (False, 72), (False, 80),
                       (False, 96)}


@pytest.mark.parametrize("m", LANE_MODULI)
def test_lane_reduction_takes_every_row_operation_value_to_its_residue(m):
    # row operations form lane values below m^2
    top = m * m
    rng = random.Random(m)
    vals = [0, 1, m - 1, m, m + 1, 2 * m - 1, m * m - 1, top - m, top - 1] + \
        [rng.randrange(top) for _ in range(40)]
    w, _, red = _lane_layout(m, len(vals))
    got = red(sum(v << j * w for j, v in enumerate(vals)))
    assert [(got >> j * w) & ((1 << w) - 1) for j in range(len(vals))] == [v % m for v in vals]


def test_residue_table_reduces_every_byte():
    for m in range(2, 257):
        assert bytes(range(256)).translate(residue_table(m)) == bytes(b % m for b in range(256))


@pytest.mark.parametrize("m", LANE_MODULI)
def test_placed_rows_put_the_vector_at_each_offset(m):
    rng = random.Random(m)
    vec = [rng.randrange(m) for _ in range(4)]
    ncols = 6
    offsets = range(-len(vec), ncols + 1)  # the first and last rows are zero
    want = tuple(tuple(vec[j - o] if 0 <= j - o < len(vec) else 0 for j in range(ncols))
                 for o in offsets)
    assert unpack_rows(placed_rows(vec, m, offsets, ncols), m, ncols) == want


@pytest.mark.parametrize("modulus", LANE_MODULI)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_packed_kernel_matches_list_kernel_for_every_drop(modulus, data):
    m, rows, ncols = data.draw(kernel_inputs([modulus], max_cols=40, reduced=False))
    for drop in range(ncols + 1):
        done, pivots = _eliminate(packed(rows, m, ncols), m, ncols, drop)
        got, want = list(unpack_rows(done, m, ncols)), reference_eliminate(rows, m, ncols, drop)
        if len(_pivot_arithmetic(m)[0]) == 1:
            assert (got, pivots) == want
            continue
        # a composite m goes through the CRT split: left of `drop` another
        # basis that is not back-reduced, from `drop` on the Howell form
        assert pivots == want[1]
        assert [r for r, (c, _) in zip(got, pivots) if c >= drop] == \
            [r for r, (c, _) in zip(want[0], want[1]) if c >= drop]
        assert howell_form(got, m, ncols) == howell_form(want[0], m, ncols)


def reference_reduce(form, vec):
    """Greedy leading-term reduction with full-width row operations."""
    m = form.modulus
    res = [x % m for x in vec]
    coeffs = []
    for (c, d), row in zip(form.pivots, form.rows):
        q = res[c] // d
        coeffs.append(q)
        res = [(x - q * y) % m for x, y in zip(res, row)]
    return tuple(res), tuple(coeffs)


@settings(max_examples=400, deadline=None)
@given(st.one_of(kernel_inputs(PRIME_POWER_MODULI), kernel_inputs(COMPOSITE_MODULI)),
       st.data())
def test_kernel_matches_full_width_reference(inp, data):
    m, rows, ncols = inp
    got = howell_form(rows, m, ncols)
    ref = reference_howell_form(rows, m, ncols)
    assert (got.rows, got.pivots, got.ncols) == (ref.rows, ref.pivots, ref.ncols)
    vec = data.draw(st.lists(st.integers(0, m - 1), min_size=ncols, max_size=ncols))
    assert howell_reduce(got, vec) == reference_reduce(ref, vec)


@pytest.mark.parametrize("rows, modulus", [
    ([[2, 1, 0], [3, 0, 1]], 6),
    ([[4, 1], [3, 1], [6, 5]], 12),
    ([[4, 1, 0], [9, 2, 1]], 36),
    ([[8, 1, 1], [9, 1, 0], [12, 0, 5]], 72),
])
def test_kernel_xgcd_fold_when_the_pivot_does_not_divide(rows, modulus):
    # the least-gcd entry of column 0 does not divide another entry there
    gcds = sorted(math.gcd(row[0], modulus) for row in rows)
    assert any(g % gcds[0] for g in gcds)
    got = howell_form(rows, modulus)
    assert got == reference_howell_form(rows, modulus)
    assert set(enumerate_elements(got)) == brute_force_span(rows, modulus, len(rows[0]))


def columns(runs):
    """The (column, scale) pairs of (first column, count, scale) runs, one
    per column in run order."""
    return [(c, s) for first, n, s in runs for c in range(first, first + n)]


def single_columns(ncols, scales, max_size, unique=False):
    """Per-column conditions drawn as (column, scale) pairs, each turned into
    a run of one column."""
    return st.lists(st.tuples(st.integers(0, ncols - 1), scales), max_size=max_size,
                    unique_by=(lambda cs: cs[0]) if unique else None).map(
        lambda pairs: [(c, 1, s) for c, s in pairs])


@st.composite
def column_runs(draw, ncols, scales):
    """(first column, count, scale) runs in any column order, possibly
    overlapping or empty; each drawn block is split in two adjacent runs of
    one scale."""
    runs = []
    for first, n, s in draw(st.lists(st.tuples(st.integers(0, ncols - 1),
                                               st.integers(0, 4), scales), max_size=3)):
        n = min(n, ncols - first)
        cut = draw(st.integers(0, n))
        runs += [(first, cut, s), (first + cut, n - cut, s)]
    return runs


def zero_runs(runs):
    """Runs of scale 1 as the (first column, count) zero runs of
    `projection_heads`, and their columns in run order."""
    return [(first, n) for first, n, _ in runs], [c for c, _ in columns(runs)]


def constrained_form(rows, m, conditions, lo, hi):
    """Reference canonical form of the projection to columns [lo, hi) of
    {v in span(rows) : k * v[c] == 0 for every (c, k) in conditions}: the
    rows of [conditions | kept part], built entry by entry from tuple rows,
    that vanish on the condition columns."""
    ext = [[(k * row[c]) % m for c, k in conditions] + list(row[lo:hi]) for row in rows]
    return reference_howell_form(ext, m, len(conditions) + hi - lo).zero_prefix(
        len(conditions))


@settings(max_examples=300, deadline=None)
@given(st.one_of(kernel_inputs(PRIME_POWER_MODULI), kernel_inputs(COMPOSITE_MODULI)),
       st.data())
def test_constrained_projection_matches_reference_zero_prefix(inp, data):
    # a canonical constrained projection is the Howell form of the kept rows
    # of one packed elimination; scales >= m and repeated condition columns
    # cover kill_scale = exp(H) (0 mod m) and per-factor kills
    m, rows, ncols = inp
    conditions = data.draw(st.one_of(single_columns(ncols, st.integers(0, 2 * m), 4),
                                     column_runs(ncols, st.integers(0, 2 * m))))
    lo = data.draw(st.integers(0, ncols))
    hi = data.draw(st.integers(lo, ncols))
    kept, _ = projection_heads(packed(rows, m, ncols), m, conditions, (), lo, hi)
    assert howell_form(kept.rows, m, hi - lo) == \
        constrained_form(rows, m, columns(conditions), lo, hi)


def two_form_projection_kept(rows, m, conditions, zero, lo, hi):
    """Reference: every row of the conditioned projection lies in the one
    with the zero columns added as conditions."""
    small = constrained_form(rows, m, list(conditions) + [(c, 1) for c in zero], lo, hi)
    return all(small.contains(row)
               for row in constrained_form(rows, m, conditions, lo, hi).rows)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(kernel_inputs(PRIME_POWER_MODULI), kernel_inputs(COMPOSITE_MODULI)),
       st.data())
def test_projection_heads_matches_two_form_reference(inp, data):
    m, rows, ncols = inp
    conditions = data.draw(st.one_of(single_columns(ncols, st.integers(1, m - 1), 3),
                                     column_runs(ncols, st.integers(1, m - 1))))
    zero, zero_cols = zero_runs(data.draw(st.one_of(
        single_columns(ncols, st.just(1), 3, unique=True).filter(bool),
        column_runs(ncols, st.just(1)).filter(columns))))
    lo = data.draw(st.integers(0, ncols - 1))
    hi = data.draw(st.integers(lo + 1, ncols))
    kept, heads = projection_heads(packed(rows, m, ncols), m, conditions, zero, lo, hi)
    assert all(map(kept.contains, heads)) == \
        two_form_projection_kept(rows, m, columns(conditions), zero_cols, lo, hi)
    # the heads and the kept rows span the projection without the zero columns
    assert howell_form(list(kept.rows) + list(unpack_rows(heads, m, hi - lo)), m, hi - lo) == \
        constrained_form(rows, m, columns(conditions), lo, hi)


def reference_projection_heads(rows, m, conditions, zero_cols, lo, hi):
    """`projection_heads` with no back-reduction: [conditions | zero columns
    | kept part] built entry by entry from tuple rows, and its kept rows and
    heads cut from the unpacked elimination, which back-reduces no row."""
    k, drop = len(conditions), len(conditions) + len(zero_cols)
    ext = [[(s * row[c]) % m for c, s in conditions]
           + [row[c] for c in zero_cols] + list(row[lo:hi]) for row in rows]
    ncols = drop + hi - lo
    done, pivots = _eliminate(packed(ext, m, ncols), m, ncols, ncols)
    done = unpack_rows(done, m, ncols)
    kept = [(row[drop:], (c - drop, d)) for row, (c, d) in zip(done, pivots) if c >= drop]
    packed_kept = pack_rows([row for row, _ in kept], m, ncols - drop)
    kept = HowellForm(m, ncols - drop, tuple(packed_kept), tuple(pivot for _, pivot in kept))
    return kept, [row[drop:] for row, (c, _) in zip(done, pivots) if k <= c < drop]


#: A prime just below the 2**31 cap: its Barrett lanes are 96 bits wide.
BIG_PRIME = 2 ** 31 - 1


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(kernel_inputs([2, 4, 8, 9, 12, 27, BIG_PRIME], max_cols=8), st.data())
def test_packed_projection_heads_matches_list_reference(inp, data):
    m, rows, ncols = inp
    assert _lane_layout(BIG_PRIME, 1)[0] > 64
    scales = st.integers(0, 2 * m)  # d * x >= m for most entries x
    conditions = data.draw(st.one_of(single_columns(ncols, scales, 4),
                                     column_runs(ncols, scales)))
    zero, zero_cols = zero_runs(data.draw(st.one_of(
        single_columns(ncols, st.just(1), 3, unique=True), column_runs(ncols, st.just(1)))))
    lo = data.draw(st.integers(0, ncols))
    hi = data.draw(st.integers(lo, ncols))
    kept, heads = projection_heads(packed(rows, m, ncols), m, conditions, zero, lo, hi)
    ref_kept, ref_heads = reference_projection_heads(rows, m, columns(conditions), zero_cols,
                                                     lo, hi)
    # the kept rows are `howell_form` of the reference's kept rows, and the
    # heads are the reference's
    assert kept == howell_form(PackedRows(ref_kept.packed, ref_kept.ncols), m)
    assert list(unpack_rows(heads, m, hi - lo)) == ref_heads


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(kernel_inputs([2, 4, 8, 9, 27]), kernel_inputs([6, 12, 72])),
       st.data())
def test_membership_without_back_reduction_matches_howell_form(inp, data):
    # the rows left of `drop` are never back-reduced, as projection_heads'
    # heads and the prime-power eliminations of `_crt_eliminate` are: greedy
    # reduction needs only the Howell property, not canonical rows
    m, rows, ncols = inp
    done, pivots = _eliminate(packed(rows, m, ncols), m, ncols, drop=ncols)
    loose = HowellForm(m, ncols, tuple(done), tuple(pivots))
    form = howell_form(rows, m, ncols)
    assert loose.pivots == form.pivots
    entries = st.integers(0, m - 1)
    members = [tuple_combine_rows(data.draw(st.lists(entries, min_size=len(rows),
                                                     max_size=len(rows))), rows, m, ncols)
               for _ in range(3)]
    changed = []
    for vec in members:
        i = data.draw(st.integers(0, ncols - 1))
        changed.append(vec[:i] + [(vec[i] + data.draw(st.integers(1, m - 1))) % m]
                       + vec[i + 1:])
    randoms = [data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
               for _ in range(3)]
    for vec in members + changed + randoms:
        assert loose.contains(vec) == form.contains(vec)
    assert all(loose.contains(vec) for vec in members)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(kernel_inputs(PRIME_POWER_MODULI), kernel_inputs(COMPOSITE_MODULI)))
def test_prefix_is_the_form_of_the_cut_rows(inp):
    # the rows with pivot before k, cut to k columns, are the Howell form of
    # the projection to the first k columns: no reduction is needed
    m, rows, ncols = inp
    form, empty = howell_form(rows, m, ncols), howell_form([], m, ncols)
    for k in range(ncols + 1):
        assert form.prefix(k) == howell_form([row[:k] for row in rows], m, k), k
        assert empty.prefix(k) == howell_form([], m, k), k


# -- packed HowellForm, combine_rows and RowSolver against tuple references ---


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_matrices.map(lambda t: (t[0], t[1], len(t[1][0]))),
                 kernel_inputs(PRIME_POWER_MODULI), kernel_inputs(COMPOSITE_MODULI)),
       st.data())
def test_combine_rows_matches_naive_sum(mat, data):
    # the tuple reference and the packed combination, on row lists that
    # may be empty
    modulus, rows, ncols = mat
    coeffs = data.draw(st.lists(st.integers(-2 * modulus, 2 * modulus),
                                min_size=len(rows), max_size=len(rows)))
    naive = [sum(c * row[i] for c, row in zip(coeffs, rows)) % modulus
             for i in range(ncols)]
    assert tuple_combine_rows(coeffs, rows, modulus, ncols) == naive
    packed_sum = combine_rows(coeffs, pack_rows(rows, modulus, ncols), modulus, ncols)
    assert unpack_rows([packed_sum], modulus, ncols)[0] == tuple(naive)
    assert tuple_combine_rows([], [], modulus, 3) == [0, 0, 0]
    assert combine_rows([], [], modulus, 3) == 0


def tuple_solver_data(gens, m, n):
    """The solver's forms from tuple rows of [R | I]: ((form rows, pivots),
    transform rows, (kernel rows, pivots))."""
    k = len(gens)
    aug = [list(g) + [int(i == j) for j in range(k)] for i, g in enumerate(gens)]
    full = reference_howell_form(aug, m, n + k)
    r = sum(c < n for c, _ in full.pivots)
    return ((tuple(row[:n] for row in full.rows[:r]), full.pivots[:r]),
            tuple(row[n:] for row in full.rows[:r]),
            (tuple(row[n:] for row in full.rows[r:]),
             tuple((c - n, d) for c, d in full.pivots[r:])))


def tuple_express(gens, m, n, target):
    (rows, pivots), transform, (krows, kpivots) = tuple_solver_data(gens, m, n)
    residual, row_coeffs = tuple_reduce(rows, pivots, m, n, target)
    if any(residual):
        return None
    coeffs = tuple_combine_rows(row_coeffs, transform, m, len(gens))
    return tuple_reduce(krows, kpivots, m, len(gens), coeffs)[0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(kernel_inputs(PRIME_POWER_MODULI), kernel_inputs(COMPOSITE_MODULI)),
       st.data())
def test_packed_form_operations_match_tuple_references(inp, data):
    m, rows, ncols = inp
    form = howell_form(rows, m, ncols)
    entries = st.integers(0, m - 1)
    member = tuple_combine_rows(data.draw(st.lists(entries, min_size=len(rows),
                                                   max_size=len(rows))), rows, m, ncols)
    other = data.draw(st.lists(st.integers(-m, 2 * m), min_size=ncols, max_size=ncols))
    for vec in (member, other):
        want = tuple_reduce(form.rows, form.pivots, m, ncols, vec)
        x = pack_rows([vec], m, ncols)[0]
        assert howell_reduce(form, vec) == howell_reduce(form, x) == want
        assert form.contains(vec) == form.contains(x) == (not any(want[0]))
    assert form.contains(member)
    for bad in (other + [0], other[1:]):
        with pytest.raises(ValueError):
            howell_reduce(form, bad)
        with pytest.raises(ValueError):
            form.contains(bad)
    k = data.draw(st.integers(0, ncols))
    i = sum(c < k for c, _ in form.pivots)
    sub = form.zero_prefix(k)
    assert (sub.rows, sub.pivots, sub.ncols) == (
        tuple(row[k:] for row in form.rows[i:]),
        tuple((c - k, d) for c, d in form.pivots[i:]), ncols - k)
    grown = howell_form(rows + [other], m, ncols)
    assert form.spans_same(grown) == (form.rows == grown.rows)
    assert form.spans_same(howell_form(rows[::-1] + [member], m, ncols))


@settings(max_examples=300, deadline=None)
@given(st.one_of(kernel_inputs(PRIME_POWER_MODULI), kernel_inputs(COMPOSITE_MODULI),
                 kernel_inputs(LANE_MODULI)), st.data())
def test_one_reduction_express_matches_the_two_step_reference(inp, data):
    # members and non-members, as residues and packed, over prime-power,
    # composite and every lane width's moduli, `& MASK` and SWAR Barrett
    m, rows, ncols = inp
    solver = row_solver(rows, m, ncols)
    x = data.draw(st.lists(st.integers(0, m - 1), min_size=len(rows), max_size=len(rows)))
    member = tuple_combine_rows(x, rows, m, ncols)
    other = data.draw(st.lists(st.integers(0, m - 1), min_size=ncols, max_size=ncols))
    for target in (member, other):
        want = two_step_express(solver, target)
        assert solver.express(target) == solver.express(pack_rows([target], m, ncols)[0]) == want
    assert want is None or tuple_combine_rows(want, rows, m, ncols) == list(other)
    assert solver.express(member) is not None


@settings(max_examples=300, deadline=None)
@given(st.one_of(kernel_inputs(PRIME_POWER_MODULI), kernel_inputs(COMPOSITE_MODULI)),
       st.data())
def test_packed_row_solver_matches_tuple_reference(inp, data):
    # the solver built from tuple rows and from the same rows packed
    m, rows, ncols = inp
    gens = [[x % m for x in row] for row in rows]
    solvers = (row_solver(rows, m, ncols),
               row_solver(PackedRows(tuple(pack_rows(rows, m, ncols)), ncols), m))
    (frows, fpivots), _, (krows, kpivots) = tuple_solver_data(gens, m, ncols)
    entries = st.integers(0, m - 1)
    member = tuple_combine_rows(data.draw(st.lists(entries, min_size=len(rows),
                                                   max_size=len(rows))), rows, m, ncols)
    other = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    for solver in solvers:
        assert (solver.form.rows, solver.form.pivots, solver.form.ncols) == \
            (frows, fpivots, ncols)
        assert (solver.kernel.rows, solver.kernel.pivots, solver.kernel.ncols) == \
            (krows, kpivots, len(rows))
        for target in (member, other):
            assert solver.express(target) == tuple_express(gens, m, ncols, target)
        assert solver.express(member) is not None
        with pytest.raises(ValueError):
            solver.express(member + [0])


@pytest.mark.parametrize("m", [2, 8, 9, 27, 6, 12, 72, 2 ** 31, 3 ** 19])
def test_pivot_arithmetic_memos_match_the_functions(m):
    # every residue of a small modulus; zero, units and zero divisors of
    # every valuation, sampled, for a large one; the kernel takes no unit of
    # zero and saturates a pivot d by m // d.  A composite modulus is split
    # into its prime powers, each with its CRT idempotent.
    parts, gcd, unit = _pivot_arithmetic(m)
    assert _pivot_arithmetic(m) is _pivot_arithmetic(m)
    for memo in (_pivot_arithmetic, gcd, unit):
        assert memo.cache_info().maxsize is not None
    if len(parts) > 1:
        assert math.prod(q for q, _ in parts) == m
        for q, e in parts:
            assert _pivot_arithmetic(q)[0] == ((q, 1),)
            assert (e % q, e % (m // q)) == (1, 0)
        return
    assert parts == ((m, 1),)
    rng = random.Random(m)
    p = 2 if m % 2 == 0 else 3
    values = range(m) if m < 100 else [0, 1, m - 1] + [
        p ** rng.randrange(m.bit_length()) * rng.randrange(1, m) % m for _ in range(300)]
    for a in values:
        assert gcd(a) == math.gcd(a, m), a
        if a:
            assert (unit(a), m // gcd(a)) == (unit_for(a, m), annihilator(a, m)), a


# -- independence over F_p: Howell forms of p-torsion vectors ----------------


def independent(vectors, p, width=3, e=2):
    """F_p independence read off the Howell form over Z/p^e of the vectors
    scaled into the p-torsion p^(e-1) Z/p^e."""
    m = p ** e
    scaled = [[(m // p) * x for x in v] for v in vectors]
    return howell_form(scaled, m, width).rank == len(vectors)


def test_independent_examples():
    assert independent([], 2) is True
    assert independent([(1, 1, 0), (1, 1, 0)], 2) is False
    assert independent([(1, 1, 0), (0, 1, 1)], 2) is True
    assert independent([(0, 0, 0)], 3) is False


@pytest.mark.parametrize("p", [2, 3])
def test_independent_agrees_with_exhaustive(p):
    import random as _random
    rng = _random.Random(7)
    for e in [1, 2, 3] * 20:
        k = rng.randrange(1, 5)
        width = rng.randrange(1, 4)
        vecs = [tuple(rng.randrange(p) for _ in range(width)) for _ in range(k)]
        dependent = False
        for combo in itertools.product(range(p), repeat=k):
            if not any(combo):
                continue
            acc = [0] * width
            for c, v in zip(combo, vecs):
                acc = [(a + c * x) % p for a, x in zip(acc, v)]
            if not any(acc):
                dependent = True
                break
        assert independent(vecs, p, width, e) == (not dependent)


#: p-group alphabets: every p-torsion scaled entry over Z/exponent is a
#: multiple of exponent // p.
P_GROUP_ALPHABETS = ["Z2", "Z4", "Z8", "Z9", "Z2 x Z4", "Z3 x Z9", "Z2 x Z2 x Z4"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(P_GROUP_ALPHABETS), st.randoms(use_true_random=False))
def test_howell_form_of_torsion_vectors_is_an_fp_span(name, rng):
    group = FiniteAbelianGroup.parse(name)
    p, m = group.primes()[0], group.exponent
    width = group.rank * rng.randrange(1, 3)

    def torsion_vector():
        return tuple(rng.randrange(p) * (m // p) for _ in range(width))

    vecs = [torsion_vector() for _ in range(rng.randrange(5))]
    span = brute_force_span(vecs, m, width)
    form = howell_form(vecs, m, width)
    # the span is an F_p space: p^rank elements
    assert p ** form.rank == len(span)
    for target in [torsion_vector() for _ in range(4)] + vecs:
        assert form.contains(target) == (target in span)


def test_row_solver_canonical_coefficients_deterministic():
    rows = [(2, 0, 1), (0, 2, 1), (1, 1, 1)]
    solver = row_solver(rows, 4)
    target = (3, 3, 3)
    c1 = solver.express(target)
    c2 = row_solver(tuple(rows), 4).express(target)
    assert c1 == c2 is not None


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
