import hashlib
import random
import time

import pytest

from udlrc import ExtField, Matrix, ModulusSearchTooLarge, PrimeField, find_irreducible, is_prime
from udlrc.fields import MODULUS_SEARCH_BUDGET, PRIME_CHECK_LIMIT
from udlrc.fields import _is_irreducible
from udlrc import fields
from conftest import (
    monic_candidates,
    ref_frobenius,
    ref_is_irreducible,
    ref_mul,
    ref_mulmod,
    ref_pack,
    ref_pow,
    ref_unpack,
)


def test_prime_check():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_check_is_exact_below_its_limit():
    def trial_division(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == trial_division(n) for n in range(-3, 20000))
    # The least strong pseudoprimes to the first 9 and the first 12 prime
    # bases: the 13th base, 41, is what exposes the second.
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 - 19))
    with pytest.raises(ValueError, match="not below"):
        is_prime(PRIME_CHECK_LIMIT)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.mul(3, 4) == 2  # 12 mod 5
    assert f5.add(3, f5.neg(3)) == 0
    assert f5.sub(1, 4) == 2
    assert f5.div(4, 2) == 2
    assert f5.mul(2, f5.inv(2)) == 1


def test_prime_field_zero_inverse():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_find_irreducible_known_values():
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(2, 3) == (1, 1, 0, 1)
    assert find_irreducible(5, 2) == (2, 0, 1)
    # x^5 + 4x + 1 over GF(5): every lower candidate x^5 + ax + b reduces to
    # the affine map (1 + a)x + b on field values, which has a root unless
    # a = 4 and b != 0.
    assert find_irreducible(5, 5) == (1, 4, 0, 0, 0, 1)


def test_find_irreducible_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for q, t in [(2, 3), (2, 6), (3, 4), (5, 2), (5, 5), (7, 3)]:
        coeffs = find_irreducible(q, t)
        poly = sympy.Poly(sum(c * x**i for i, c in enumerate(coeffs)), x, modulus=q)
        assert poly.is_irreducible, (q, t, coeffs)


def test_find_irreducible_is_lex_first():
    # Every candidate scanned before the returned one must be reducible,
    # judged by the schoolbook reference rather than the function under test.
    for q, t in [(2, 3), (5, 2), (3, 3)]:
        coeffs = find_irreducible(q, t)
        assert ref_is_irreducible(coeffs, q)
        code = sum(c * q**i for i, c in enumerate(coeffs[:-1]))
        for cand in monic_candidates(q, t, code):
            assert not ref_is_irreducible(cand, q), (q, t, cand)


def test_rabin_test_matches_the_schoolbook_reference():
    # Every monic candidate of a few small (q, t): 1,282 verdicts.
    checked = 0
    for q, t in [(2, 6), (3, 5), (5, 4), (7, 3), (2, 1), (5, 1)]:
        for cand in monic_candidates(q, t):
            assert _is_irreducible(cand, q) == ref_is_irreducible(cand, q), (q, t, cand)
            checked += 1
    assert checked == 1282
    # Not monic, or of degree 0: no verdict to compute.
    for cand in ([1, 2, 2], [1, 1, 7], [1, 1, 0], [0], [1]):
        assert _is_irreducible(cand, 5) is ref_is_irreducible(cand, 5) is False


def test_rabin_test_matches_the_reference_at_degree_60():
    # The GF(11^60) scan up to its lex-first irreducible, candidate 177.
    verdicts = [_is_irreducible(cand, 11) for cand in monic_candidates(11, 60, 178)]
    assert verdicts == [ref_is_irreducible(cand, 11) for cand in monic_candidates(11, 60, 178)]
    assert verdicts.index(True) == 177


def test_find_irreducible_large_prime_is_fast():
    # x^2 + 1 is irreducible over F_q, q an odd prime, exactly when
    # q = 3 mod 4.  Rabin's test finds roots through gcd(f, x^q - x) in
    # O(log q) steps; a root scan takes q.
    start = time.perf_counter()
    assert find_irreducible(1000000007, 2) == (1, 0, 1)
    assert time.perf_counter() - start < 1.0


def test_find_irreducible_gives_up_after_the_search_limit():
    # gcd(5, q - 1) = 1, so every x^5 + c has a root and an uncapped scan
    # would test about q candidates.
    start = time.perf_counter()
    with pytest.raises(ModulusSearchTooLarge, match=r"degree 5 over GF\(1000000007\)") as info:
        find_irreducible(1000000007, 5)
    assert time.perf_counter() - start < 1.0
    assert (info.value.q, info.value.t) == (1000000007, 5)
    assert f"search budget of {MODULUS_SEARCH_BUDGET} coefficient products" in str(info.value)


def test_find_irreducible_charges_each_round_as_it_runs():
    # Most candidates fail Rabin's first round, so a search charged round by
    # round pays for GF(11^60)'s 178 candidates; a worst-case charge per
    # candidate, made up front, paid for 7 of them.
    *_, lex_first = monic_candidates(11, 60, 178)
    assert find_irreducible(11, 60) == tuple(lex_first)
    assert ExtField(PrimeField(11), 60).t == 60


@pytest.mark.parametrize("q, t", [(13, 94), (2, 10**7)], ids=["GF(13^94)", "GF(2^10^7)"])
def test_find_irreducible_refuses_long_searches_within_a_second(q, t):
    # The lex-first GF(13^94) modulus lies past about 35 s of search; at
    # t = 10^7 not one round fits, and no candidate is built.
    start = time.perf_counter()
    with pytest.raises(ModulusSearchTooLarge, match=rf"degree {t} over GF\({q}\)"):
        find_irreducible(q, t)
    assert time.perf_counter() - start < 1.0


def test_find_irreducible_budget_covers_small_fields():
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for t in range(1, 17):
            assert _is_irreducible(find_irreducible(q, t), q)


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        ExtField(PrimeField(2), 2, (0, 0, 1))  # x^2 has root 0
    with pytest.raises(ValueError):
        ExtField(PrimeField(2), 2, (1, 0, 2))  # not monic once reduced


def test_equal_fields_hash_equal_and_share_their_layouts():
    # A field keeps its hash, taken from (q, t, modulus) once; two fields
    # built apart, one on the default modulus and one on the same modulus
    # given explicitly, hash equal and meet one cached layout.
    for q, t in ((2, 4), (5, 8), (11, 60)):
        a = ExtField(PrimeField(q), t)
        b = ExtField(PrimeField(q), t, find_irreducible(q, t))
        assert a is not b and a == b and hash(a) == hash(b) == hash(("ExtField", q, t, a.modulus))
        assert fields._packing(a, 7) is fields._packing(b, 7)
    other = ExtField(PrimeField(2), 4, (1, 1, 1, 1, 1))
    assert other != ExtField(PrimeField(2), 4) and fields._packing(other, 7) is not fields._packing(ExtField(PrimeField(2), 4), 7)


def test_gf8_multiplication_table_facts():
    f8 = ExtField(PrimeField(2), 3)
    a = f8.alpha
    assert f8.modulus == (1, 1, 0, 1)
    # alpha^3 = alpha + 1 under x^3 + x + 1
    assert f8.pow(a, 3) == (1, 1, 0)
    assert f8.mul(a, f8.mul(a, a)) == (1, 1, 0)


def test_element_validation():
    f8 = ExtField(PrimeField(2), 3)
    assert f8.element([5, 2, 1]) == (1, 0, 1)
    with pytest.raises(ValueError):
        f8.element([1, 0])


def test_embed_and_scale():
    f = ExtField(PrimeField(5), 3)
    assert f.embed(7) == (2, 0, 0)
    assert f.scale(3, (1, 2, 4)) == (3, 1, 2)


def test_frobenius_identity_and_base_fixed():
    f = ExtField(PrimeField(5), 4)
    rng = random.Random(7)
    x = f.random_element(rng)
    assert f.frobenius(x, 0) == x
    for c in range(5):
        for i in range(4):
            assert f.frobenius(f.embed(c), i) == f.embed(c)


def test_frobenius_squaring_in_gf8():
    f8 = ExtField(PrimeField(2), 3)
    a = f8.alpha
    assert f8.frobenius(a, 1) == f8.mul(a, a) == (0, 0, 1)


def test_frobenius_order_divides_degree():
    f8 = ExtField(PrimeField(2), 3)
    for x in f8.elements():
        assert f8.frobenius(x, 3) == x
    f = ExtField(PrimeField(5), 5)
    rng = random.Random(11)
    for _ in range(25):
        x = f.random_element(rng)
        assert f.frobenius(x, 5) == x


def test_frobenius_is_additive():
    f = ExtField(PrimeField(5), 3)
    rng = random.Random(13)
    for _ in range(300):
        x = f.random_element(rng)
        y = f.random_element(rng)
        assert f.pow(f.add(x, y), 5) == f.add(f.pow(x, 5), f.pow(y, 5))


def test_field_axioms_random_sampling():
    # At least 10^4 sampled triples across a prime field and an extension.
    rng = random.Random(99)
    f7 = PrimeField(7)
    for _ in range(5000):
        a, b, c = (f7.random_element(rng) for _ in range(3))
        assert f7.mul(a, f7.mul(b, c)) == f7.mul(f7.mul(a, b), c)
        assert f7.mul(a, f7.add(b, c)) == f7.add(f7.mul(a, b), f7.mul(a, c))
        assert f7.add(a, f7.neg(a)) == 0
        assert f7.mul(a, b) == f7.mul(b, a)
        if a != 0:
            assert f7.mul(a, f7.inv(a)) == 1
    f8 = ExtField(PrimeField(2), 3)
    for _ in range(5000):
        a, b, c = (f8.random_element(rng) for _ in range(3))
        assert f8.mul(a, f8.mul(b, c)) == f8.mul(f8.mul(a, b), c)
        assert f8.mul(a, f8.add(b, c)) == f8.add(f8.mul(a, b), f8.mul(a, c))
        assert f8.add(a, f8.neg(a)) == f8.zero
        assert f8.mul(a, b) == f8.mul(b, a)
        if a != f8.zero:
            assert f8.mul(a, f8.inv(a)) == f8.one


def test_ext_inverse_round_trip():
    f = ExtField(PrimeField(5), 5)
    rng = random.Random(17)
    for _ in range(50):
        x = f.random_element(rng)
        if x == f.zero:
            continue
        assert f.mul(x, f.inv(x)) == f.one
        assert f.div(f.mul(x, x), x) == x
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


def test_ext_field_exhaustive_inverse_gf9():
    f9 = ExtField(PrimeField(3), 2)
    nonzero = [x for x in f9.elements() if x != f9.zero]
    assert len({f9.inv(x) for x in nonzero}) == len(nonzero)
    for x in nonzero:
        assert f9.mul(x, f9.inv(x)) == f9.one


def _assert_inverse_matches_power(f, elements):
    """inv against a^(q^t - 2) by ref_pow, and times x through ref_mul."""
    for x in elements:
        if x != f.zero:
            y = f.inv(x)
            assert y == ref_pow(f, x, f.q**f.t - 2) and ref_mul(f, x, y) == f.one, (f, x)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


@pytest.mark.parametrize(
    "f",
    [
        ExtField(PrimeField(5), 2),
        ExtField(PrimeField(2), 3),
        ExtField(PrimeField(3), 4),
        ExtField(PrimeField(7), 1),
        ExtField(PrimeField(3), 3, (1, 0, 2, 1)),  # x^3 + 2x^2 + 1, not the default modulus
        ExtField(PrimeField(2), 4, (1, 1, 1, 1, 1)),  # x^4 + x^3 + x^2 + x + 1
        ExtField(PrimeField(2), 1),  # q^t = 2: the exponent is 0
        pytest.param(ExtField(PrimeField(2), 4), id="ExtField(q=2, t=4)(1, 1, 0, 0, 1)"),
        ExtField(PrimeField(3), 1),
    ],
    ids=repr,
)
def test_ext_inverse_matches_power_exhaustive(f):
    _assert_inverse_matches_power(f, f.elements())


@pytest.mark.parametrize("q, t", [(5, 5), (7, 6), (5, 8), (7, 9)])
def test_ext_inverse_matches_power_sampled(q, t):
    f = ExtField(PrimeField(q), t)
    rng = random.Random(q * 100 + t)
    _assert_inverse_matches_power(f, [f.random_element(rng) for _ in range(64)])


POW_FIELDS = [
    ExtField(PrimeField(2), 3),
    ExtField(PrimeField(7), 1),
    ExtField(PrimeField(3), 3, (1, 0, 2, 1)),  # not the default modulus
    ExtField(PrimeField(5), 5),
    ExtField(PrimeField(7), 9),
    ExtField(PrimeField(1000000007), 2),
]


@pytest.mark.parametrize("f", POW_FIELDS, ids=lambda f: f"{f!r}{f.modulus}")
def test_pow_matches_repeated_ref_mul(f):
    q, t = f.q, f.t
    rng = random.Random(q * 100 + t)
    exponents = [0, 1, q, q**t - 2, q**t - 1, 10**99 + 12345]  # the last has 100 digits
    samples = [f.one, f.alpha, (q - 1,) * t] + [f.random_element(rng) for _ in range(4)]
    for a in [a for a in samples if a != f.zero]:
        powers = [f.pow(a, e) for e in exponents]
        assert powers == [ref_pow(f, a, e) for e in exponents], (f, a)
        assert powers[:2] == [f.one, a]
        assert f.mul(a, powers[3]) == powers[4] == f.one
    assert [f.pow(f.zero, e) for e in exponents] == [f.one] + [f.zero] * 5
    for a in (f.zero, f.one):
        with pytest.raises(ValueError, match="negative exponents"):
            f.pow(a, -1)


def test_degree_one_extension_matches_prime_field():
    f = ExtField(PrimeField(5), 1)
    assert f.modulus == (0, 1)
    assert f.mul((3,), (4,)) == (2,)
    assert f.frobenius((2,), 4) == (2,)


EXHAUSTIVE_FIELDS = [
    ExtField(PrimeField(2), 3),
    ExtField(PrimeField(3), 2),
    ExtField(PrimeField(5), 2),
    ExtField(PrimeField(3), 3, (1, 0, 2, 1)),  # not the default modulus
    ExtField(PrimeField(2), 4, (1, 1, 1, 1, 1)),
    ExtField(PrimeField(7), 1),
    ExtField(PrimeField(2), 1),
]


@pytest.mark.parametrize("f", EXHAUSTIVE_FIELDS, ids=lambda f: f"{f!r}{f.modulus}")
def test_mul_matches_schoolbook_exhaustive(f):
    elems = list(f.elements())
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == ref_mul(f, a, b)


@pytest.mark.parametrize("q, t", [(5, 8), (7, 9), (5, 10), (1000000007, 2)])
def test_mul_matches_schoolbook_sampled(q, t):
    # All-(q - 1) operands drive every product slot to its largest value.
    f = ExtField(PrimeField(q), t)
    rng = random.Random(q * 100 + t)
    extremes = [f.zero, f.one, f.alpha, (q - 1,) * t, (0,) * (t - 1) + (q - 1,)]
    samples = extremes + [f.random_element(rng) for _ in range(40)]
    for a in samples:
        for b in extremes + [f.random_element(rng)]:
            assert f.mul(a, b) == ref_mul(f, a, b)
            assert f.mul(b, a) == ref_mul(f, b, a)


@pytest.mark.parametrize("f", EXHAUSTIVE_FIELDS, ids=lambda f: f"{f!r}{f.modulus}")
def test_frobenius_matches_repeated_squaring_exhaustive(f):
    for a in f.elements():
        power = a
        for i in range(f.t + 2):
            assert f.frobenius(a, i) == power
            power = ref_frobenius(f, power, 1)


@pytest.mark.parametrize("q, t", [(5, 8), (7, 9), (5, 10), (1000000007, 2)])
def test_frobenius_matches_repeated_squaring_sampled(q, t):
    # The all-(q - 1) element drives every slot of the image sum to its
    # largest value.
    f = ExtField(PrimeField(q), t)
    rng = random.Random(q * 100 + t)
    extremes = [f.zero, f.one, f.alpha, (q - 1,) * t, (0,) * (t - 1) + (q - 1,)]
    for a in extremes + [f.random_element(rng) for _ in range(25)]:
        power = a
        for i in range(t + 2):
            assert f.frobenius(a, i) == power
            power = ref_frobenius(f, power, 1)


def test_frobenius_exponent_counts_mod_t():
    # The q-power map has order t, so a huge exponent costs what i mod t does.
    f = ExtField(PrimeField(7), 9)
    x = f.random_element(random.Random(17))
    start = time.perf_counter()
    assert f.frobenius(x, 10**12) == f.frobenius(x, 10**12 % 9) == ref_frobenius(f, x, 10**12 % 9)
    assert time.perf_counter() - start < 1.0


def test_frobenius_is_one_packed_step_and_no_field_mul(monkeypatch):
    # A count, not a timing: one q-power is one canon over the packed
    # images; repeated squaring made about log2(q) + popcount(q) muls.
    f = ExtField(PrimeField(7), 9)
    x = f.random_element(random.Random(19))
    expected = ref_frobenius(f, x, 1)
    calls = {"canon": 0, "mul": 0}
    canon, mul = fields._Packing.canon, fields.ExtField.mul

    def counted_canon(self, v):
        calls["canon"] += 1
        return canon(self, v)

    def counted_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    monkeypatch.setattr(fields._Packing, "canon", counted_canon)
    monkeypatch.setattr(fields.ExtField, "mul", counted_mul)
    assert f.frobenius(x) == expected
    assert calls == {"canon": 1, "mul": 0}


def test_pack_and_unpack_match_the_one_loop_reference():
    # Rows of 0 .. 200 elements, from all zero to dense: past 64 elements
    # pack joins each element's whole-byte block, and unpack reads every
    # row by slot position in byte slices.  Every field also packs dense
    # rows of 63, 64, 65 and 84 elements, on both sides of that switch.
    # The fields take one, two and three bytes per coordinate, and include
    # F_2, whose one slot (W = 5) is narrower than a byte, and extensions
    # of degree 1, 2, 3, 5 and 20.
    rng = random.Random(20261019)
    choices = [PrimeField(5), PrimeField(2), PrimeField(257), PrimeField(65537), ExtField(PrimeField(7), 3),
               ExtField(PrimeField(2), 5), ExtField(PrimeField(251), 2), ExtField(PrimeField(257), 2),
               ExtField(PrimeField(5), 1), ExtField(PrimeField(65537), 2), ExtField(PrimeField(5), 20)]
    layouts = [fields._packing(f, 1) for f in choices]
    assert all(pk.bw % 8 == 0 for pk in layouts)
    assert [pk.cb for pk in layouts] == [1, 1, 2, 3, 1, 1, 1, 2, 1, 3, 1] and layouts[1].w == 5
    for field in choices:
        for n in (63, 64, 65, 84):
            row = [field.random_element(rng) for _ in range(n)]
            pk = fields._packing(field, n)
            x = pk.pack(row)
            assert x == ref_pack(pk, row)
            assert pk.unpack(x) == ref_unpack(pk, x) == row
    long = sparse = 0
    for _ in range(1000):
        field = rng.choice(choices)
        n = rng.randint(0, 200)
        density = rng.choice([0.0, 0.01, 0.05, 0.5, 1.0])
        row = [field.random_element(rng) if rng.random() < density else field.zero for _ in range(n)]
        pk = fields._packing(field, n)
        x = pk.pack(row)
        assert x == ref_pack(pk, row)
        assert pk.unpack(x) == ref_unpack(pk, x) == row
        long += n > 64
        sparse += n > 64 and 0 < density < 0.5
    assert long > 500 and sparse > 150


def test_columns_match_packing_the_transposed_rows():
    # Stacks of 0 .. 8 rows, each of its own length from 0 to 200 elements
    # (past 64 packed by joined blocks), read through a layout of yet
    # another length: every layout of one field has the same block width.
    # Column c of a row shorter than c + 1 is zero.  Picks may be empty,
    # out of order, repeated, or past every row.
    rng = random.Random(20261020)
    choices = [PrimeField(2), PrimeField(5), PrimeField(65537), ExtField(PrimeField(7), 3),
               ExtField(PrimeField(5), 8), ExtField(PrimeField(5), 20)]
    long = 0
    for _ in range(300):
        field = rng.choice(choices)
        stack = []
        for _ in range(rng.randint(0, 8)):
            density = rng.choice([0.0, 0.1, 1.0])
            n = rng.choice([0, 1, rng.randint(0, 64), rng.randint(65, 200)])
            stack.append([field.random_element(rng) if rng.random() < density else field.zero for _ in range(n)])
        packed = [fields._packing(field, len(row)).pack(row) for row in stack]
        width = max(map(len, stack), default=0)
        picks = rng.choice([[], list(range(width)), rng.sample(range(width + 2), min(width + 2, 5)),
                            [rng.randrange(width + 2) for _ in range(6)]])
        out = fields._packing(field, len(stack))
        unpacked = [fields._packing(field, len(row)).unpack(x) for row, x in zip(stack, packed)]
        expected = [ref_pack(out, [row[c] if c < len(row) else field.zero for row in unpacked]) for c in picks]
        pk = fields._packing(field, rng.randint(1, 5))
        assert pk.columns(packed, picks) == expected
        long += any(len(row) > 64 for row in stack) and bool(picks)
    assert long > 50


LONG_ROW_FIELDS = [PrimeField(5), PrimeField(65537), ExtField(PrimeField(7), 3)]


@pytest.mark.parametrize("field", LONG_ROW_FIELDS, ids=["f5", "f65537", "gf7_3"])
def test_a_long_dense_row_packs_and_unpacks_within_a_second(field):
    # One shift per element copied the whole int built so far: a dense
    # row of 100,000 elements over F_5 took 2.5 s to pack and 2.1 s to
    # unpack that way.
    rng = random.Random(23)
    row = [field.random_element(rng) for _ in range(100_000)]
    pk = fields._packing(field, len(row))
    start = time.perf_counter()
    x = pk.pack(row)
    packed = time.perf_counter()
    assert pk.unpack(x) == row
    assert (packed - start < 1.0, time.perf_counter() - packed < 1.0) == (True, True)


LAYOUT_QS = [q for q in range(2, 300) if is_prime(q)] + [65537, 1000003]
LAYOUT_TS = [*range(1, 21), 60]
# sha256 of repr([(q, t, W), ...]) over LAYOUT_QS x LAYOUT_TS, split at t = 1.
# The t = 1 rows were taken while only some blocks were padded, and before
# the fold reduced its slots mod q: the prime layouts, which every certify
# and sweep kernel uses, keep their W.  The t >= 2 rows were taken when the
# fold began reducing mod q before each of its products.
W_PRIME_SHA256 = "a7a79fd203aaf5acd22d4c888fee23eafb189deadb2fa3a0006c5affea045ee6"
W_EXT_SHA256 = "ba9f4038ae36a2bcee27e53e9f7211d0b9646edd50544b85ae92d41e6acb090f"
# The t >= 2 rows of the same table when W held the fold's unreduced bound,
# as computed by unreduced_fold_width.
W_EXT_UNREDUCED_SHA256 = "6521a4b854391fb8a6dc3cb5f80efd6fb116bcef57573243819c2f87a2214d3f"


def unreduced_fold_width(q, t):
    """W when the fold multiplied unreduced slots by mu and by the
    modulus's low part: every low slot then reached v1 + (t-1)^2 v1 c^2."""
    c = q - 1
    v1 = t * c * c + t * q * c
    v2 = v1 + (t - 1) ** 2 * v1 * c * c
    s = v2.bit_length() + q.bit_length()
    return (v2 * ((1 << s) // q + 1)).bit_length()


@pytest.mark.parametrize(
    "q, t",
    [(5, 1), (1000003, 1), (5, 8), (7, 9), (11, 60)],
    ids=["F5", "F1000003", "GF(5^8)", "GF(7^9)", "GF(11^60)"],
)
def test_clear_is_reduce_against_a_one_entry_basis(q, t):
    # clear, the step clearing() binds, takes the pivot column from prow's
    # first nonzero block, which may lie past block 0, and leaves a row
    # already zero there as it is.
    # Each cleared row is reduce's against [(pivot offset, prow)], and in
    # field arithmetic p * row - v * prow for the pivot p and the row's
    # entry v under it.
    field = PrimeField(q) if t == 1 else ExtField(PrimeField(q), t)
    n = 6
    pk = fields._packing(field, n)
    clear = pk.clearing()
    rng = random.Random(q * 100 + t)
    zero_rows = late_pivots = 0
    for _ in range(40):
        lead = rng.randrange(n)
        prow = [field.zero] * lead + [field.random_element(rng) for _ in range(n - lead)]
        if prow[lead] == field.zero:
            prow[lead] = field.one
        rows = [[field.random_element(rng) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        for row in rows:
            if rng.random() < 0.3:
                row[lead] = field.zero
        packed = [pk.pack(row) for row in rows]
        cleared = clear(packed, pk.pack(prow))
        assert cleared == [pk.reduce(x, [(lead * pk.bw, pk.pack(prow))]) for x in packed]
        p = prow[lead]
        for row, x, y in zip(rows, packed, cleared):
            v = row[lead]
            if v == field.zero:
                assert y == x
                zero_rows += 1
            else:
                assert pk.unpack(y) == [field.sub(field.mul(p, a), field.mul(v, b)) for a, b in zip(row, prow)]
        late_pivots += lead > 0
    assert zero_rows > 5 and late_pivots > 20


@pytest.mark.parametrize(
    "q, t",
    [(5, 1), (1000003, 1), (5, 8), (7, 9), (11, 60)],
    ids=["F5", "F1000003", "GF(5^8)", "GF(7^9)", "GF(11^60)"],
)
def test_lowered_rows_are_the_rows_moved_to_their_lowest_nonzero_column(q, t):
    # Rows whose lowest nonzero column is c, placed at columns c.. of a
    # longer layout, lower to the rows placed from column 0; rows that are
    # all zero stay as they are.
    field = PrimeField(q) if t == 1 else ExtField(PrimeField(q), t)
    n = 7
    pk = fields._packing(field, n)
    rng = random.Random(q * 1000 + t)
    for _ in range(30):
        width, at = rng.randint(1, 4), rng.randint(0, 3)
        rows = [[field.random_element(rng) for _ in range(width)] for _ in range(rng.randint(1, 4))]
        rows[0][0] = field.one
        zero = [field.zero]
        assert pk.lowered([pk.pack(zero * at + row + zero * (n - at - width)) for row in rows]) == tuple(
            pk.pack(row) for row in rows
        )
        assert pk.lowered([0] * len(rows)) == (0,) * len(rows)
    assert pk.lowered([]) == ()


def test_every_layout_pads_its_blocks_to_whole_bytes_and_keeps_its_slot_width():
    # unpack reads coordinate i of a block as the cb bytes from slot i's
    # start, which hold nothing else: for t >= 2 the slot is that wide,
    # and the one slot of a t = 1 block has only padding above it.
    table = []
    for q in LAYOUT_QS:
        for t in LAYOUT_TS:
            layouts = [fields._Packing(q, (0,) * t + (1,), 1)] + [fields._Packing(q, None, 1)] * (t == 1)
            w = layouts[0].w
            for pk in layouts:
                assert pk.w == w and pk.bw % 8 == 0 and 0 <= pk.bw - (2 * t - 1) * w < 8
                assert pk.step == pk.bw // 8 >= pk.cb == ((q - 1).bit_length() + 7) // 8
                assert t == 1 or w >= 8 * pk.cb
            table.append((q, t, w))
    assert len(table) == 1344
    prime = [row for row in table if row[1] == 1]
    ext = [row for row in table if row[1] > 1]
    unreduced = [(q, t, unreduced_fold_width(q, t)) for q, t, _ in ext]
    assert hashlib.sha256(repr(prime).encode()).hexdigest() == W_PRIME_SHA256
    assert hashlib.sha256(repr(ext).encode()).hexdigest() == W_EXT_SHA256
    assert hashlib.sha256(repr(unreduced).encode()).hexdigest() == W_EXT_UNREDUCED_SHA256
    assert all(w <= old for (_, _, w), (_, _, old) in zip(ext, unreduced))


def test_the_kernel_is_exact_at_every_slot_bound():
    # Each shape of sum the kernel canonicalizes, at its largest slots
    # (every operand coordinate q - 1) and at seeded operands, against
    # ref_mulmod: one product (ExtField.mul), a canonical accumulator plus
    # two products (combine), the step p * row + (negq - v) * prow
    # (reduce; at the largest slots v = 1, so negq - v is q in all but one
    # slot), and sums of r <= t scalar-times-element products (frobenius,
    # t of them, and a local repair).  One seeded monic modulus per (q, t),
    # on every extension layout the width table covers.
    rng = random.Random(3400)
    cases = 0
    for q in LAYOUT_QS:
        c = q - 1
        for t in LAYOUT_TS[1:]:
            modulus = [rng.randrange(q) for _ in range(t)] + [1]
            pk = fields._Packing(q, modulus, 2)
            full = (c,) * t
            one = (1,) + (0,) * (t - 1)
            a, b, e = (tuple(rng.randrange(q) for _ in range(t)) for _ in range(3))
            v = (1,) + e[1:]
            products = {}

            def mulmod(x, y):
                if (x, y) not in products:
                    products[x, y] = ref_mulmod(x, y, modulus, q)
                return products[x, y]

            def lin(weights, elems):
                return tuple(sum(col) % q for col in zip(*[[w * u for u in x] for w, x in zip(weights, elems)]))

            # (x, y) multiply; p is the pivot and w the entry under it.
            for x, y, p, w in ((full, full, full, one), (a, b, a, v)):
                px, py = pk.pack_elem(x), pk.pack_elem(y)
                xy = mulmod(x, y)
                assert pk.unpack_elem(pk.canon(px * py)) == xy
                pair = pk.combine([px] * 4, [pk.pack([y, full])] * 4)
                assert pk.unpack(pair) == [lin([4], [xy]), lin([4], [mulmod(x, full)])]
                step = pk.reduce(pk.pack([w, full]), [(0, pk.pack([p, y]))])
                assert pk.unpack(step) == [(0,) * t, lin([1, -1], [mulmod(p, full), mulmod(w, y)])]
                r = rng.randint(1, t)
                for scalars, elem, packed in (([c] * t, x, px), ([c] * r, y, py)):
                    total = pk.canon(sum(s * packed for s in scalars))
                    assert pk.unpack_elem(total) == lin(scalars, [elem] * len(scalars))
                cases += 1
    assert cases == 2 * len(LAYOUT_QS) * (len(LAYOUT_TS) - 1) == 2560


@pytest.mark.parametrize(
    "q, t",
    [(2, 1), (5, 1), (65537, 1), (1000003, 1), (2, 5), (5, 8), (11, 27)],
    ids=["F2", "F5", "F65537", "F1000003", "GF(2^5)", "GF(5^8)", "GF(11^27)"],
)
def test_a_layout_without_a_field_context_eliminates_to_an_inverse(q, t):
    # A layout built from (q, modulus, length) alone inverts its pivots on
    # itself, as one packed power: seeded [A | B], A invertible, reduce to
    # [I | X].  A times X is checked to be B through ref_mul; the field
    # context only draws the systems and checks them.
    field = PrimeField(q) if t == 1 else ExtField(PrimeField(q), t)
    n, m = 5, 3
    pk = fields._Packing(q, getattr(field, "modulus", None), n + m)
    rng = random.Random(q * 100 + t)
    identity = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    solved = 0
    while solved < 3:
        a = [[field.random_element(rng) for _ in range(n)] for _ in range(n)]
        if Matrix(field, a).rank() < n:
            continue
        b = [[field.random_element(rng) for _ in range(m)] for _ in range(n)]
        rows = [pk.unpack(row) for row in pk.reduced_echelon([pk.pack(ra + rb) for ra, rb in zip(a, b)], n)]
        assert [row[:n] for row in rows] == identity
        x = [row[n:] for row in rows]
        for ra, rb in zip(a, b):
            product = [field.zero] * m
            for v, rx in zip(ra, x):
                product = [field.add(p, ref_mul(field, v, u)) for p, u in zip(product, rx)]
            assert product == rb
        solved += 1
