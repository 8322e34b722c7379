import random
import time

import pytest

from udlrc import ExtField, ModulusSearchTooLarge, PrimeField, find_irreducible, is_prime
from udlrc.fields import MODULUS_SEARCH_BUDGET, PRIME_CHECK_LIMIT
from udlrc.fields import _is_irreducible
from udlrc import fields
from conftest import monic_candidates, ref_frobenius, ref_is_irreducible, ref_mul, ref_pow


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
    # The GF(11^60) scan up to its lex-first irreducible, candidate 177,
    # which the budget refuses to pay for (direction 2 of the roadmap).
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


def test_find_irreducible_budget_covers_small_fields():
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for t in range(1, 17):
            assert _is_irreducible(find_irreducible(q, t), q)


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        ExtField(PrimeField(2), 2, (0, 0, 1))  # x^2 has root 0
    with pytest.raises(ValueError):
        ExtField(PrimeField(2), 2, (1, 0, 2))  # not monic once reduced


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
    """inv (extended Euclid) against a^(q^t - 2), the Fermat inverse."""
    for x in elements:
        if x != f.zero:
            assert f.inv(x) == f.pow(x, f.q**f.t - 2), (f, x)
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
