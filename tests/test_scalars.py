"""Exact coefficient domains: reduction maps, square roots, field axioms."""

import random
from fractions import Fraction

import pytest

from taucubic.scalars import (BadPrime, ExtensionTower, FpElem, PrimeField, QQ,
                              QuadElem, QuadraticExtension, ZeroInput, point_field,
                              quad_sqrt, reduce_mod_prime)


def test_reduce_half_mod_7():
    assert reduce_mod_prime(Fraction(1, 2), 7) == FpElem(4, 7)


def test_reduce_zero_mod_11():
    assert reduce_mod_prime(Fraction(0), 11) == FpElem(0, 11)


def test_reduce_bad_denominator():
    with pytest.raises(BadPrime):
        reduce_mod_prime(Fraction(22, 7), 7)


@pytest.mark.parametrize("p", [2, 3, 4, 9, 15])
def test_bad_moduli_rejected(p):
    with pytest.raises(BadPrime):
        PrimeField(p)


def test_reduce_is_ring_homomorphism():
    rng = random.Random(101)
    p = 101
    for _ in range(200):
        x = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 4, 5, 6, 9, 11]))
        y = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 4, 5, 6, 9, 11]))
        assert reduce_mod_prime(x + y, p) == reduce_mod_prime(x, p) + reduce_mod_prime(y, p)
        assert reduce_mod_prime(x * y, p) == reduce_mod_prime(x, p) * reduce_mod_prime(y, p)


def test_quad_sqrt_perfect_square():
    root, fld = quad_sqrt(Fraction(4), QQ)
    assert fld is QQ and root == 2


def test_quad_sqrt_minus_one():
    root, fld = quad_sqrt(Fraction(-1), QQ)
    assert isinstance(fld, QuadraticExtension)
    assert fld.d == -1
    assert root * root == fld.coerce(-1)


def test_quad_sqrt_two_mod_7():
    # exhaustive: squares mod 7 are {0,1,2,4}; the roots of 2 are 3 and 4
    f7 = PrimeField(7)
    expected = {r for r in range(7) if r * r % 7 == 2}
    assert expected == {3, 4}
    root, fld = quad_sqrt(2, f7)
    assert fld is f7
    assert root.residue in expected


def test_quad_sqrt_zero_rejected():
    with pytest.raises(ZeroInput):
        quad_sqrt(Fraction(0), QQ)


def test_square_factor_normalization():
    root, fld = quad_sqrt(Fraction(-4), QQ)
    assert fld.d == -1
    assert root == QuadElem(0, 2, fld)
    root, fld = quad_sqrt(Fraction(18), QQ)
    assert fld.d == 2 and root == QuadElem(0, 3, fld)


def test_towers_rejected():
    ext = QuadraticExtension(QQ, Fraction(2))
    with pytest.raises(ExtensionTower):
        QuadraticExtension(ext, ext.coerce(3))


def test_square_d_rejected():
    with pytest.raises(ValueError):
        QuadraticExtension(QQ, Fraction(9))


def _domains():
    f101 = PrimeField(101)
    return [
        ("QQ", QQ),
        ("F101", f101),
        ("QQ(sqrt 2)", QuadraticExtension(QQ, Fraction(2))),
        ("F101(sqrt ns)", _f101_ext(f101)),
    ]


def _f101_ext(f101):
    d = 2
    while f101.sqrt_or_none(d) is not None:
        d += 1
    return QuadraticExtension(f101, d)


@pytest.mark.parametrize("name,domain", _domains())
def test_field_axioms_random_triples(name, domain):
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (domain.random(rng, 9) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + domain.zero == a
        assert a * domain.one == a
        assert a + (-a) == domain.zero
        if a:
            assert a * (domain.one / a) == domain.one


@pytest.mark.parametrize("name,domain", _domains())
def test_quad_sqrt_squares_back(name, domain):
    rng = random.Random(13)
    found = 0
    while found < 100:
        d = domain.random(rng, 40)
        if not d:
            continue
        if isinstance(domain, QuadraticExtension):
            d = d * d  # stay inside the field: towers are rejected by design
        found += 1
        root, fld = quad_sqrt(d, domain)
        assert root * root == fld.coerce(d)


def test_euler_criterion_matches_bruteforce():
    p = 23
    f = PrimeField(p)
    squares = {r * r % p for r in range(1, p)}
    for a in range(1, p):
        assert (f.sqrt_or_none(a) is not None) == (a in squares)


def test_fp_fraction_interop():
    f7 = PrimeField(7)
    x = FpElem(3, 7)
    assert Fraction(1, 2) + x == FpElem(0, 7)
    assert Fraction(1, 2) * x == FpElem(5, 7)


def test_fp_elem_same_field_fast_path():
    # sums, differences and products within one field skip _coerce; mixed moduli still raise
    rng = random.Random(3)
    for _ in range(50):
        a, b = rng.randrange(-300, 300), rng.randrange(-300, 300)
        x, y = FpElem(a, 101), FpElem(b, 101)
        for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b)):
            assert type(got) is FpElem and (got.residue, got.p) == (want % 101, 101)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(ValueError):
            op(FpElem(1, 7), FpElem(1, 11))


def test_quad_ext_arithmetic_closed():
    ext = QuadraticExtension(QQ, Fraction(-1))
    i = ext.sqrt_d
    assert i * i == ext.coerce(-1)
    assert (1 + i) * (1 - i) == ext.coerce(2)
    assert (ext.one / (1 + i)) * (1 + i) == ext.one
    assert i ** 4 == ext.one


def test_quad_elem_base_operands_match_embedded():
    # a base-field operand is combined with the two parts directly; the result
    # equals the one with the operand embedded in the extension
    rng = random.Random(17)
    for ext in (QuadraticExtension(QQ, Fraction(-1)), _f101_ext(PrimeField(101))):
        base = ext.base
        for _ in range(40):
            x = ext.random(rng, 9)
            c = base.random(rng, 9)
            for y in (c, 5):
                e = ext.coerce(y)
                for got, want in ((x + y, x + e), (y + x, e + x), (x - y, x - e),
                                  (y - x, e - x), (x * y, x * e), (y * x, e * x)):
                    assert isinstance(got, QuadElem) and got == want
                    assert type(got.a) is type(base.zero) and type(got.b) is type(base.zero)


def test_quad_elem_mixed_fields_raise():
    ext = _f101_ext(PrimeField(101))
    x = ext.sqrt_d + 1
    for other in (FpElem(3, 7), FpElem(1, 103)):
        for op in (lambda: x + other, lambda: other + x, lambda: x - other,
                   lambda: other - x, lambda: x * other, lambda: other * x):
            with pytest.raises(TypeError):
                op()
    i = QuadraticExtension(QQ, Fraction(-1)).sqrt_d
    r2 = QuadraticExtension(QQ, Fraction(2)).sqrt_d
    for op in (lambda: i + r2, lambda: i - r2, lambda: i * r2):
        with pytest.raises(ValueError):
            op()


def test_equal_extensions_hash_alike():
    a = QuadraticExtension(QQ, Fraction(-1)).sqrt_d
    b = QuadraticExtension(QQ, Fraction(-1)).sqrt_d
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_point_field_is_the_one_extension_of_the_points():
    gauss, root2 = QuadraticExtension(QQ, Fraction(-1)), QuadraticExtension(QQ, Fraction(2))
    rational = (QQ.one, QQ.zero)
    assert point_field([rational, rational], QQ) is QQ
    assert point_field([rational, (gauss.sqrt_d, QQ.one)], QQ) == gauss
    with pytest.raises(ValueError):
        point_field([(gauss.sqrt_d,), (root2.sqrt_d,)], QQ)
    f101 = PrimeField(101)
    with pytest.raises(ValueError):
        point_field([(gauss.sqrt_d,)], f101)


# The list form of the plain protocol: each domain writes its own elements as
# plain numbers and builds them back.
F101_D0 = quad_sqrt(2, PrimeField(101))[1]  # 2 is a non-residue mod 101


@pytest.mark.parametrize("domain", [QQ, PrimeField(11), PrimeField(4294967311), F101_D0,
                                    QuadraticExtension(QQ, -3)], ids=repr)
def test_from_plain_inverts_plain_list(domain):
    rng = random.Random(35)
    for n in (0, 1, 6):
        values = [domain.random(rng, 50) / domain.coerce(rng.randint(1, 9)) for _ in range(n)]
        numbers, scale = domain.plain_list(values)
        assert domain.from_plain(numbers, scale) == values
        assert scale == 1 or domain is QQ


def test_rational_plain_list_clears_by_the_lcm_of_the_denominators():
    values = [Fraction(1, 6), Fraction(-3, 4), 5, Fraction(0), Fraction(7, 9)]
    assert QQ.plain_list(values) == ([6, -27, 180, 0, 28], 36)
    assert QQ.plain_list([]) == ([], 1)


def test_prime_field_plain_list_takes_ints_fractions_and_elements():
    p = 4294967311
    values = [-1, p + 3, Fraction(1, 2), FpElem(25, p), PrimeField(p).coerce(Fraction(-2, 3))]
    numbers, scale = PrimeField(p).plain_list(values)
    assert (numbers, scale) == ([p - 1, 3, (p + 1) // 2, 25, (p - 2) * pow(3, -1, p) % p], 1)
    assert PrimeField(p).from_plain(numbers) == [PrimeField(p).coerce(v) for v in values]


@pytest.mark.parametrize("value, error", [(FpElem(1, 7), ValueError),
                                          (Fraction(5, 22), BadPrime), (0.5, TypeError)])
def test_prime_field_plain_list_raises_as_coerce(value, error):
    with pytest.raises(error):
        PrimeField(11).plain_list([1, value])
