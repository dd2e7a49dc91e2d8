"""Exact coefficient domains: rationals, prime fields F_p, quadratic extensions K(sqrt(D)).

Rationals are plain ``fractions.Fraction`` (already reduced, positive
denominator).  Prime-field and quadratic-extension elements are small frozen
classes that interoperate with ``int`` and ``Fraction`` through the usual
operator protocol, so polynomial code never needs to know which domain it is
working over.

Code on a hot path may compute with plain numbers instead: a ``Fraction``
over Q, an ``int`` over F_p.  ``plain`` takes an element to its plain number
(over an extension, a + b sqrt(D) to the pair (a, b) of plain numbers),
``reduce`` brings a result of ``+``, ``-`` and ``*`` on plain numbers to the
canonical one (the residue in [0, p) over F_p), ``inverse`` inverts a nonzero
plain number, and ``coerce`` turns a plain number back into an element.
For a list, ``plain_list`` gives plain numbers and the factor L they were
scaled by, and ``from_plain`` divides by L and builds the elements: integers
cleared by the lcm L of the denominators over Q, residues in [0, p) over F_p
and the elements themselves over an extension (L = 1 for both); ``modulus``
is p over F_p, the modulus plain results are reduced by, and None elsewhere.
Over an extension ``reduce`` and ``inverse`` act on those elements, so one
list arithmetic runs on the ``plain_list`` values of every domain.  A square
root comes from ``plain_sqrt`` over Q and F_p as plain numbers (s0, s1, d),
s0 + s1 sqrt(d); ``quad_sqrt`` builds its element.

Primes 2 and 3 are rejected everywhere: the conic formulas multiply by 4 and
divide by 2, and cubics need characteristic != 3.  Extensions are degree <= 2
over the working field; building an extension on top of an extension raises.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Union


class BadPrime(ValueError):
    """Modulus is not an odd prime > 3, or divides a denominator."""


class ZeroInput(ValueError):
    """Square root of zero requested (rank-degenerate case, caller handles)."""


class ExtensionTower(ValueError):
    """Attempt to build a quadratic extension of a quadratic extension."""


Scalar = Union[Fraction, "FpElem", "QuadElem"]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    # deterministic Miller-Rabin, valid far beyond any modulus used here
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_GOOD_MODULI: set = set()


def _check_modulus(p: int) -> int:
    if p in _GOOD_MODULI:
        return p
    if not isinstance(p, int) or p in (2, 3) or not is_prime(p):
        raise BadPrime(f"modulus must be an odd prime > 3, got {p!r}")
    _GOOD_MODULI.add(p)
    return p


class FpElem:
    """An element of F_p, stored as the residue in [0, p).

    Sums, differences and products of two elements of one field build their
    result with ``_of``; every other operand goes through ``_coerce``, so mixed
    moduli still raise."""

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        self.p = p
        self.residue = residue % p

    @classmethod
    def _of(cls, residue: int, p: int):
        """The element of F_p whose residue, already in [0, p), is given."""
        elem = object.__new__(cls)
        elem.residue, elem.p = residue, p
        return elem

    def _coerce(self, other):
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElem(other, self.p)
        if isinstance(other, Fraction):
            return reduce_mod_prime(other, self.p)
        return None

    def __add__(self, other):
        if type(other) is FpElem and other.p == self.p:
            return FpElem._of((self.residue + other.residue) % self.p, self.p)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.residue + o.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is FpElem and other.p == self.p:
            return FpElem._of((self.residue - other.residue) % self.p, self.p)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.residue - o.residue, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(o.residue - self.residue, self.p)

    def __mul__(self, other):
        if type(other) is FpElem and other.p == self.p:
            return FpElem._of(self.residue * other.residue % self.p, self.p)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.residue * o.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.residue * pow(o.residue, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        return FpElem(pow(self.residue, n, self.p), self.p)

    def __neg__(self):
        return FpElem(-self.residue, self.p)

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, FpElem) else other
        if o is None or not isinstance(o, FpElem):
            return NotImplemented
        return self.p == o.p and self.residue == o.residue

    def __hash__(self):
        return hash((self.residue, self.p))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"{self.residue} (mod {self.p})"


class QuadElem:
    """a + b*sqrt(D) with a, b in the base field of ``ext``.

    The constructor coerces its parts into the base field; arithmetic builds
    its results with ``_of``, since their parts are base elements already, and
    combines a base-field operand with the two parts directly."""

    __slots__ = ("a", "b", "ext")

    def __init__(self, a, b, ext: "QuadraticExtension"):
        self.a = ext.base.coerce(a)
        self.b = ext.base.coerce(b)
        self.ext = ext

    @classmethod
    def _of(cls, a, b, ext):
        """a + b*sqrt(D) from parts that are elements of ext.base."""
        elem = object.__new__(cls)
        elem.a, elem.b, elem.ext = a, b, ext
        return elem

    def _same_ext(self, other: "QuadElem") -> "QuadElem":
        if other.ext is not self.ext and other.ext != self.ext:
            raise ValueError("mixed quadratic extensions")
        return other

    def _base(self, other):
        """``other`` as an element of the base field, or None if it is not one."""
        try:
            return self.ext.base.coerce(other)
        except (TypeError, ValueError):
            return None

    def _coerce(self, other):
        if isinstance(other, QuadElem):
            return self._same_ext(other)
        c = self._base(other)
        return None if c is None else QuadElem._of(c, self.ext.base.zero, self.ext)

    def __add__(self, other):
        if isinstance(other, QuadElem):
            o = self._same_ext(other)
            return QuadElem._of(self.a + o.a, self.b + o.b, self.ext)
        c = self._base(other)
        if c is None:
            return NotImplemented
        return QuadElem._of(self.a + c, self.b, self.ext)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QuadElem):
            o = self._same_ext(other)
            return QuadElem._of(self.a - o.a, self.b - o.b, self.ext)
        c = self._base(other)
        if c is None:
            return NotImplemented
        return QuadElem._of(self.a - c, self.b, self.ext)

    def __rsub__(self, other):
        c = self._base(other)
        if c is None:
            return NotImplemented
        return QuadElem._of(c - self.a, -self.b, self.ext)

    def __mul__(self, other):
        if isinstance(other, QuadElem):
            o = self._same_ext(other)
            return QuadElem._of(self.a * o.a + self.ext.d * self.b * o.b,
                                self.a * o.b + self.b * o.a, self.ext)
        c = self._base(other)
        if c is None:
            return NotImplemented
        return QuadElem._of(self.a * c, self.b * c, self.ext)

    __rmul__ = __mul__

    def norm(self):
        """Field norm a^2 - D*b^2, an element of the base field."""
        return self.a * self.a - self.ext.d * self.b * self.b

    def conjugate(self):
        return QuadElem._of(self.a, -self.b, self.ext)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if not n:
            raise ZeroDivisionError("division by zero in quadratic extension")
        inv_n = self.ext.base.one / n
        num = self * o.conjugate()
        return QuadElem._of(num.a * inv_n, num.b * inv_n, self.ext)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return (self.ext.one / self) ** (-n)
        result = self.ext.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __neg__(self):
        return QuadElem._of(-self.a, -self.b, self.ext)

    def __eq__(self, other):
        if not isinstance(other, QuadElem):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        return self.ext == other.ext and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.ext))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.ext.d}))"


class RationalField:
    """The field of rationals; elements are ``fractions.Fraction``."""

    char = 0
    modulus = None

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def plain(self, x) -> Fraction:
        return x

    reduce = staticmethod(Fraction)

    def inverse(self, x) -> Fraction:
        return 1 / Fraction(x)

    def plain_list(self, values):
        """(ints, L): ``values`` times L, the lcm of their denominators."""
        scale = math.lcm(*(x.denominator for x in values))
        return [x.numerator * (scale // x.denominator) for x in values], scale

    def from_plain(self, numbers, scale=1) -> list:
        return [Fraction(v, scale) for v in numbers]

    def sqrt_or_none(self, x):
        """Exact square root if x is a square in Q, else None."""
        x = self.coerce(x)
        if x < 0:
            return None
        n, d = x.numerator, x.denominator
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    def plain_sqrt(self, n):
        """A square root s0 + s1 sqrt(d) of the rational n as plain numbers
        (s0, s1, d, field): in Q when n is a square, else in Q(sqrt d) for the
        squarefree part d of n (sqrt(-4) is 2 sqrt(-1))."""
        r = self.sqrt_or_none(n)
        if r is not None:
            return r, 0, 0, self
        sn, core_n = _square_part(abs(n.numerator))
        sd, core_d = _square_part(n.denominator)
        d = Fraction((-1 if n < 0 else 1) * core_n * core_d)
        return Fraction(0), Fraction(sn, sd * core_d), d, QuadraticExtension(self, d)

    def random(self, rng: random.Random, bound: int) -> Fraction:
        return Fraction(rng.randint(-bound, bound))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for an odd prime p > 3."""

    def __init__(self, p: int):
        self.p = _check_modulus(p)
        self.char = self.p
        self.modulus = self.p

    @property
    def zero(self):
        return FpElem(0, self.p)

    @property
    def one(self):
        return FpElem(1, self.p)

    def coerce(self, x) -> FpElem:
        if isinstance(x, FpElem):
            if x.p != self.p:
                raise ValueError(f"element of F_{x.p} fed to F_{self.p}")
            return x
        if isinstance(x, int):
            return FpElem(x, self.p)
        if isinstance(x, Fraction):
            return reduce_mod_prime(x, self.p)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def plain(self, x: FpElem) -> int:
        return x.residue

    def reduce(self, n: int) -> int:
        return n % self.p

    def inverse(self, n: int) -> int:
        return pow(n, -1, self.p)

    def plain_list(self, values):
        """(residues, 1) of elements, ints or Fractions; raises as ``coerce``."""
        return [x % self.p if type(x) is int else self.coerce(x).residue for x in values], 1

    def from_plain(self, numbers, scale=1) -> list:
        """The elements of residues that are already in [0, p); scale is 1."""
        return [FpElem._of(r, self.p) for r in numbers]

    def sqrt_or_none(self, x):
        x = self.coerce(x)
        if not x:
            return x
        r = _sqrt_mod_p(x.residue, self.p)
        return None if r is None else FpElem(r, self.p)

    def plain_sqrt(self, n: int):
        """``quad_sqrt`` of the residue n as plain numbers (s0, s1, d, field), no element built."""
        r = _sqrt_mod_p(n, self.p)
        if r is not None:
            return r, 0, 0, self
        d = _least_non_residue(self.p)
        return 0, _sqrt_mod_p(n * pow(d, -1, self.p), self.p), d, _fp_extension(self.p)

    def random(self, rng: random.Random, bound: int) -> FpElem:
        return FpElem(rng.randint(-bound, bound), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


def _sqrt_mod_p(a: int, p: int) -> int | None:
    """Tonelli-Shanks; None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # factor p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m, c, t, r = s, pow(_least_non_residue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


@functools.lru_cache(maxsize=None)
def _least_non_residue(p: int) -> int:
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return z


class QuadraticExtension:
    """K(sqrt(D)) for D a non-square in the base field K.

    K is QQ or a PrimeField; towers are rejected.
    """

    modulus = None

    def __init__(self, base, d):
        if isinstance(base, QuadraticExtension):
            raise ExtensionTower("extensions of extensions are not supported")
        self.base = base
        self.d = base.coerce(d)
        if not self.d:
            raise ZeroInput("extension by sqrt(0)")
        if base.sqrt_or_none(self.d) is not None:
            raise ValueError(f"{d!r} is already a square in {base!r}")
        self.char = base.char

    @property
    def zero(self):
        return QuadElem(self.base.zero, self.base.zero, self)

    @property
    def one(self):
        return QuadElem(self.base.one, self.base.zero, self)

    @property
    def sqrt_d(self):
        return QuadElem(self.base.zero, self.base.one, self)

    def coerce(self, x) -> QuadElem:
        if isinstance(x, QuadElem):
            if x.ext != self:
                raise ValueError("element of a different quadratic extension")
            return x
        return QuadElem(self.base.coerce(x), self.base.zero, self)

    def plain(self, x) -> tuple:
        return self.base.plain(x.a), self.base.plain(x.b)

    def reduce(self, x):
        return x

    def inverse(self, x):
        return 1 / x

    def plain_list(self, values):
        return [self.coerce(x) for x in values], 1

    def from_plain(self, numbers, scale=1) -> list:
        return [self.coerce(x) for x in numbers]

    def sqrt_or_none(self, x):
        """Square root inside this extension, or None.

        Writes the candidate root as u + v*sqrt(D) and solves
        u^2 = (a +- s)/2 where s^2 = a^2 - D b^2 (the norm of x).
        """
        x = self.coerce(x)
        if not x:
            return x
        base = self.base
        if not x.b:
            r = base.sqrt_or_none(x.a)
            if r is not None:
                return QuadElem(r, base.zero, self)
            r = base.sqrt_or_none(x.a / self.d)
            if r is not None:
                return QuadElem(base.zero, r, self)
            return None
        s = base.sqrt_or_none(x.norm())
        if s is None:
            return None
        half = base.one / base.coerce(2)
        for sign in (s, -s):
            u2 = (x.a + sign) * half
            u = base.sqrt_or_none(u2)
            if u is not None and u:
                v = x.b / (base.coerce(2) * u)
                cand = QuadElem(u, v, self)
                if cand * cand == x:
                    return cand
        return None

    def random(self, rng: random.Random, bound: int) -> QuadElem:
        return QuadElem(self.base.random(rng, bound), self.base.random(rng, bound), self)

    def __eq__(self, other):
        return (isinstance(other, QuadraticExtension)
                and other.base == self.base and other.d == self.d)

    def __hash__(self):
        return hash(("ext", self.base, self.d))

    def __repr__(self):
        return f"{self.base!r}(sqrt({self.d}))"


QQ = RationalField()


def reduce_mod_prime(x, p: int) -> FpElem:
    """Reduce a rational (or int) mod p.  Ring homomorphism on p-free denominators."""
    _check_modulus(p)
    if isinstance(x, int):
        return FpElem(x, p)
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise BadPrime(f"denominator of {x} divisible by {p}")
        return FpElem(x.numerator * pow(x.denominator, -1, p), p)
    raise TypeError(f"cannot reduce {x!r} mod {p}")


def point_field(points, base):
    """The field that the coordinates of ``points`` live in: the quadratic
    extension of ``base`` that holds their QuadElem coordinates, or ``base``
    when there are none.  Raises ValueError on points over different
    extensions, or over an extension of another field."""
    ext = None
    for pt in points:
        for c in pt:
            if isinstance(c, QuadElem):
                if ext is not None and c.ext != ext:
                    raise ValueError("points live in different quadratic extensions")
                ext = c.ext
    if ext is None:
        return base
    if ext.base != base:
        raise ValueError("point extension is not over the base field")
    return ext


def _square_part(n: int, cap: int = 20000):
    """(s, core) with n = s^2 * core, core squarefree up to the factoring cap."""
    s, core = 1, 1
    d = 2
    while d * d <= n and d <= cap:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            s *= d ** (e // 2)
            core *= d ** (e % 2)
        d += 1
    return s, core * n


@functools.lru_cache(maxsize=None)
def _fp_extension(p: int) -> QuadraticExtension:
    """F_p(sqrt D0) for the least non-residue D0, built once per p."""
    return QuadraticExtension(PrimeField(p), _least_non_residue(p))


def quad_sqrt(d, domain):
    """A square root of d: in ``domain`` when d is a square there, else in domain(sqrt(d)).

    Returns (root, field_of_root), the element of the domain's ``plain_sqrt``:
    over Q the extension is normalized by pulling square factors out of d
    (sqrt(-4) is reported as 2*sqrt(-1)); over F_p every non-square lands in
    F_p(sqrt D0) for the least non-residue D0, as sqrt(d) = sqrt(d / D0) *
    sqrt(D0).
    Raises ZeroInput on d = 0; raises ExtensionTower when d is a non-square
    in a field that is already an extension.
    """
    d = domain.coerce(d)
    if not d:
        raise ZeroInput("quad_sqrt(0): degenerate conic, handled by caller")
    if not isinstance(domain, QuadraticExtension):
        s0, s1, _, field = domain.plain_sqrt(domain.plain(d))
        return (domain.coerce(s0) if field is domain else QuadElem(s0, s1, field)), field
    r = domain.sqrt_or_none(d)
    if r is not None:
        return r, domain
    ext = QuadraticExtension(domain, d)
    return ext.sqrt_d, ext
