"""Arithmetic in GF(p^k) for small fields (order capped at 2**16).

Elements are handled as canonical indices 0..q-1: the index is the base-p
value of the coefficient vector, constant term least significant, so index 0
is zero, index 1 is one, and the prime-field case reduces to plain residues.
``GfField`` methods operate on indices (the fast path used by the
constructions); ``GfElement`` wraps an index with operator overloads.

The reducing modulus is the smallest monic irreducible of degree k, with
candidates compared coefficient-wise from the constant term up, found by
exhaustive divisor search.  Everything is deterministic; no probabilistic
tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

FIELD_ORDER_CAP = 2**16


class GaloisError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Decompose n as (p, k) with p prime and n == p**k, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            rest = n
            while rest % p == 0:
                rest //= p
                k += 1
            return (p, k) if rest == 1 else None
        p += 1
    return (n, 1)


def _poly_mod(a: list[int], b: tuple[int, ...], p: int) -> list[int]:
    # remainder of a by monic b; coefficient lists are constant-term first
    a = [c % p for c in a]
    db = len(b) - 1
    for da in range(len(a) - 1, db - 1, -1):
        coef = a[da]
        if coef:
            shift = da - db
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - coef * b[i]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    if poly[0] == 0:
        return False  # divisible by x
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not _poly_mod(list(poly), tuple(low) + (1,), p):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)  # the polynomial x; prime-field elements are residues
    for low in itertools.product(range(p), repeat=k):
        candidate = tuple(low) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise GaloisError(f"no irreducible of degree {k} over GF({p})")  # unreachable


@dataclass(frozen=True)
class GfField:
    """The field GF(p^k) reduced by a fixed monic irreducible modulus.

    ``modulus`` stores coefficients constant term first, length k+1.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.k

    def coeffs(self, index: int) -> tuple[int, ...]:
        """Coefficient vector (c0, ..., c_{k-1}), constant term first."""
        self._check(index)
        out = []
        for _ in range(self.k):
            index, c = divmod(index, self.p)
            out.append(c)
        return tuple(out)

    def index(self, coeffs: tuple[int, ...] | list[int]) -> int:
        if len(coeffs) != self.k:
            raise GaloisError(f"need {self.k} coefficients, got {len(coeffs)}")
        value = 0
        for c in reversed(coeffs):
            value = value * self.p + c % self.p
        return value

    def add(self, a: int, b: int) -> int:
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self.index([(x + y) % self.p for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        return self.index([-c % self.p for c in self.coeffs(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        rem = _poly_mod(prod, self.modulus, self.p)
        rem += [0] * (self.k - len(rem))
        return self.index(rem[: self.k])

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            a, e = self.inv(a), -e
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise GaloisError("zero is not invertible")
        return self.pow(a, self.order - 2)

    @cached_property
    def mul_table(self) -> list[list[int]]:
        q = self.order
        return [[self.mul(a, b) for b in range(q)] for a in range(q)]

    @cached_property
    def add_table(self) -> list[list[int]]:
        q = self.order
        return [[self.add(a, b) for b in range(q)] for a in range(q)]

    @cached_property
    def neg_table(self) -> list[int]:
        return [self.neg(a) for a in range(self.order)]

    @cached_property
    def inv_table(self) -> list[int | None]:
        return [None] + [self.inv(a) for a in range(1, self.order)]

    def element(self, index: int) -> "GfElement":
        return GfElement(self, index)

    def _check(self, a: int) -> None:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise GaloisError(f"element index {a} outside [0, {self.order})")


@dataclass(frozen=True)
class GfElement:
    """One field element, identified by its canonical index."""

    field: GfField
    index: int

    def __post_init__(self):
        self.field._check(self.index)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.index)

    def _join(self, other: "GfElement") -> int:
        if not isinstance(other, GfElement) or other.field != self.field:
            raise GaloisError("operands belong to different fields")
        return other.index

    def __add__(self, other):
        return GfElement(self.field, self.field.add(self.index, self._join(other)))

    def __sub__(self, other):
        return GfElement(self.field, self.field.sub(self.index, self._join(other)))

    def __mul__(self, other):
        return GfElement(self.field, self.field.mul(self.index, self._join(other)))

    def __truediv__(self, other):
        return GfElement(self.field, self.field.mul(self.index, self.field.inv(self._join(other))))

    def __neg__(self):
        return GfElement(self.field, self.field.neg(self.index))

    def __pow__(self, e: int):
        return GfElement(self.field, self.field.pow(self.index, e))

    def inverse(self) -> "GfElement":
        return GfElement(self.field, self.field.inv(self.index))

    def __repr__(self):
        return f"GfElement(GF({self.field.order}), {self.index})"


def make_field(p: int, k: int) -> GfField:
    """Build GF(p^k) with the canonical smallest modulus.  Deterministic."""
    if not is_prime(p):
        raise GaloisError(f"{p} is not prime")
    if k < 1:
        raise GaloisError(f"extension degree must be >= 1, got {k}")
    if p**k > FIELD_ORDER_CAP:
        raise GaloisError(f"field order {p}^{k} exceeds cap {FIELD_ORDER_CAP}")
    return GfField(p, k, _smallest_irreducible(p, k))


def field_of_order(q: int) -> GfField:
    pk = prime_power(q)
    if pk is None:
        raise GaloisError(f"{q} is not a prime power")
    return make_field(*pk)


def elements(field: GfField) -> tuple[GfElement, ...]:
    """All q elements in canonical order (zero first)."""
    return tuple(GfElement(field, i) for i in range(field.order))

