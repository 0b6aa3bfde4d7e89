"""Arithmetic in GF(p^k) for small fields (order capped at 2**16).

Elements are handled as canonical indices 0..q-1: the index is the base-p
value of the coefficient vector, constant term least significant, so index 0
is zero, index 1 is one, and the prime-field case reduces to plain residues.
``GfField`` methods and its cached tables operate on these indices.

The reducing modulus is the smallest monic irreducible of degree k, with
candidates compared coefficient-wise from the constant term up, found by
exhaustive divisor search.  Everything is deterministic; no probabilistic
tests.  :func:`prime_power` trial-divides up to sqrt(n), so a caller bounds n
first: :func:`factor_order` is the one rule for a usable field order q, and
refuses a q above the cap squared before it factors it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import GaloisError, check_int
from .hypergraph import check_listing

FIELD_ORDER_CAP = 2**16


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def prime_power(n: int) -> tuple[int, int] | None:
    """Decompose n as (p, k) with p prime and n == p**k, or None.

    Trial division runs up to sqrt(n), so callers bound n first.
    """
    check_int(n, "n", GaloisError)
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

    ``modulus`` stores coefficients constant term first, length k+1.  Built
    directly, not through :func:`make_field`, a field is still refused with
    :class:`GaloisError` unless p is prime, p^k is within the order cap and
    the modulus is monic of degree k over GF(p), irreducible when k >= 2 (for
    k = 1 every monic linear modulus, x included, gives the residues mod p).
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        p, k, modulus = self.p, self.k, self.modulus
        _check_order(p, k)
        if not (type(modulus) is tuple and len(modulus) == k + 1
                and set(map(type, modulus)) <= {int}
                and all(0 <= c < p for c in modulus) and modulus[-1] == 1):
            raise GaloisError(f"modulus must be a tuple of {k + 1} ints in [0, {p}) "
                              f"ending in 1, got {modulus!r}")
        if k >= 2 and not _is_irreducible(modulus, p):
            raise GaloisError(f"modulus {modulus} is reducible over GF({p})")

    @property
    def order(self) -> int:
        return self.p**self.k

    def coeffs(self, index: int) -> tuple[int, ...]:
        """Coefficient vector (c0, ..., c_{k-1}), constant term first."""
        self._check(index)
        return tuple(index // self.p**i % self.p for i in range(self.k))

    def index(self, coeffs: tuple[int, ...] | list[int]) -> int:
        """Index of the element with ``int`` coefficients (c0, ..., c_{k-1}), each taken mod p."""
        if len(coeffs) != self.k:
            raise GaloisError(f"need {self.k} coefficients, got {len(coeffs)}")
        for c in coeffs:
            check_int(c, "coefficient", GaloisError)
        return self._index(coeffs)

    def _index(self, coeffs) -> int:
        value = 0
        for c in reversed(coeffs):
            value = value * self.p + c % self.p
        return value

    def add(self, a: int, b: int) -> int:
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self._index([(x + y) % self.p for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        return self._index([-c % self.p for c in self.coeffs(a)])

    def mul(self, a: int, b: int) -> int:
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        rem = _poly_mod(prod, self.modulus, self.p)
        rem += [0] * (self.k - len(rem))
        return self._index(rem[: self.k])

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        check_int(e, "exponent", GaloisError)
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
        """The q^2 products, refused before the first above ``hypergraph.MAX_SETS`` entries."""
        q = self.order
        check_listing(q * q, f"a multiplication table of GF({q}), {q * q} entries,", GaloisError)
        return [[self.mul(a, b) for b in range(q)] for a in range(q)]

    @cached_property
    def add_table(self) -> list[list[int]]:
        """The q^2 sums, refused before the first above ``hypergraph.MAX_SETS`` entries."""
        q = self.order
        check_listing(q * q, f"an addition table of GF({q}), {q * q} entries,", GaloisError)
        return [[self.add(a, b) for b in range(q)] for a in range(q)]

    @cached_property
    def neg_table(self) -> list[int]:
        return [self.neg(a) for a in range(self.order)]

    @cached_property
    def inv_table(self) -> list[int | None]:
        return [None] + [self.inv(a) for a in range(1, self.order)]

    def _check(self, a: int) -> None:
        check_int(a, "element index", GaloisError, 0, self.order)


def _check_order(p: int, k: int) -> None:
    """Refuse a p that is not a prime ``int``, a k below 1 and an order p^k above the cap.

    A p above the cap, or a k of 17 or more, is refused before p is tested or
    p^k computed, so neither a huge p nor a huge k costs any time.
    """
    check_int(p, "p", GaloisError)
    check_int(k, "extension degree", GaloisError, 1)
    # p >= 2, so p^k >= 2^k, which exceeds the cap 2^16 from k = 17 on
    if p > 1 and (p > FIELD_ORDER_CAP or k > 16 or p**k > FIELD_ORDER_CAP):
        raise GaloisError(f"field order {p}^{k} exceeds cap {FIELD_ORDER_CAP}")
    if not is_prime(p):
        raise GaloisError(f"{p} is not prime")


def make_field(p: int, k: int) -> GfField:
    """Build GF(p^k) with the canonical smallest modulus.  Deterministic."""
    _check_order(p, k)  # before the search, which a huge k would never end
    return GfField(p, k, _smallest_irreducible(p, k))


def factor_order(q: int) -> tuple[int, int]:
    """The (p, k) of a usable field order q = p^k; anything else is a GaloisError.

    An order above the cap squared is refused as ``field order Q exceeds cap
    65536`` before anything is factored, so the trial division takes at most
    2^16 steps; then ``q=Q is not a prime power`` and ``field order P^K
    exceeds cap 65536``.
    """
    check_int(q, "q", GaloisError)
    if q > FIELD_ORDER_CAP**2:
        raise GaloisError(f"field order {q} exceeds cap {FIELD_ORDER_CAP}")
    if (pk := prime_power(q)) is None:
        raise GaloisError(f"q={q} is not a prime power")
    _check_order(*pk)
    return pk


def field_of_order(q: int) -> GfField:
    """GF(q), or the GaloisError of :func:`factor_order`: ``field order Q
    exceeds cap 65536``, ``q=Q is not a prime power`` or ``field order P^K
    exceeds cap 65536``."""
    return make_field(*factor_order(q))
