import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperec import hypergraph
from hyperec.galois import (
    GaloisError,
    GfField,
    factor_order,
    field_of_order,
    is_prime,
    make_field,
    prime_power,
)


_F343 = make_field(7, 3)


def test_is_prime():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(25) == (5, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_gf4_modulus_is_unique_irreducible():
    # the only monic quadratic over GF(2) without a root
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_prime_field_convention():
    f = make_field(3, 1)
    assert f.modulus == (0, 1)
    assert [f.coeffs(i) for i in range(3)] == [(0,), (1,), (2,)]


def test_order_25():
    assert make_field(5, 2).order == 25


def test_make_field_rejects():
    with pytest.raises(GaloisError):
        make_field(6, 1)
    with pytest.raises(GaloisError):
        make_field(2, 0)
    with pytest.raises(GaloisError):
        make_field(2, 17)  # 2^17 over the order cap
    with pytest.raises(GaloisError):
        field_of_order(12)


def test_gf3_inverse():
    assert make_field(3, 1).inv(2) == 2


def test_gf4_x_squared():
    f = make_field(2, 2)
    x = f.index((0, 1))
    x_plus_1 = f.index((1, 1))
    assert f.mul(x, x) == x_plus_1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 25])
def test_additive_inverse_everywhere(q):
    f = field_of_order(q)
    assert all(f.add(a, f.neg(a)) == 0 for a in range(q))


@given(st.integers(0, 342), st.integers(0, 342), st.integers(0, 342))
def test_field_axioms_sampled_large_field(a, b, c):
    f = _F343
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [4, 9, 25])
def test_field_axioms_exhaustive(q):
    f = field_of_order(q)
    r = range(q)
    for a, b in itertools.product(r, r):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(r, r, r):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [4, 9, 16, 25, 49])
def test_multiplicative_inverses_exhaustive(q):
    f = field_of_order(q)
    one = 1
    for a in range(1, q):
        assert f.mul(f.inv(a), a) == one
        assert f.pow(a, -1) == f.inv(a) and f.pow(a, -2) == f.inv(f.mul(a, a))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25])
def test_group_order(q):
    f = field_of_order(q)
    assert all(f.pow(a, q - 1) == 1 for a in range(1, q))


def test_zero_inverse_rejected():
    with pytest.raises(GaloisError):
        make_field(2, 2).inv(0)
    with pytest.raises(GaloisError, match="zero is not invertible"):
        make_field(2, 2).pow(0, -1)


def test_coeff_index_round_trip():
    f = make_field(5, 2)
    for i in range(25):
        assert f.index(f.coeffs(i)) == i
    for coeffs in ([1], [1, 2, 3]):
        with pytest.raises(GaloisError, match=f"need 2 coefficients, got {len(coeffs)}"):
            f.index(coeffs)


@pytest.mark.parametrize("call, message", [
    (lambda: make_field(3, 2).index([1.5, 0]), "coefficient must be int, got 1.5"),
    (lambda: make_field(3, 2).index([True, 1]), "coefficient must be int, got True"),
    (lambda: prime_power(4.0), "n must be int, got 4.0"),
    (lambda: is_prime(2.0), "n must be int, got 2.0"),
])
def test_direct_calls_refuse_what_is_not_an_int(call, message):
    """Called directly, not through make_field or field_of_order: a float or
    bool is refused, never read as an element index or a prime power."""
    with pytest.raises(GaloisError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("p, k, modulus, message", [
    (4, 1, (0, 1), "4 is not prime"),
    (2.0, 1, (0, 1), "p must be int, got 2.0"),
    (2, 0, (1,), "extension degree must be >= 1, got 0"),
    (2, 17, (1,) * 18, r"field order 2\^17 exceeds cap 65536"),
    (2, 2, [1, 1, 1], r"modulus must be a tuple of 3 ints in \[0, 2\) ending in 1, got \[1, 1, 1\]"),
    (2, 2, (1, 1), r"modulus must be a tuple of 3 ints in \[0, 2\) ending in 1, got \(1, 1\)"),
    (3, 2, (1, 3, 1), r"modulus must be a tuple of 3 ints in \[0, 3\) ending in 1, got \(1, 3, 1\)"),
    (2, 2, (1, True, 1), r"modulus must be a tuple .*, got \(1, True, 1\)"),
    (3, 2, (1, 0, 2), r"modulus must be a tuple .*, got \(1, 0, 2\)"),
    (2, 2, (0, 0, 1), r"modulus \(0, 0, 1\) is reducible over GF\(2\)"),
    (3, 2, (2, 0, 1), r"modulus \(2, 0, 1\) is reducible over GF\(3\)"),
    (10**18 + 3, 1, (0, 1), r"field order 1000000000000000003\^1 exceeds cap 65536"),
])
def test_field_built_directly_refuses_what_is_not_a_field(p, k, modulus, message,
                                                          bounded_factoring):
    """Built without make_field: GfField(4, 1, (0, 1)) would multiply in Z/4,
    where 2 * 2 = 0, and GfField(2, 2, (0, 0, 1)) in GF(2)[x]/(x^2), where
    x * x = 0; each is refused, as is every other malformed argument."""
    with pytest.raises(GaloisError, match=f"^{message}$"):
        GfField(p, k, modulus)


@pytest.mark.parametrize("p, k, message", [
    (10**18 + 3, 1, r"field order 1000000000000000003\^1 exceeds cap 65536"),
    (2, 10**8, r"field order 2\^100000000 exceeds cap 65536"),
    (4, 17, r"field order 4\^17 exceeds cap 65536"),
    (1, 17, "1 is not prime"),
])
def test_make_field_bounds_the_order_before_it_tests_p_or_computes_it(p, k, message,
                                                                    bounded_factoring):
    """A p above the cap or a k of 17 or more is refused at once: neither
    10^18 + 3 is trial-divided nor 2^(10^8) computed."""
    with pytest.raises(GaloisError, match=f"^{message}$"):
        make_field(p, k)


@pytest.mark.parametrize("q, message", [
    (10**18 + 3, "field order 1000000000000000003 exceeds cap 65536"),
    (2**32 + 1, "field order 4294967297 exceeds cap 65536"),
    (2**32, r"field order 2\^32 exceeds cap 65536"),
    (4294967291, r"field order 4294967291\^1 exceeds cap 65536"),  # the largest prime below 2^32
    (2**17, r"field order 2\^17 exceeds cap 65536"),
    (6, "q=6 is not a prime power"),
    (1, "q=1 is not a prime power"),
    (4.0, "q must be int, got 4.0"),
])
def test_an_order_above_the_cap_squared_is_refused_before_it_is_factored(q, message,
                                                                       bounded_factoring):
    """Up to 2^32 an order is factored in at most 2^16 trial divisions, and
    refused unless it is a prime power within the cap; above, it is refused
    unfactored."""
    for call in (factor_order, field_of_order):
        with pytest.raises(GaloisError, match=f"^{message}$"):
            call(q)


def test_factor_order_takes_every_field_order_within_the_cap():
    assert [factor_order(q) for q in (2, 9, 65536, 65521)] == [(2, 1), (3, 2), (2, 16), (65521, 1)]


def test_field_built_directly_takes_any_monic_linear_modulus():
    """For k = 1 the modulus only marks the degree: x = (0, 1), which the
    irreducibility test calls reducible, is make_field's own, and x + c
    gives the same residues."""
    assert GfField(5, 1, (0, 1)) == make_field(5, 1)
    assert GfField(5, 1, (3, 1)).mul_table == make_field(5, 1).mul_table
    assert GfField(2, 2, (1, 1, 1)) == make_field(2, 2)


@pytest.mark.parametrize("table, name", [("add_table", "an addition"),
                                         ("mul_table", "a multiplication")])
def test_tables_count_their_entries_before_the_first(monkeypatch, table, name):
    """GF(2^16)'s tables would hold 2^32 entries each, hours of work: refused
    at once.  GF(4)'s 16 entries are listed at a limit of 16, not of 15."""
    with pytest.raises(GaloisError, match=(f"^{name} table of GF\\(65536\\), 4294967296 entries, "
                                           "is above the limit of 4194304$")):
        getattr(make_field(2, 16), table)
    monkeypatch.setattr(hypergraph, "MAX_SETS", 16)
    assert len(getattr(make_field(2, 2), table)) == 4
    monkeypatch.setattr(hypergraph, "MAX_SETS", 15)
    with pytest.raises(GaloisError, match="^" + name + r" table of GF\(4\), 16 entries, is above"):
        getattr(make_field(2, 2), table)


def test_tables_match_methods():
    f = make_field(3, 2)
    q = f.order
    assert all(f.mul_table[a][b] == f.mul(a, b) for a in range(q) for b in range(q))
    assert all(f.add_table[a][b] == f.add(a, b) for a in range(q) for b in range(q))
    assert all(f.inv_table[a] == f.inv(a) for a in range(1, q))
    assert all(f.neg_table[a] == f.neg(a) for a in range(q))


def test_modulus_is_deterministic_and_irreducible():
    # frozen canonical moduli; changing the search order breaks golden files
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(5, 2).modulus == (1, 1, 1)
    assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)
    f = make_field(2, 4)
    # no element of GF(16) is a root of a degree-4 irreducible's linear factor:
    # verify directly that the modulus has no divisor among monic quadratics
    from hyperec.galois import _poly_mod

    for c0, c1 in itertools.product(range(2), repeat=2):
        assert _poly_mod(list(f.modulus), (c0, c1, 1), 2) != []
