"""Finite field arithmetic, factorization, and extension fibers."""

import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from redix import gfpoly
from redix.errors import SizeCapError
from redix.gfpoly import (
    MAX_LATTICE_SIZE,
    MAX_TRIAL_DIVISORS,
    ExtField,
    Factorization,
    PrimeField,
    UniPoly,
    _meet_irreducible_submodules,
    _submodules,
    embed_poly,
    factor,
    field_extension_report,
    hypersurface_index,
    hypersurface_index_bruteforce,
    irreducible_modulus,
    is_irreducible,
    monic_polys,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def poly(field, *coeffs):
    # low degree first
    return UniPoly.make(field, list(coeffs))


def test_prime_field_rejects_composites():
    with pytest.raises(SizeCapError):
        PrimeField(6)
    with pytest.raises(SizeCapError):
        PrimeField(17)  # outside the supported range


def test_ext_field_tables():
    gf4 = ExtField(F2, irreducible_modulus(2, 2))
    assert gf4.size == 4
    # generator satisfies its modulus: t^2 = t + 1 for t^2+t+1
    t = (0, 1)
    assert gf4.mul(t, t) == gf4.add(t, gf4.one)
    for a in gf4.elements():
        if a != gf4.zero:
            assert gf4.mul(a, gf4.inv(a)) == gf4.one


def _product_by_convolution(field, a, b):
    """Reference: schoolbook product of coefficient tuples, reduced by the modulus."""
    p, k = field.p, field.k
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] = (conv[i + j] + x * y) % p
    for d in range(2 * k - 2, k - 1, -1):
        c, conv[d] = conv[d], 0
        for j in range(k):
            conv[d - k + j] = (conv[d - k + j] - c * field.modulus[j]) % p
    return tuple(conv[:k])


def test_ext_field_log_tables_match_convolution():
    for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
        field = ExtField(PrimeField(p), irreducible_modulus(p, k))
        elems = list(field.elements())
        for a, b in itertools.product(elems, repeat=2):
            assert field.mul(a, b) == _product_by_convolution(field, a, b), (p, k, a, b)
        for a in elems[1:]:
            assert _product_by_convolution(field, a, field.inv(a)) == field.one, (p, k, a)


def test_field_axioms_exhaustive_gf8_gf9():
    for field in (ExtField(F2, irreducible_modulus(2, 3)), ExtField(F3, irreducible_modulus(3, 2))):
        elems = list(field.elements())
        for a, b in itertools.product(elems, repeat=2):
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
        for a, b, c in itertools.islice(itertools.product(elems, repeat=3), 200):
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_irreducible_counts_match_theory():
    # numbers of monic irreducibles: necklace counts
    expected = {(2, 1): 2, (2, 2): 1, (2, 3): 2, (2, 4): 3, (3, 1): 3, (3, 2): 3}
    for (p, d), want in expected.items():
        field = PrimeField(p)
        got = sum(1 for f in monic_polys(field, d) if is_irreducible(f))
        assert got == want, (p, d, got)


def test_factor_frozen_examples():
    f = poly(F2, 1, 1, 1)  # x^2+x+1 irreducible
    assert is_irreducible(f)
    assert factor(f).distinct_count == 1

    g = poly(F2, 1, 0, 1)  # x^2+1 = (x+1)^2
    fac = factor(g)
    assert fac.distinct_count == 1
    assert fac.factors[0][1] == 2

    h = poly(F5, 1, 0, 1)  # x^2+1 splits mod 5
    assert factor(h).distinct_count == 2


def test_factor_canonical_order_and_reconstruction():
    f = poly(F3, 0, 1, 0, 1)  # x*(x^2+1), and x^2+1 = (x+1)(x+2) mod 3... check via reconstruct
    fac = factor(f)
    assert fac.reconstruct() == f
    keys = [g.sort_key() for g, _ in fac.factors]
    assert keys == sorted(keys)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_factor_reconstructs_random_f5(low_coeffs):
    f = UniPoly.make(F5, low_coeffs + [1])
    fac = factor(f)
    assert fac.reconstruct() == f
    assert all(is_irreducible(g) for g, _ in fac.factors)


def test_hypersurface_index_is_distinct_factor_count():
    f = poly(F2, 0, 1, 1)  # x^2+x = x(x+1)
    assert hypersurface_index(f) == 2
    assert hypersurface_index_bruteforce(f) == 2
    g = poly(F2, 1, 0, 1)  # (x+1)^2
    assert hypersurface_index(g) == 1
    assert hypersurface_index_bruteforce(g) == 1


def _lattice_sizes_by_subsets(f):
    """Reference: irredundant sizes, by re-meeting every family without each member."""
    irreducible, full = _meet_irreducible_submodules(f)
    zero_mod = 1
    sizes = set()
    for r in range(1, len(irreducible) + 1):
        for family in itertools.combinations(irreducible, r):
            inter = full
            for N in family:
                inter &= N
            if inter != zero_mod:
                continue
            needed = True
            for skip in range(r):
                rest = full
                for j, N in enumerate(family):
                    if j != skip:
                        rest &= N
                if rest == zero_mod:
                    needed = False
                    break
            if needed:
                sizes.add(r)
    return sizes


@st.composite
def _non_monic_small_quotients(draw):
    """Non-monic f over GF(p), p >= 5, with p^deg(f) <= 512."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    d = draw(st.integers(1, 3 if p <= 7 else 2))
    low = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    lead = draw(st.integers(2, p - 1))
    return UniPoly(PrimeField(p), tuple(low) + (lead,))


@settings(max_examples=30, deadline=None)
@given(_non_monic_small_quotients())
def test_lattice_oracle_on_non_monic_polynomials(f):
    by_lattice = hypersurface_index_bruteforce(f)
    assert by_lattice == hypersurface_index(f)
    assert {by_lattice} == _lattice_sizes_by_subsets(f)


def test_lattice_oracle_matches_subset_reference():
    for field, dmax in ((F2, 6), (F3, 4)):
        for d in range(1, dmax + 1):
            for f in monic_polys(field, d):
                assert {hypersurface_index_bruteforce(f)} == _lattice_sizes_by_subsets(f), f.render()


def _submodules_point_by_point(f):
    """Reference: each element's cyclic submodule enumerated point by point."""
    p = f.field.p
    inv_lead = f.field.inv(f.coeffs[-1])
    tail = [(c * inv_lead) % p for c in f.coeffs[:-1]]
    elems = list(itertools.product(range(p), repeat=f.degree))
    index = {e: i for i, e in enumerate(elems)}
    xmap = [
        index[tuple((s - v[-1] * m) % p for s, m in zip((0,) + v[:-1], tail))]
        for v in elems
    ]

    def span(v):
        members, mask, cur = [0], 1, v
        while not mask >> cur & 1:
            grown = []
            for k in range(1, p):
                kg = [(k * b) % p for b in elems[cur]]
                for s in members:
                    i = index[tuple((a + c) % p for a, c in zip(elems[s], kg))]
                    grown.append(i)
                    mask |= 1 << i
            members += grown
            cur = xmap[cur]
        return mask

    return {span(v) for v in range(len(elems))}


def _meet_irreducible_reference(submodules):
    full = max(submodules)
    irreducible = set()
    for N in submodules:
        above = full
        for A in submodules:
            if A != N and not N & ~A:
                above &= A
        if above != N:
            irreducible.add(N)
    return irreducible


def _assert_submodules_match_points(f):
    expected = _submodules_point_by_point(f)
    submodules, full = _submodules(f)
    assert len(submodules) == len(expected) and set(submodules) == expected, f.render()
    assert full == (1 << f.field.p**f.degree) - 1
    irreducible, _ = _meet_irreducible_submodules(f)
    assert set(irreducible) == _meet_irreducible_reference(expected), f.render()


def test_submodule_bases_match_point_enumeration():
    for field, dmax in ((F2, 6), (F3, 4)):
        for d in range(1, dmax + 1):
            for f in monic_polys(field, d):
                _assert_submodules_match_points(f)


@settings(max_examples=20, deadline=None)
@given(_non_monic_small_quotients())
def test_submodule_bases_match_point_enumeration_non_monic(f):
    _assert_submodules_match_points(f)


def test_lattice_oracle_does_no_polynomial_arithmetic(monkeypatch):
    f = poly(PrimeField(7), 6, 0, 3, 4)  # 4x^3 + 3x^2 + 6, not monic
    expected = hypersurface_index(f)

    def forbidden(*args):
        raise AssertionError("the lattice oracle shares polynomial arithmetic with factor")

    for name in ("divmod", "mod", "mul", "scale", "monic", "pow"):
        monkeypatch.setattr(UniPoly, name, forbidden)
    assert hypersurface_index_bruteforce(f) == expected


def test_irreducible_modulus_refuses_large_fields_before_searching():
    with pytest.raises(SizeCapError, match=r"3\^19 exceeds cap"):
        irreducible_modulus(3, 19)


def test_field_extension_frozen_example():
    # x^2+x+1 stays squarefree but splits in GF(4): index 1 -> 2
    gf4 = ExtField(F2, irreducible_modulus(2, 2))
    rep = field_extension_report(poly(F2, 1, 1, 1), gf4)
    assert (rep.ir_before, rep.ir_after_direct) == (1, 2)
    assert rep.t_bound == 2
    assert rep.passed
    assert len(rep.fibers) == 1 and rep.fibers[0].fiber_index == 2


def test_field_extension_inert_example():
    # x^2+x+1 stays irreducible in GF(8): odd-degree extension
    gf8 = ExtField(F2, irreducible_modulus(2, 3))
    rep = field_extension_report(poly(F2, 1, 1, 1), gf8)
    assert (rep.ir_before, rep.ir_after_direct) == (1, 1)
    assert rep.passed


def test_extension_bounds_sweep():
    gf4 = ExtField(F2, irreducible_modulus(2, 2))
    for f in monic_polys(F2, 4):
        rep = field_extension_report(f, gf4)
        assert rep.ir_before <= rep.ir_after_direct <= rep.t_bound * rep.ir_before
        assert rep.passed


def _suite_inputs():
    """The 124 reports of the field-extension-fibers selftest suite."""
    for k in (2, 3):
        ext = ExtField(F2, irreducible_modulus(2, k))
        for d in range(1, 6):
            for f in monic_polys(F2, d):
                yield f, ext


def test_field_extension_factors_one_extension_polynomial_per_report(monkeypatch):
    real_factor = gfpoly.factor
    upstairs = []

    def counting_factor(f):
        if isinstance(f.field, ExtField):
            upstairs.append(f)
        return real_factor(f)

    monkeypatch.setattr(gfpoly, "factor", counting_factor)
    reports = 0
    for f, ext in _suite_inputs():
        before = len(upstairs)
        rep = field_extension_report(f, ext)
        assert rep.passed, f.render()
        assert upstairs[before:] == [embed_poly(f, ext)], f.render()
        reports += 1
    assert reports == len(upstairs) == 124


def _raise_a_multiplicity(field, factors):
    (g, m), *rest = factors
    return ((g, m + 1), *rest)


def _add_an_unowned_factor(field, factors):
    return ((UniPoly(field, (field.zero, field.one)), 1), *factors)  # x, coprime to f


def _merge_two_factors(field, factors):
    (g, m), (h, n), *rest = factors
    return ((g, m), (g.mul(h), n), *rest)  # distinct, both divide, but one is reducible


@pytest.mark.parametrize(
    "tamper", [_raise_a_multiplicity, _add_an_unowned_factor, _merge_two_factors]
)
def test_field_extension_multiset_check_can_fail(monkeypatch, tamper):
    real_factor = gfpoly.factor

    def tampered_factor(f):
        fact = real_factor(f)
        if isinstance(f.field, ExtField):
            fact = Factorization(fact.field, fact.unit, tamper(f.field, fact.factors))
        return fact

    monkeypatch.setattr(gfpoly, "factor", tampered_factor)
    gf4 = ExtField(F2, irreducible_modulus(2, 2))
    rep = field_extension_report(poly(F2, 1, 1, 1), gf4)  # (x + t)(x + t + 1) over GF(4)
    assert rep.checks[3] == ("factor multiset matches across the two routes", False)
    if tamper is not _add_an_unowned_factor:  # the count still agrees, so only check 4 sees it
        assert [ok for _, ok in rep.checks[:3]] == [True, True, True]
    assert not rep.passed


def test_trial_division_refused_before_dividing(monkeypatch):
    gf2197 = ExtField(PrimeField(13), irreducible_modulus(13, 3))
    f = embed_poly(poly(PrimeField(13), 1, 0, 0, 1, 1), gf2197)  # needs 2197 + 2197^2 divisors

    def forbidden(*args):
        raise AssertionError("divided before refusing")

    monkeypatch.setattr(UniPoly, "divmod", forbidden)
    for test in (factor, is_irreducible):
        with pytest.raises(SizeCapError, match=f"over {MAX_TRIAL_DIVISORS} trial divisors"):
            test(f)


def test_lattice_oracle_matches_factor_count_at_degree_nine():
    # GF(2) degree 9 is the lattice oracle's largest quotient, 2^9 = 512 elements
    sample = list(monic_polys(F2, 9))[::8]
    assert len(sample) == 64
    for f in sample:
        assert hypersurface_index(f) == hypersurface_index_bruteforce(f), f.render()


def test_factor_accepts_the_lattice_cap_degree():
    for p in (2, 3, 5, 7, 11, 13):
        d = max(d for d in range(1, 10) if p**d <= MAX_LATTICE_SIZE)
        f = UniPoly.make(PrimeField(p), [1] * (d + 1))
        fac = factor(f)
        assert fac.reconstruct() == f and all(is_irreducible(g) for g, _ in fac.factors), (p, d)
