"""Monomial arithmetic and ideal lattice operations."""

import itertools

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from redix.basechange import extend_polynomial
from redix.bass import ass_by_colon_scan, bass0, localized_ideal, reducibility_index_by_bass
from redix.decompose import component_ideal, decompose, irredundant, split_decompose
from redix.errors import SizeCapError
from redix.monomial import Monomial, MonomialIdeal, RingContext, minimal_exponents
from redix.staircase import Staircase
from redix.textio import parse_ideal_text, render_ideal_text


def ring(n):
    return RingContext.default(n)


def contains(ideal, m):
    """Reference membership: some generator divides the monomial m."""
    return any(all(x <= y for x, y in zip(g, m.exponents)) for g in ideal.exponents)


@st.composite
def ideals(draw, max_vars=3, max_exp=4, max_gens=5):
    n = draw(st.integers(1, max_vars))
    R = ring(n)
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(0, max_exp)] * n).filter(any),
            min_size=0,
            max_size=max_gens,
        )
    )
    return MonomialIdeal.from_gens(R, [Monomial(e, R) for e in gens])


@st.composite
def ideal_with_monomial(draw):
    ideal = draw(ideals())
    n = ideal.ring.n
    exps = draw(st.tuples(*[st.integers(0, 6)] * n))
    return ideal, Monomial(exps, ideal.ring)


def test_render_names():
    R = ring(3)
    assert R.monomial(1, 0, 2).render() == "x*z^2"
    assert R.monomial(0, 0, 0).render() == "1"


def test_mixed_rings_rejected():
    R2, R3 = ring(2), ring(3)
    with pytest.raises(ValueError):
        MonomialIdeal.from_gens(R2, [R3.monomial(1, 0, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal.of(R2, [(1, 0, 0)])


def test_zero_and_unit():
    R = ring(2)
    zero = MonomialIdeal.of(R, ())
    unit = MonomialIdeal.unit(R)
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and not unit.is_zero
    assert zero.exponents == () and unit.exponents == ((0, 0),)


def _colon(g, u):
    """g / gcd(g, u), the generator image under the colon by u."""
    return tuple(max(x - y, 0) for x, y in zip(g, u))


@st.composite
def exponent_lists(draw, max_vars=4, max_exp=3, max_gens=5):
    """A ring, an exponent list over it (empty and all-zero ones included) and a vector."""
    n = draw(st.integers(1, max_vars))
    vector = st.tuples(*[st.integers(0, max_exp)] * n)
    return ring(n), draw(st.lists(vector, max_size=max_gens)), draw(vector)


def _minimal_by_all_pairs(exps):
    """Reference: each distinct vector divisible by no other one, sorted descending."""
    distinct = set(exps)
    return tuple(
        sorted(
            (
                e
                for e in distinct
                if not any(k != e and all(a <= b for a, b in zip(k, e)) for k in distinct)
            ),
            reverse=True,
        )
    )


@st.composite
def vector_lists(draw):
    """Exponent vectors in 0 to 5 variables, repeats and the zero vector included."""
    n = draw(st.integers(0, 5))
    return draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12))


@given(vector_lists())
@settings(max_examples=300)
@example([()])  # the zero-variable ring's unit ideal
@example([(0, 0), (1, 0), (0, 2)])  # the zero vector divides every other one
@example([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (2, 1, 0)])
def test_minimal_exponents_matches_all_pairs_reference(exps):
    assert minimal_exponents(exps) == _minimal_by_all_pairs(exps)


@given(exponent_lists())
@settings(max_examples=200)
def test_exponent_tuples_are_the_ideal(case):
    R, a, u = case
    ideal = MonomialIdeal.of(R, a)
    assert ideal == MonomialIdeal.from_gens(R, [Monomial(e, R) for e in a])
    assert tuple(g.exponents for g in ideal.gens) == ideal.exponents
    assert parse_ideal_text(render_ideal_text(ideal)) == ideal
    quotients = [Monomial(_colon(g, u), R) for g in a]
    assert ideal.colon(Monomial(u, R)) == MonomialIdeal.from_gens(R, quotients)


def test_tuple_routes_build_no_monomial(monkeypatch):
    R = ring(3)
    ideal = MonomialIdeal.of(R, [(2, 0, 0), (1, 1, 0), (0, 3, 1), (0, 0, 2)])
    box = MonomialIdeal.of(R, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
    staircase = Staircase.from_ideal(box)
    built, rings = [], []
    post_init = Monomial.__post_init__
    monkeypatch.setattr(Monomial, "__post_init__", lambda m: built.append(m) or post_init(m))
    ring_post_init = RingContext.__post_init__
    monkeypatch.setattr(
        RingContext, "__post_init__", lambda r: rings.append(r) or ring_post_init(r)
    )
    # the socle scan, the colon scan and splitting build no ring and no monomial
    assert bass0(ideal, (0, 2)) == (1, ((0, 0),))  # the prime (x, z), witness 1
    reducibility_index_by_bass(ideal)
    ass_by_colon_scan(ideal)
    decompose(ideal)
    assert (built, rings) == ([], [])
    comps = split_decompose(ideal)
    irredundant(comps, ideal)
    localized_ideal(ideal, {0, 2})
    component_ideal(R, comps[0])
    component_ideal(R, (1, 1, 0))  # the prime (x, y)
    extend_polynomial(ideal, 2)
    staircase.ideal()
    assert built == []
    R.monomial(0, 0, 0)  # the counters do see a construction
    R.subring((0,))
    assert len(built) == 1 and len(rings) == 3  # localized, extended, subring


@given(ideals())
def test_minimalize_idempotent_antichain(ideal):
    again = MonomialIdeal.from_gens(ideal.ring, ideal.gens)
    assert again.gens == ideal.gens  # from_gens already minimalizes
    for a in ideal.gens:
        for b in ideal.gens:
            if a is not b:
                assert not all(x <= y for x, y in zip(a.exponents, b.exponents))


@given(ideal_with_monomial())
def test_membership_is_divisibility(pair):
    # m lies in I exactly when (I : m) is the unit ideal
    ideal, m = pair
    assert ideal.colon(m).is_unit == contains(ideal, m)


@given(ideal_with_monomial())
@settings(max_examples=200)
def test_colon_adjunction(pair):
    # m is in (I : u) exactly when m*u is in I
    ideal, u = pair
    quotient = ideal.colon(u)
    R = ideal.ring
    for e in _probe_exponents(R.n):
        product = Monomial(tuple(a + b for a, b in zip(e, u.exponents)), R)
        assert contains(quotient, Monomial(e, R)) == contains(ideal, product)


def _probe_exponents(n):
    return itertools.product(range(3), repeat=n)


def test_finite_colength_detection():
    R = ring(2)
    box = MonomialIdeal.from_gens(R, [R.monomial(3, 0), R.monomial(0, 2)])
    assert box.is_finite_colength()
    assert len(box.standard_monomials()) == 6
    open_ended = MonomialIdeal.from_gens(R, [R.monomial(3, 0)])
    assert not open_ended.is_finite_colength()


@given(ideals(max_vars=2, max_exp=3))
def test_standard_monomials_are_the_complement(ideal):
    if not ideal.is_finite_colength():
        return
    standard = ideal.standard_monomials()
    R = ideal.ring
    for e in standard:
        assert not contains(ideal, Monomial(e, R))
    # divisor closed
    for e in standard:
        for i in range(R.n):
            if e[i]:
                down = list(e)
                down[i] -= 1
                assert tuple(down) in standard


@st.composite
def finite_colength_ideals(draw, max_vars=4, max_exp=5, max_gens=4):
    n = draw(st.integers(1, max_vars))
    R = ring(n)
    pure = [tuple(draw(st.integers(1, max_exp)) if j == i else 0 for j in range(n)) for i in range(n)]
    mixed = draw(st.lists(st.tuples(*[st.integers(0, max_exp)] * n).filter(any), max_size=max_gens))
    return MonomialIdeal.from_gens(R, [Monomial(e, R) for e in pure + mixed])


def _box_scan_standard(ideal):
    """Reference: every point of the pure-power box that lies outside the ideal."""
    R = ideal.ring
    bounds = [min(g.exponents[i] for g in ideal.gens if g.support() == {i}) for i in range(R.n)]
    box = itertools.product(*(range(b) for b in bounds))
    return frozenset(u for u in box if not contains(ideal, Monomial(u, R)))


@given(finite_colength_ideals())
@settings(max_examples=300)
def test_standard_monomials_match_box_scan(ideal):
    assert ideal.standard_monomials() == _box_scan_standard(ideal)


def test_standard_monomials_without_variables():
    R = RingContext(())
    assert MonomialIdeal.of(R, ()).standard_monomials() == frozenset({()})
    assert MonomialIdeal.unit(R).standard_monomials() == frozenset()


def test_standard_box_refused_before_scanning():
    # 10^18 box points: a scan would not return
    R = ring(3)
    huge = MonomialIdeal.from_gens(R, [R.monomial(10**6, 0, 0), R.monomial(0, 10**6, 0), R.monomial(0, 0, 10**6)])
    with pytest.raises(SizeCapError) as info:
        huge.standard_monomials()
    assert str(info.value) == f"staircase box of {10**18} points exceeds cap 100000"
