"""Splitting decomposition: frozen answers, uniqueness, candidate pruning."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from redix import (
    IrreducibleComponent,
    MonomialIdeal,
    RingContext,
    ass_by_colon_scan,
    associated_primes_by_socle,
    decompose,
    irredundant,
    reducibility_index_by_bass,
    reducibility_index_by_decomposition,
    split_decompose,
)
from redix.errors import InvalidCandidatesError, UnitIdealError
from redix.monomial import minimal_exponents

R2 = RingContext.default(2)


def ideal(*exps):
    return MonomialIdeal.from_gens(R2, [R2.monomial(*e) for e in exps])


def bounds(dec):
    return sorted(c.bounds for c in dec.components)


def test_frozen_two_component_example():
    I = ideal((2, 0), (1, 1), (0, 3))
    dec = decompose(I)
    assert dec.count == 2
    assert bounds(dec) == [(1, 3), (2, 1)]  # (x, y^3) and (x^2, y)
    assert {c.render() for c in dec.components} == {"(x, y^3)", "(x^2, y)"}


def test_frozen_embedded_prime_example():
    # (x^2, x*y) = (x) meet (x^2, y); one minimal and one embedded prime
    I = ideal((2, 0), (1, 1))
    dec = decompose(I)
    assert dec.count == 2
    assert bounds(dec) == [(1, 0), (2, 1)]


def test_single_generator_power():
    I = ideal((3, 0))
    assert decompose(I).count == 1
    assert reducibility_index_by_decomposition(I) == 1


def test_zero_ideal_is_irreducible():
    dec = decompose(MonomialIdeal.zero(R2))
    assert dec.count == 1
    assert bounds(dec) == [(0, 0)]


def test_unit_ideal_rejected():
    with pytest.raises(UnitIdealError):
        decompose(MonomialIdeal.unit(R2))


def test_strategies_agree_on_frozen_examples():
    I = ideal((3, 0), (2, 2), (1, 3), (0, 4))
    reference = bounds(decompose(I, strategy="first"))
    assert bounds(decompose(I, strategy="last")) == reference
    for seed in range(5):
        assert bounds(decompose(I, strategy="random", seed=seed)) == reference


def gen_exponents(ideal):
    return sorted(g.exponents for g in ideal.gens)


def test_split_decompose_may_be_redundant_but_intersects_right():
    I = ideal((2, 0), (1, 1))
    raw = split_decompose(I, strategy="first")
    meet = raw[0].as_ideal()
    for comp in raw[1:]:
        meet = meet.intersect(comp.as_ideal())
    assert gen_exponents(meet) == gen_exponents(I)


def test_irredundant_prunes_and_validates():
    I = ideal((2, 0), (1, 1))
    keep_both = [
        IrreducibleComponent((1, 0), R2),  # (x)
        IrreducibleComponent((2, 1), R2),  # (x^2, y)
    ]
    kept = irredundant(keep_both, I).components
    assert sorted(c.bounds for c in kept) == [(1, 0), (2, 1)]

    # (x, y^2) contains the ideal, so it prunes away
    padded = keep_both + [IrreducibleComponent((1, 2), R2)]
    kept = irredundant(padded, I).components
    assert sorted(c.bounds for c in kept) == [(1, 0), (2, 1)]

    with pytest.raises(InvalidCandidatesError):
        irredundant([IrreducibleComponent((1, 0), R2)], I)


@st.composite
def random_ideals(draw):
    n = draw(st.integers(1, 3))
    R = RingContext.default(n)
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(0, 4)] * n).filter(any),
            min_size=1,
            max_size=5,
        )
    )
    return MonomialIdeal.from_gens(R, [R.monomial(*e) for e in gens])


@given(random_ideals())
@settings(max_examples=150, deadline=None)
def test_components_intersect_to_the_ideal(ideal):
    dec = decompose(ideal)
    meet = dec.components[0].as_ideal()
    for comp in dec.components[1:]:
        meet = meet.intersect(comp.as_ideal())
    assert gen_exponents(meet) == gen_exponents(ideal)
    # irredundant: dropping any component changes the intersection
    for skip in range(dec.count if dec.count > 1 else 0):
        rest = [c for i, c in enumerate(dec.components) if i != skip]
        meet = rest[0].as_ideal()
        for comp in rest[1:]:
            meet = meet.intersect(comp.as_ideal())
        assert gen_exponents(meet) != gen_exponents(ideal)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@st.composite
def exponent_lists(draw):
    n = draw(st.integers(1, 4))
    return draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=6))


@given(exponent_lists())
@settings(max_examples=200, deadline=None)
def test_minimal_exponents_is_the_minimal_antichain(exps):
    out = minimal_exponents(exps)
    assert set(out) <= set(exps)
    assert list(out) == sorted(set(out), reverse=True)
    for a in out:
        for b in out:
            assert a == b or not divides(a, b)
    for e in exps:
        assert any(divides(m, e) for m in out)


@st.composite
def proper_ideals(draw):
    exps = draw(exponent_lists().map(lambda es: [e for e in es if any(e)]).filter(bool))
    R = RingContext.default(len(exps[0]))
    return MonomialIdeal.from_gens(R, [R.monomial(*e) for e in exps])


@given(proper_ideals())
@settings(max_examples=100, deadline=None)
def test_routes_agree_on_random_ideals(ideal):
    dec = decompose(ideal)
    assert dec.count == reducibility_index_by_bass(ideal).index
    supports = {c.support() for c in dec.components}
    assert supports == {p.support for p in associated_primes_by_socle(ideal)}
    assert supports == {p.support for p in ass_by_colon_scan(ideal)}
    for strategy, seed in (("last", None), ("random", 0), ("random", 1)):
        assert bounds(decompose(ideal, strategy=strategy, seed=seed)) == bounds(dec)
