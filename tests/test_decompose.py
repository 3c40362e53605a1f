"""Splitting decomposition: frozen answers, uniqueness, candidate pruning."""

import importlib
import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from redix.bass import ass_by_colon_scan, reducibility_index_by_bass
from redix.decompose import (
    component_ideal,
    decompose,
    irredundant,
    render_component,
    split_decompose,
)
from redix.errors import InvalidCandidatesError, UnitIdealError
from redix.monomial import MonomialIdeal, RingContext, minimal_exponents
from redix.selftest import run_selftest
from redix.textio import parse_ideal_text

# the package exports the function `decompose`, which shadows the module
decompose_module = importlib.import_module("redix.decompose")
R2 = RingContext.default(2)


def ideal(*exps):
    return MonomialIdeal.from_gens(R2, [R2.monomial(*e) for e in exps])


def bounds(dec):
    return sorted(dec.components)


def test_frozen_two_component_example():
    I = ideal((2, 0), (1, 1), (0, 3))
    dec = decompose(I)
    assert dec.count == 2
    assert bounds(dec) == [(1, 3), (2, 1)]  # (x, y^3) and (x^2, y)
    assert dec.components == ((2, 1), (1, 3))  # sorted descending
    assert [render_component(R2, c) for c in dec.components] == ["(x^2, y)", "(x, y^3)"]


def test_frozen_embedded_prime_example():
    # (x^2, x*y) = (x) meet (x^2, y); one minimal and one embedded prime
    I = ideal((2, 0), (1, 1))
    dec = decompose(I)
    assert dec.count == 2
    assert bounds(dec) == [(1, 0), (2, 1)]


def test_single_generator_power():
    I = ideal((3, 0))
    assert decompose(I).count == 1


def test_zero_ideal_is_irreducible():
    dec = decompose(MonomialIdeal.zero(R2))
    assert dec.count == 1
    assert bounds(dec) == [(0, 0)]
    assert render_component(R2, (0, 0)) == "0"


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


def test_irredundant_prunes_and_validates():
    I = ideal((2, 0), (1, 1))
    keep_both = [(1, 0), (2, 1)]  # (x) and (x^2, y)
    assert irredundant(keep_both, I).components == ((2, 1), (1, 0))

    # (x, y^2) contains the ideal, so it prunes away
    padded = keep_both + [(1, 2)]
    assert irredundant(padded, I).components == ((2, 1), (1, 0))

    with pytest.raises(InvalidCandidatesError):
        irredundant([(1, 0)], I)


@pytest.mark.parametrize(
    "bad, message",
    [((1, 0, 2), "bounds length does not match ring"), ((2, -1), "negative bound")],
    ids=["length", "negative"],
)
def test_irredundant_refuses_a_tuple_that_is_not_a_component(bad, message):
    I = ideal((2, 0), (1, 1))
    with pytest.raises(ValueError, match=message):
        irredundant([(1, 0), (2, 1), bad], I)


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
    R = ideal.ring
    meet = component_ideal(R, dec.components[0])
    for comp in dec.components[1:]:
        meet = meet.intersect(component_ideal(R, comp))
    assert gen_exponents(meet) == gen_exponents(ideal)
    # irredundant: dropping any component changes the intersection
    for skip in range(dec.count if dec.count > 1 else 0):
        rest = [c for i, c in enumerate(dec.components) if i != skip]
        meet = component_ideal(R, rest[0])
        for comp in rest[1:]:
            meet = meet.intersect(component_ideal(R, comp))
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
    supports = set(dec.counts_by_support())
    assert supports == {s for s, _, _ in reducibility_index_by_bass(ideal).entries}
    assert supports == ass_by_colon_scan(ideal)
    for strategy, seed in (("last", None), ("random", 0), ("random", 1)):
        assert bounds(decompose(ideal, strategy=strategy, seed=seed)) == bounds(dec)


STRATEGIES = (("first", None), ("last", None), ("random", 0), ("random", 1))


def split_reference(ideal, strategy, seed):
    """Reference: the binary splitting recursion, pruned by an extremal probe.

    A generator x_i^a * w with w coprime to x_i splits the ideal as
    I + (m) = (I + (x_i^a)) /\\ (I + (w)); when every generator is a pure
    power the ideal is one component.  The strategy picks the variable i.
    A candidate is dropped when the largest monomial outside it escapes
    some other kept candidate, i.e. it contains their intersection.
    """
    if strategy == "first":
        pick = lambda supp: supp[0]
    elif strategy == "last":
        pick = lambda supp: supp[-1]
    else:
        pick = random.Random(seed or 0).choice
    n = ideal.ring.n
    memo = {}

    def go(gens):
        if gens not in memo:
            split_gen = next((g for g in gens if sum(1 for e in g if e) >= 2), None)
            if split_gen is None:
                bounds = [0] * n
                for g in gens:
                    for i, e in enumerate(g):
                        if e:
                            bounds[i] = e
                memo[gens] = (tuple(bounds),)
            else:
                i = pick([j for j, e in enumerate(split_gen) if e])
                pure = tuple(e if j == i else 0 for j, e in enumerate(split_gen))
                rest = split_gen[:i] + (0,) + split_gen[i + 1 :]
                left = go(minimal_exponents(gens + (pure,)))
                right = go(minimal_exponents(gens + (rest,)))
                memo[gens] = tuple(dict.fromkeys(left + right))
        return memo[gens]

    comps = list(go(tuple(g.exponents for g in ideal.gens)))
    k = 0
    while k < len(comps):
        others = comps[:k] + comps[k + 1 :]
        probe = [b - 1 if b else None for b in comps[k]]
        if any(
            not any(b and (e is None or e >= b) for b, e in zip(o, probe)) for o in others
        ):
            comps = others
        else:
            k += 1
    return set(comps)


@st.composite
def ideals_up_to_five_variables(draw):
    n = draw(st.integers(1, 5))
    R = RingContext.default(n)
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n).filter(any), max_size=6))
    return MonomialIdeal.from_gens(R, [R.monomial(*e) for e in gens])


def _ideal(*exps):
    return MonomialIdeal.of(RingContext.default(len(exps[0])), exps)


# each reaches one branch of split_decompose's lemma in canonical order.
# Adding y*z to (x) /\ (z), the candidate (x, z) contains the kept (z),
# whose z bound passes the filter.
KEPT_WITNESS = _ideal((1, 0, 1), (0, 1, 1))
# Adding y^2 to (x) /\ (y), the kept (y) has y bound 1 < 2: the filter skips it.
FILTER_SKIPS = _ideal((1, 1), (0, 2))
# Adding y*z to (x) /\ (z^2), the candidate (x, z) contains the same-i
# candidate (z).
SAME_I = _ideal((1, 0, 2), (0, 1, 1))


@given(ideals_up_to_five_variables())
@example(KEPT_WITNESS)
@example(FILTER_SKIPS)
@example(SAME_I)
@settings(max_examples=150, deadline=None)
def test_split_matches_recursive_reference(ideal):
    for strategy, seed in STRATEGIES:
        got = set(split_decompose(ideal, strategy, seed))
        assert got == split_reference(ideal, strategy, seed)


@given(ideals_up_to_five_variables())
@example(KEPT_WITNESS)
@example(FILTER_SKIPS)
@example(SAME_I)
@settings(max_examples=150, deadline=None)
def test_irredundant_keeps_every_split_candidate(ideal):
    for strategy, seed in STRATEGIES:
        raw = split_decompose(ideal, strategy, seed)
        assert sorted(raw) == bounds(irredundant(raw, ideal))


@st.composite
def irreducible_and_two_ideals(draw):
    n = draw(st.integers(1, 3))
    R = RingContext.default(n)
    q = component_ideal(R, draw(st.tuples(*[st.integers(0, 4)] * n)))

    def some_ideal():
        gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=4))
        return MonomialIdeal.from_gens(R, [R.monomial(*e) for e in gens])

    return q, some_ideal(), some_ideal()


@given(irreducible_and_two_ideals())
@settings(max_examples=300, deadline=None)
def test_irreducible_containing_an_intersection_contains_a_member(case):
    q, j1, j2 = case

    def inside(j):
        return all(q.contains(g) for g in j.gens)

    assert inside(j1.intersect(j2)) == (inside(j1) or inside(j2))


SEVEN_VARIABLES = (
    "ideal: a^3*b*c^9*d*f^2*g^2, a^9*b^2*e*f^7*g^4, a^3*b^3*c^5*d^3*e^4*f^9,"
    " a^4*b^9*c^6*d^8*e^4, a^5*b^6*d^2*e^7*f^6*g^8, a^2*c^6*d^6*e^8*f^2,"
    " a^2*b^5*f^7, a^8*b^2*c^4*e^4*f^8*g^8, a^5*e^7, a^4*b^3*c^4*d^3*e*f^9*g^6,"
    " c*d^9*e^7*f^8, a^2*c^2*d*e^3*f^6, a^4*c^5*f^2, b^8*c^3*d^6*f^3*g^4"
)


def test_seven_variable_row_has_88_components_under_every_strategy():
    I = parse_ideal_text(SEVEN_VARIABLES)
    outcomes = set()
    for strategy, seed in STRATEGIES:
        raw = split_decompose(I, strategy, seed)
        assert len(raw) == 88
        outcomes.add(frozenset(decompose(I, strategy, seed).components))
    assert len(outcomes) == 1 and len(next(iter(outcomes))) == 88


EIGHT_VARIABLES = (
    "ideal: e^2*f*g^5*h^2, b^5*c^3*d^3*g^6*h^2, a^7*b^4*c^5*e^4*g*h^7, a^3*b^9*d^4*h^9,"
    " b^6*d^5*e^4*g^2*h^5, b^5*c^9*e^4*g^3, d^4*e^4*f^7*g^8*h^7, a^8*b^7*d^4*g^3*h^4,"
    " a^2*d^9*e^9*f*g^3*h^9, a^6*d^6*e^4, b^9*d^7*e^3*g^7*h^9, a^2*c^5*d^2*e^5*f*h,"
    " a^2*d^7*e^8*f^4*g^2*h^7, b^5*c^8*d^4*f, b^7*c^2*d^6*g^4, d^6*e^9*f^4*g^2"
)


def test_eight_variable_row_has_243_components_under_every_strategy():
    I = parse_ideal_text(EIGHT_VARIABLES)
    outcomes = set()
    for strategy, seed in STRATEGIES:
        raw = split_decompose(I, strategy, seed)
        assert len(raw) == 243
        outcomes.add(frozenset(decompose(I, strategy, seed).components))
    assert len(outcomes) == 1 and len(next(iter(outcomes))) == 243


def test_socle_agreement_catches_a_split_with_a_redundant_component(monkeypatch):
    # decompose no longer re-prunes the split's output, so a redundant
    # component would raise the count; the socle cross-check must see it
    split = decompose_module.split_decompose

    def padded(ideal, strategy="first", seed=None):
        comps = split(ideal, strategy, seed)
        # the maximal ideal contains every component; the zero ideal's
        # one component must stay alone, so it is left as it is
        maximal = (1,) * ideal.ring.n
        return comps if maximal in comps or not any(comps[0]) else comps + (maximal,)

    monkeypatch.setattr(decompose_module, "split_decompose", padded)
    (result,) = run_selftest(scope="index-socle-agreement", seed=0).results
    assert result.failure_count > 0


def test_a_split_that_drops_a_component_is_refused(monkeypatch):
    split = decompose_module.split_decompose

    def dropping(ideal, strategy="first", seed=None):
        return tuple(c for c in split(ideal, strategy, seed) if c != (2, 1))

    monkeypatch.setattr(decompose_module, "split_decompose", dropping)
    with pytest.raises(InvalidCandidatesError) as info:
        decompose(ideal((2, 0), (1, 1)))
    assert str(info.value) == "candidates intersect to (x), not (x^2, x*y)"


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy 'middle'"):
        split_decompose(ideal((1, 1)), strategy="middle")
