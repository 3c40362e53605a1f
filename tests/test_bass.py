"""Socle dimensions, associated primes, and the summed index."""

from hypothesis import given, settings
import hypothesis.strategies as st

from redix import (
    MonomialIdeal,
    RingContext,
    ass_by_colon_scan,
    associated_primes,
    associated_primes_by_socle,
    bass0,
    decompose,
    reducibility_index_by_bass,
)

R2 = RingContext.default(2)


def ideal(*exps):
    return MonomialIdeal.from_gens(R2, [R2.monomial(*e) for e in exps])


def test_socle_at_top_prime():
    I = ideal((2, 0), (1, 1), (0, 3))
    count, witnesses = bass0(I, (0, 1))
    assert count == 2
    assert sorted(w.render() for w in witnesses) == ["x", "y^2"]


def test_embedded_prime_split():
    I = ideal((2, 0), (1, 1))
    assert bass0(I, (0,))[0] == 1  # prime (x), witness survives inverting y
    assert bass0(I, (0, 1))[0] == 1  # socle witness x at the top
    assert bass0(I, (1,))[0] == 0  # (y) is not associated
    report = reducibility_index_by_bass(I)
    assert report.index == 2


def test_zero_ideal_prime():
    I = MonomialIdeal.zero(R2)
    primes = associated_primes(I)
    assert {p.support for p in primes} == {frozenset()}
    assert reducibility_index_by_bass(I).index == 1


def test_ass_routes_agree_frozen():
    I = ideal((2, 0), (1, 1), (0, 3))
    assert associated_primes(I) == ass_by_colon_scan(I)
    assert associated_primes(I) == associated_primes_by_socle(I)
    assert {p.support for p in associated_primes(I)} == {frozenset({0, 1})}


@st.composite
def random_ideals(draw):
    n = draw(st.integers(1, 3))
    R = RingContext.default(n)
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(0, 4)] * n).filter(any),
            min_size=0,
            max_size=5,
        )
    )
    return MonomialIdeal.from_gens(R, [R.monomial(*e) for e in gens])


@given(random_ideals())
@settings(max_examples=150, deadline=None)
def test_index_agreement(ideal):
    assert reducibility_index_by_bass(ideal).index == decompose(ideal).count


@given(random_ideals())
@settings(max_examples=100, deadline=None)
def test_witness_counts_match_entries(ideal):
    report = reducibility_index_by_bass(ideal)
    assert report.index == sum(count for _, count, _ in report.entries)
    for prime, count, witnesses in report.entries:
        assert count == len(witnesses)
        assert count > 0
