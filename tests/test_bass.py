"""Socle dimensions, associated primes, and the summed index."""

import itertools

from hypothesis import given, settings
import hypothesis.strategies as st

from redix.bass import ass_by_colon_scan, bass0, reducibility_index_by_bass
from redix.decompose import decompose
from redix.monomial import MonomialIdeal, RingContext, minimal_exponents

R2 = RingContext.default(2)


def ideal(*exps):
    return MonomialIdeal.from_gens(R2, [R2.monomial(*e) for e in exps])


def test_socle_at_top_prime():
    I = ideal((2, 0), (1, 1), (0, 3))
    count, witnesses = bass0(I, (0, 1))
    assert count == 2
    assert witnesses == ((0, 2), (1, 0))  # y^2 and x, in lex order


def test_embedded_prime_split():
    I = ideal((2, 0), (1, 1))
    assert bass0(I, (0,))[0] == 1  # prime (x), witness survives inverting y
    assert bass0(I, (0, 1))[0] == 1  # socle witness x at the top
    assert bass0(I, (1,))[0] == 0  # (y) is not associated
    report = reducibility_index_by_bass(I)
    assert report.index == 2


def test_zero_ideal_prime():
    I = MonomialIdeal.zero(R2)
    assert ass_by_colon_scan(I) == {frozenset()}
    assert decompose(I).components == ((0, 0),)
    assert bass0(I, ()) == (1, ((),))  # the witness 1 of the field
    assert reducibility_index_by_bass(I).index == 1


def test_ass_routes_agree_frozen():
    I = ideal((2, 0), (1, 1), (0, 3))
    by_socle = {support for support, _, _ in reducibility_index_by_bass(I).entries}
    by_colon = ass_by_colon_scan(I)
    by_splitting = set(decompose(I).counts_by_support())
    assert by_socle == by_colon == by_splitting == {frozenset({0, 1})}


@st.composite
def random_ideals(draw, max_vars=3):
    n = draw(st.integers(1, max_vars))
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


def bass0_box_reference(ideal, support):
    """Socle witnesses by scanning the whole box [0, d_i) of the localized ideal."""
    keep = sorted(support)
    gens = minimal_exponents(tuple(g.exponents[i] for i in keep) for g in ideal.gens)
    if len(gens) == 1 and not any(gens[0]):
        return ()
    n = len(keep)
    bounds = [max((g[i] for g in gens), default=0) for i in range(n)]
    witnesses = []
    for exps in itertools.product(*(range(d) for d in bounds)):
        if any(all(a <= b for a, b in zip(g, exps)) for g in gens):
            continue  # already inside
        ok = True
        for i in range(n):
            hit = False
            for g in gens:
                if g[i] <= exps[i] + 1 and all(
                    g[j] <= exps[j] for j in range(n) if j != i
                ):
                    hit = True
                    break
            if not hit:
                ok = False
                break
        if ok:
            witnesses.append(exps)
    return tuple(sorted(witnesses))


def colon_scan_box_reference(ideal):
    """Supports of the prime colons (I : u) over the whole box u <= d."""
    n = ideal.ring.n
    gens = [g.exponents for g in ideal.gens]
    unit_vectors = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
    prime_forms = {}
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            prime_forms[minimal_exponents(unit_vectors[i] for i in subset)] = frozenset(subset)
    found = set()
    for exps in itertools.product(*(range(d + 1) for d in ideal.max_exponents())):
        quot = minimal_exponents(tuple(max(a - b, 0) for a, b in zip(g, exps)) for g in gens)
        hit = prime_forms.get(quot)
        if hit is not None:
            found.add(hit)
    return frozenset(found)


@given(random_ideals(max_vars=5))
@settings(max_examples=200, deadline=None)
def test_grid_scans_match_box_references(ideal):
    n = ideal.ring.n
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            count, witnesses = bass0(ideal, subset)
            reference = bass0_box_reference(ideal, subset)
            assert count == len(reference)
            assert witnesses == reference
    assert ass_by_colon_scan(ideal) == colon_scan_box_reference(ideal)
