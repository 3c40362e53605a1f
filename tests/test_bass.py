"""Socle dimensions, associated primes, and the summed index."""

import itertools
from operator import le

from hypothesis import example, given, settings
import hypothesis.strategies as st
import pytest

from redix.bass import ass_by_colon_scan, bass0, reducibility_index_by_bass
from redix.decompose import decompose
from redix.monomial import MonomialIdeal, RingContext, minimal_exponents

R2 = RingContext.default(2)
R3 = RingContext.default(3)


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


def test_zero_variable_ring():
    field = RingContext.default(2).subring(())
    assert bass0(MonomialIdeal.zero(field), ()) == (1, ((),))
    assert bass0(MonomialIdeal.unit(field), ()) == (0, ())
    assert reducibility_index_by_bass(MonomialIdeal.zero(field)).index == 1


@pytest.mark.parametrize(
    "support, message",
    [
        ((0, 0), "support index 0 repeated"),
        ((-1,), "support index -1 out of range for 2 variables"),
        ((2,), "support index 2 out of range for 2 variables"),
    ],
)
def test_bad_support_is_refused(support, message):
    I = ideal((2, 0), (1, 1), (0, 3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        bass0(I, support)


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


def socle_grid_reference(ideal):
    """Socle entries by one grid scan per variable subset.

    Each scan projects and minimalizes the generators, then tests every
    point of the breakpoint grid {g_i - 1 : g_i >= 1} of the localized
    ideal against the definition of a witness.
    """
    n = ideal.ring.n
    found = []
    for r in range(n + 1):
        for keep in itertools.combinations(range(n), r):
            gens = minimal_exponents(tuple(e[i] for i in keep) for e in ideal.exponents)
            if len(gens) == 1 and not any(gens[0]):
                continue  # localizes to the unit ideal

            def inside(v):
                return any(all(map(le, g, v)) for g in gens)

            grid = [sorted({g[i] - 1 for g in gens if g[i]}) for i in range(r)]
            witnesses = tuple(
                u
                for u in itertools.product(*grid)
                if not inside(u)
                and all(inside(u[:i] + (u[i] + 1,) + u[i + 1 :]) for i in range(r))
            )
            if witnesses:
                found.append((keep, len(witnesses), witnesses))
    found.sort()
    return tuple((frozenset(keep), count, witnesses) for keep, count, witnesses in found)


@given(random_ideals(max_vars=5))
# the zero ideal: its one witness is the leaf with every coordinate inverted
@example(MonomialIdeal.zero(R2))
# prune (a): inverting x leaves x^2 below every completion, and so does u_y = 2 for y^3
@example(ideal((2, 0), (1, 1), (0, 3)))
# prune (b): after u_x = 0, inverting y and u_z = 0 leave x*z^2, the one generator with
# g_x = 1, above u_z
@example(MonomialIdeal.of(R3, [(0, 1, 1), (1, 0, 2)]))
@settings(max_examples=200, deadline=None)
def test_socle_walk_matches_grid_reference(ideal):
    report = reducibility_index_by_bass(ideal)
    assert report.entries == socle_grid_reference(ideal)
    counts = {support: (count, witnesses) for support, count, witnesses in report.entries}
    n = ideal.ring.n
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            assert bass0(ideal, subset) == counts.get(frozenset(subset), (0, ()))
