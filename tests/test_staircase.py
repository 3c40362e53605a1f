"""Staircase duality: corners, covers, downset sums, quotients."""

import gc
import itertools
import weakref
from operator import le

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from redix.bass import bass0
from redix.errors import (
    EmptyStaircaseError,
    InfiniteColengthError,
    NotInStaircaseError,
    SizeCapError,
)
from redix.monomial import MonomialIdeal, RingContext
from redix.selftest import _downsets, all_staircases, run_selftest
from redix.staircase import (
    DownsetSubmodule,
    Staircase,
    _check_downset,
    _principal_masks,
    dual_index_report,
    irredundant_cover_sizes,
    maximal_elements,
    min_cover_oracle,
    principal_downset,
    quotient_index,
    sum_covers_iff_dual_disjoint,
    sum_irreducible_representation,
)

R1 = RingContext.default(1)
R2 = RingContext.default(2)


def ideal(ring, *exps):
    return MonomialIdeal.from_gens(ring, [ring.monomial(*e) for e in exps])


def test_frozen_staircase():
    I = ideal(R2, (2, 0), (1, 1), (0, 3))
    g = Staircase.from_ideal(I)
    assert g.size == 4
    assert g.exponents == {(0, 0), (1, 0), (0, 1), (0, 2)}
    assert [m.render() for m in g.sorted_monomials()] == ["1", "y", "y^2", "x"]
    assert maximal_elements(g) == {(1, 0), (0, 2)}
    assert min_cover_oracle(g) == 2
    parts, count = sum_irreducible_representation(g)
    assert count == 2 and len(parts) == 2


def test_dual_report_all_routes_agree():
    I = ideal(R2, (2, 0), (1, 1), (0, 3))
    rep = dual_index_report(I)
    assert rep.all_equal
    assert (
        rep.ir_decomposition
        == rep.ir_socle_formula
        == rep.dual_generator_count
        == rep.min_cover
        == 2
    )


def test_one_dimensional_power():
    g = Staircase.from_ideal(ideal(R1, (3,)))
    assert g.size == 3
    assert len(maximal_elements(g)) == 1
    assert min_cover_oracle(g) == 1
    # the top element generates everything
    top = next(iter(maximal_elements(g)))
    assert principal_downset(g, top).members == g.exponents


def test_maximal_ideal_gives_trivial_dual():
    g = Staircase.from_ideal(ideal(R2, (1, 0), (0, 1)))
    assert g.size == 1
    assert min_cover_oracle(g) == 1
    rep = dual_index_report(ideal(R2, (1, 0), (0, 1)))
    assert rep.ir_decomposition == rep.dual_generator_count == 1


def test_socle_equals_corners():
    for exps in (((2, 0), (1, 1), (0, 3)), ((3, 0), (0, 2)), ((1, 0), (0, 1))):
        I = ideal(R2, *exps)
        rep = dual_index_report(I)
        assert rep.top_socle == bass0(I, range(2))[0] == rep.dual_generator_count


def test_top_socle_comes_from_the_socle_scan(monkeypatch):
    import redix.staircase as staircase

    I = ideal(R2, (2, 0), (1, 1), (0, 3))
    monkeypatch.setattr(staircase, "maximal_elements", lambda g: frozenset())
    rep = dual_index_report(I)
    assert (rep.dual_generator_count, rep.top_socle) == (0, 2)


def test_duality_suite_builds_one_staircase_and_decomposition_per_ideal(monkeypatch):
    import redix.staircase as staircase

    built, decomposed = [], []
    from_ideal, decompose = staircase.Staircase.from_ideal, staircase.decompose
    monkeypatch.setattr(
        staircase.Staircase,
        "from_ideal",
        staticmethod(lambda ideal: built.append(ideal) or from_ideal(ideal)),
    )
    monkeypatch.setattr(
        staircase, "decompose", lambda ideal: decomposed.append(ideal) or decompose(ideal)
    )
    (result,) = run_selftest("finite-length-duality", 42).results
    assert result.passed and result.checks == 417
    assert len(built) == len(decomposed) == 139


def test_not_in_staircase():
    I = ideal(R2, (2, 0), (0, 2))
    g = Staircase.from_ideal(I)
    with pytest.raises(NotInStaircaseError, match=r"x\^5\*y\^5"):
        principal_downset(g, (5, 5))


def test_principal_downset_normalizes_its_argument():
    g = Staircase.from_ideal(ideal(R2, (2, 0), (0, 2)))
    assert principal_downset(g, [0, 0]) == principal_downset(g, (0, 0))
    for bad in ((5,), [5, 5], (0, 0, 0), (-1, 0)):
        with pytest.raises(NotInStaircaseError):
            principal_downset(g, bad)


def test_empty_staircase_has_no_representation():
    g = Staircase.from_ideal(MonomialIdeal.unit(R2))
    assert g.size == 0
    with pytest.raises(EmptyStaircaseError):
        sum_irreducible_representation(g)


def test_infinite_colength_rejected():
    with pytest.raises(InfiniteColengthError):
        Staircase.from_ideal(ideal(R2, (2, 0)))


def test_size_caps():
    with pytest.raises(SizeCapError):
        min_cover_oracle(Staircase.from_ideal(ideal(R1, (26,))))
    with pytest.raises(SizeCapError):
        irredundant_cover_sizes(Staircase.from_ideal(ideal(R1, (13,))))


def test_cover_sizes_are_all_the_index():
    for exps in (((2, 0), (1, 1), (0, 3)), ((3, 0), (2, 1), (0, 2)), ((2, 0), (0, 2))):
        I = ideal(R2, *exps)
        g = Staircase.from_ideal(I)
        assert irredundant_cover_sizes(g) == {len(maximal_elements(g))}


def _cover_sizes_by_subsets(g):
    """Reference: every subset of principal downsets, re-unioned without each member."""
    masks = _principal_masks(g)
    want = (1 << g.size) - 1
    sizes = set()
    for r in range(1, g.size + 1):
        for combo in itertools.combinations(masks, r):
            acc = 0
            for mask in combo:
                acc |= mask
            if acc != want:
                continue
            irredundant = True
            for skip in range(r):
                rest = 0
                for k, mask in enumerate(combo):
                    if k != skip:
                        rest |= mask
                if rest == want:
                    irredundant = False
                    break
            if irredundant:
                sizes.add(r)
    return sizes


def test_cover_sizes_match_subset_reference():
    for n in (1, 2, 3):
        for g in all_staircases(n, 10):
            assert irredundant_cover_sizes(g) == _cover_sizes_by_subsets(g), sorted(g.exponents)


def downset_of(g, *exps):
    members = set()
    for e in exps:
        members |= principal_downset(g, e).members
    return DownsetSubmodule(g, frozenset(members))


def test_sum_lemma_two_routes():
    # 2x2 box: corners starred at x*y
    g = Staircase.from_ideal(ideal(R2, (2, 0), (0, 2)))
    b = downset_of(g, (1, 0))
    c = downset_of(g, (0, 1))
    left, right = sum_covers_iff_dual_disjoint(g, b, c)
    assert left == right == False  # misses x*y
    whole = downset_of(g, (1, 1))
    left, right = sum_covers_iff_dual_disjoint(g, whole, c)
    assert left == right == True


def test_quotient_index_complement():
    I = ideal(R2, (2, 0), (1, 1), (0, 3))
    g = Staircase.from_ideal(I)
    empty = DownsetSubmodule(g, frozenset())
    assert quotient_index(g, empty) == 2
    everything = DownsetSubmodule(g, g.exponents)
    assert quotient_index(g, everything) == 0
    # knocking out one corner leaves the other
    one_corner = downset_of(g, (1, 0))
    assert quotient_index(g, one_corner) == 1


def test_staircase_ideal_round_trip():
    for exps in (((2, 0), (1, 1), (0, 3)), ((1, 0), (0, 4)), ((3, 0), (0, 1))):
        I = ideal(R2, *exps)
        g = Staircase.from_ideal(I)
        back = g.ideal()
        assert sorted(m.exponents for m in back.gens) == sorted(
            m.exponents for m in I.gens
        )


def test_quotient_index_counts_corners_outside_b(monkeypatch):
    import redix.staircase as staircase

    stairs = [
        Staircase.from_ideal(ideal(R2, (2, 0), (1, 1), (0, 3))),
        Staircase.from_ideal(ideal(R2, (3, 0), (2, 1), (0, 2))),
        Staircase.from_ideal(ideal(RingContext.default(3), (2, 0, 0), (0, 2, 0), (0, 0, 2))),
    ]
    calls = []
    maximal = staircase.maximal_elements
    monkeypatch.setattr(
        staircase, "maximal_elements", lambda g: calls.append(g) or maximal(g)
    )
    for g in stairs:
        corners = maximal(g)
        order, masks = _downsets(g.exponents, g.size)
        for mask in masks:
            b = DownsetSubmodule(
                g, frozenset(order[i] for i in range(len(order)) if mask >> i & 1)
            )
            assert quotient_index(g, b) == len(corners - b.members)
    assert calls == []


# ------------------------------------------- property: neighbour tables vs tuples


@st.composite
def staircase_exponents(draw):
    """A random downset in 1-3 variables: everything below a few random tops."""
    n = draw(st.integers(1, 3))
    tops = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4))
    box = itertools.product(range(4), repeat=n)
    return n, frozenset(e for e in box if any(all(map(le, e, t)) for t in tops))


def _subset(data, exps):
    return frozenset(data.draw(st.sets(st.sampled_from(sorted(exps))))) if exps else frozenset()


def _closure(members):
    """Everything below some member, by tuple arithmetic."""
    out, todo = set(members), list(members)
    while todo:
        e = todo.pop()
        for i, v in enumerate(e):
            d = e[:i] + (v - 1,) + e[i + 1 :]
            if v and d not in out:
                out.add(d)
                todo.append(d)
    return frozenset(out)


def _corner_count(rest):
    """Members of rest with no x_i multiple in rest, by tuple arithmetic."""
    return sum(
        all(e[:i] + (v + 1,) + e[i + 1 :] not in rest for i, v in enumerate(e)) for e in rest
    )


def _refusal(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(staircase_exponents(), st.data())
def test_downset_submodule_accepts_what_check_downset_accepts(drawn, data):
    n, exps = drawn
    g = Staircase(RingContext.default(n), exps)
    members = _subset(data, exps)
    for chosen in (members, _closure(members)):
        expected = _refusal(lambda: _check_downset(chosen))
        assert _refusal(lambda: DownsetSubmodule(g, chosen)) == expected
    outside = (4,) * n
    assert _refusal(lambda: DownsetSubmodule(g, members | {outside})) == (
        "members must lie in the staircase"
    )


@settings(max_examples=150, deadline=None)
@given(staircase_exponents(), staircase_exponents(), st.data())
def test_quotient_index_matches_tuple_corner_count_across_staircases(first, second, data):
    stairs = [Staircase(RingContext.default(n), exps) for n, exps in (first, second)]
    # an equal staircase that is a different object must get its own tables
    stairs.append(Staircase(stairs[0].ring, frozenset(stairs[0].exponents)))
    downsets = [
        DownsetSubmodule(g, _closure(_subset(data, g.exponents))) for g in stairs for _ in range(3)
    ]
    order = data.draw(st.permutations(range(len(downsets))))
    for k in order:
        b = downsets[k]
        g = b.staircase
        assert quotient_index(g, b) == _corner_count(g.exponents - b.members)


@settings(max_examples=50, deadline=None)
@given(staircase_exponents(), staircase_exponents())
def test_tables_are_freed_with_their_staircase(first, second):
    g = Staircase(RingContext.default(first[0]), first[1])
    h = Staircase(RingContext.default(second[0]), second[1])
    shown = repr(g)
    quotient_index(g, DownsetSubmodule(g, frozenset()))
    quotient_index(h, DownsetSubmodule(h, frozenset()))
    # the tables are no field: equality, hash and repr read only the members
    twin = Staircase(g.ring, frozenset(g.exponents))
    assert (g == twin, hash(g) == hash(twin), repr(g)) == (True, True, shown)
    ref = weakref.ref(g)
    # freed by reference counting alone: no cycle holds the staircase or its tables
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()
    assert "_neighbours" in vars(h) and "_neighbours" not in vars(twin)


def test_all_staircases_lets_go_of_each_staircase_it_passed():
    stairs = all_staircases(3, 10)
    g = next(stairs)
    quotient_index(g, DownsetSubmodule(g, frozenset()))
    ref = weakref.ref(g)
    del g
    next(stairs)
    gc.collect()
    assert ref() is None


# ------------------------------------------- property: downsets vs brute force


@st.composite
def small_staircases(draw):
    """A random staircase of at most 8 monomials in 1-3 variables, grown a member at a time."""
    n = draw(st.integers(1, 3))
    members = set()
    for _ in range(draw(st.integers(0, 8))):
        ups = {e[:i] + (v + 1,) + e[i + 1 :] for e in members for i, v in enumerate(e)}
        addable = [
            e
            for e in sorted((ups | {(0,) * n}) - members)
            if all(e[:i] + (v - 1,) + e[i + 1 :] in members for i, v in enumerate(e) if v)
        ]
        members.add(draw(st.sampled_from(addable)))
    return frozenset(members)


@settings(max_examples=150, deadline=None)
@given(small_staircases(), st.integers(0, 9))
def test_downsets_are_the_divisor_closed_subsets(members, max_size):
    order, masks = _downsets(members, max_size)
    assert order == sorted(members) and masks == sorted(masks)
    found = [frozenset(e for i, e in enumerate(order) if mask >> i & 1) for mask in masks]
    brute = {
        frozenset(combo)
        for size in range(min(max_size, len(order)) + 1)
        for combo in itertools.combinations(order, size)
        if all(m in combo for u in combo for m in order if all(map(le, m, u)))
    }
    assert len(found) == len(set(found)) and set(found) == brute
