"""Staircase duality: corners, covers, downset sums, quotients."""

import itertools

import pytest

from redix import (
    DownsetSubmodule,
    MonomialIdeal,
    RingContext,
    Staircase,
    dual_index_report,
    dual_single_generator_check,
    maximal_elements,
    min_cover_oracle,
    principal_downset,
    quotient_index,
    socle_matches_dual_generators,
    sum_covers_iff_dual_disjoint,
    sum_irreducible_representation,
)
from redix.errors import (
    EmptyStaircaseError,
    InfiniteColengthError,
    NotInStaircaseError,
    SizeCapError,
)
from redix.selftest import all_staircases
from redix.staircase import _principal_masks, irredundant_cover_sizes

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
    one_dec, one_dual = dual_single_generator_check(ideal(R2, (1, 0), (0, 1)))
    assert one_dec and one_dual


def test_socle_equals_corners():
    for exps in (((2, 0), (1, 1), (0, 3)), ((3, 0), (0, 2)), ((1, 0), (0, 1))):
        soc, corners = socle_matches_dual_generators(ideal(R2, *exps))
        assert soc == corners


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
    from redix.selftest import _downset_masks

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
        order, masks = _downset_masks(g)
        for mask in masks:
            b = DownsetSubmodule(
                g, frozenset(order[i] for i in range(len(order)) if mask >> i & 1)
            )
            assert quotient_index(g, b) == len(corners - b.members)
    assert calls == []
