"""The census of progressive families, on a lattice small enough to read by hand."""

import gc
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from redix.abelian import FiniteAbelianGroup, subgroup_lattice
from redix.census import census
from redix.gfpoly import PrimeField, UniPoly, _meet_irreducible_submodules
from redix.monomial import MonomialIdeal, RingContext
from redix.staircase import Staircase, _principal_masks


def test_census_reports_an_irredundant_deep_cover():
    # {0b011, 0b100} covers 0b111 with two atoms, and {0b100, 0b001, 0b010}
    # covers it with three, none of which can be dropped
    atoms = (0b011, 0b100, 0b001, 0b010)
    found = census(0, 0b111, lambda acc: [acc | a for a in atoms], 12)
    assert found.histogram == {2: 1, 3: 1}
    assert found.samples == ((0, 1),)
    assert (found.deferred, found.irredundant_deep) == (1, {3})


def _progressive_covers(start, top, atoms):
    """Reference: every progressive cover in DFS order, by plain recursion."""
    covers = []

    def go(node, first, chain):
        for i in range(first, len(atoms)):
            child = node | atoms[i]
            if child == node:
                continue
            if child == top:
                covers.append(chain + (i,))
            else:
                go(child, i + 1, chain + (i,))

    go(start, 0, ())
    return covers


def _union(start, atoms, members):
    node = start
    for i in members:
        node |= atoms[i]
    return node


@st.composite
def _families(draw):
    bits = draw(st.integers(1, 7))
    atoms = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=9))
    start = draw(st.integers(0, (1 << bits) - 1))
    top = start
    for a in atoms:
        top |= a
    return start, top, atoms


@settings(max_examples=300, deadline=None)
@given(_families(), st.sampled_from((0, 1, 12)))
# 0b11 alone covers, so the deep leaf 0b01 is settled in its parent as redundant
@example((0, 0b11, [0b01, 0b11]), 12)
# 0b11 alone covers, and the deep leaf 0b10 is settled with {0b10, 0b01} irredundant
@example((0, 0b11, [0b10, 0b11, 0b01]), 12)
# 0b10 as the first member leaves no atom above it: a dead prefix
@example((0, 0b11, [0b01, 0b10]), 12)
# no samples to take: the prefix 0b101 holds only the minimum cover and is
# skipped, while the deep cover {0b001, 0b101, 0b010} is still checked
@example((0, 0b111, [0b001, 0b101, 0b010]), 0)
def test_census_matches_recursive_reference(family, sample_cap):
    start, top, atoms = family
    assume(start != top)
    found = census(start, top, lambda acc: [acc | a for a in atoms], sample_cap)
    covers = _progressive_covers(start, top, atoms)
    assert found.histogram == Counter(map(len, covers))
    r0 = min(map(len, covers))
    assert found.samples == tuple(c for c in covers if len(c) == r0)[:sample_cap]
    deep = [c for c in covers if len(c) > r0]
    assert found.deferred == len(deep)
    irredundant = {
        len(c)
        for c in deep
        if all(_union(start, atoms, c[:k] + c[k + 1 :]) != top for k in range(len(c)))
    }
    assert found.irredundant_deep == irredundant


@settings(max_examples=300, deadline=None)
@given(_families().flatmap(lambda f: st.tuples(st.just(f), st.permutations(f[2]))))
# in index order the walk forms the deep covers {0b001, 0b111},
# {0b010, 0b111} and {0b001, 0b010, 0b111} and must find each redundant;
# with 0b111 first it forms no deep cover
@example(((0, 0b111, [0b001, 0b010, 0b111]), [0b111, 0b001, 0b010]))
def test_census_verdicts_do_not_depend_on_atom_order(case):
    # every irredundant cover is progressive under any atom order, so the
    # index, the minimum count and the irredundant deep depths are the same
    (start, top, atoms), permuted = case
    assume(start != top)
    found, again = (
        census(start, top, lambda acc, xs=xs: [acc | a for a in xs], 12)
        for xs in (atoms, permuted)
    )
    r0 = min(found.histogram)
    assert min(again.histogram) == r0
    assert again.histogram[r0] == found.histogram[r0]
    assert again.irredundant_deep == found.irredundant_deep
    for xs, got in ((atoms, found), (permuted, again)):
        for sample in got.samples:
            assert len(sample) == r0 and _union(start, xs, sample) == top


def _abelian_joins():
    lat = subgroup_lattice(FiniteAbelianGroup.from_orders(2, 2, 4))
    irr = lat.sum_irreducible_indices
    return lat.trivial_index, lat.full_index, lambda j: lat.join_row(j, irr)


def _staircase_unions():
    ring = RingContext.default(2)
    g = Staircase.from_ideal(MonomialIdeal.of(ring, [(3, 0), (1, 1), (0, 3)]))
    masks = _principal_masks(g)
    return 0, (1 << g.size) - 1, lambda a: [a | x for x in masks]


def _hypersurface_meets():
    # (x + 1)^2 * (x^2 + x + 1) over GF(2)
    irreducible, full = _meet_irreducible_submodules(UniPoly.make(PrimeField(2), [1, 1, 1, 1, 1]))
    return full, 1, lambda n: [n & x for x in irreducible]


@pytest.mark.parametrize("caller", [_abelian_joins, _staircase_unions, _hypersurface_meets])
def test_census_leaves_no_garbage(caller):
    # the census's tables must go by reference counting when it returns,
    # not wait in a reference cycle for the collector
    start, top, row_of = caller()
    gc.collect()
    gc.disable()
    try:
        assert census(start, top, row_of, 12).histogram
        assert gc.collect() == 0
    finally:
        gc.enable()
