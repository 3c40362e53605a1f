"""Finite abelian groups: sum-index search against the factor-count formula."""

import itertools
import json
import os
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import is_dataclass
from math import gcd, lcm
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import redix
from redix.abelian import (
    FiniteAbelianGroup,
    SubgroupLattice,
    _add_table,
    _check_closed,
    _members,
    abelian_group_classes,
    additivity_report,
    characterization_report,
    quotient_group,
    quotient_monotonicity_report,
    render_subgroup,
    secondary_representation,
    subgroup_lattice,
    sum_index_formula,
    sum_reducibility_index_bruteforce,
)
from redix.cli import main
from redix.errors import SizeCapError, TrivialGroupError


def G(*orders):
    return FiniteAbelianGroup.from_orders(*orders)


def test_canonical_form():
    assert G(12).factors == (4, 3)
    assert G(12).render() == "Z/4 + Z/3"
    assert G(9, 2, 3).factors == (2, 3, 9)
    with pytest.raises(SizeCapError, match="^group order 72 exceeds the hard ceiling 64$"):
        G(4, 2, 9)
    assert G(6, 10).factors == (2, 2, 3, 5)
    assert G(1).is_trivial and G(1).order == 1


def _coords(group, idx):
    """Reference: the mixed-radix digits of an element index, the last factor fastest."""
    out = []
    for q in reversed(group.factors):
        idx, c = divmod(idx, q)
        out.append(c)
    return tuple(reversed(out))


def _index(group, coords):
    """Reference: the element index of a coordinate vector, inverse to _coords."""
    idx = 0
    for c, q in zip(coords, group.factors):
        idx = idx * q + c
    return idx


def _add_table_by_coords(group):
    """Reference: each entry through coordinates, as the table was once built."""
    table = []
    for a in range(group.order):
        ca = _coords(group, a)
        row = []
        for b in range(group.order):
            cb = _coords(group, b)
            row.append(_index(group, tuple((x + y) % q for x, y, q in zip(ca, cb, group.factors))))
        table.append(row)
    return table


def _subgroups_by_cyclic_closure(group):
    """Reference: close the cyclic subgroups under elementwise sums, as frozensets."""
    table = _add_table_by_coords(group)
    cyclic = set()
    for g in range(group.order):
        orbit, cur = {0}, g
        while cur != 0:
            orbit.add(cur)
            cur = table[cur][g]
        cyclic.add(frozenset(orbit))
    seen = {frozenset([0])}
    frontier = list(seen)
    while frontier:
        new = []
        for s in frontier:
            for c in cyclic:
                joined = frozenset(table[a][b] for a in s for b in c)
                if joined not in seen:
                    seen.add(joined)
                    new.append(joined)
        frontier = new
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def test_add_table_matches_coordinate_reference():
    for group in abelian_group_classes(64):
        table = _add_table(group)
        assert all(type(row) is bytes for row in table), group.render()
        assert [list(row) for row in table] == _add_table_by_coords(group), group.render()


def test_lattice_matches_cyclic_closure_reference():
    for group in abelian_group_classes(64):
        lat = subgroup_lattice(group)
        expected = _subgroups_by_cyclic_closure(group)
        members = [{a for a in range(group.order) if m >> a & 1} for m in lat.masks]
        assert members == expected, group.render()
        assert lat.masks == [sum(1 << a for a in s) for s in expected], group.render()


def test_subgroup_counts():
    assert len(subgroup_lattice(G(4))) == 3
    assert len(subgroup_lattice(G(2, 2))) == 5
    assert len(subgroup_lattice(G(6))) == 4
    assert len(subgroup_lattice(G(8))) == 4


def _held_objects(value):
    """value and everything inside its lists, tuples, sets, dicts and dataclass fields."""
    yield value
    if is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _held_objects(item)


def test_lattice_and_reports_hold_masks_not_member_sets():
    group = G(2, 4)
    lat = SubgroupLattice(group)
    assert lat.sum_irreducible_indices
    lat.join_row(lat.trivial_index, range(len(lat)))
    search = sum_reducibility_index_bruteforce(group)
    char = characterization_report(group)
    sec = secondary_representation(group)
    for value in (vars(lat), search, char, sec):
        assert not any(isinstance(x, frozenset) for x in _held_objects(value))
    assert all(type(m) is int for chain in search.samples for m in chain)
    assert [type(part.mask) for part in sec.parts] == [int]
    assert render_subgroup(lat.masks[lat.full_index]) == "{0, 1, 2, 3, 4, 5, 6, 7}"
    assert render_subgroup(1) == "{0}"


def test_lattice_build_checks_each_subgroup_closed():
    # in Z/8, 2 + 4 = 6 inside <2>; the build reaches <2> from zero by
    # adding 2 and reads only entries (x, 1) and (x, 2) on the way, so
    # only the closure check on <2>, which translates whole rows, can see
    # the entry at (2, 4) point outside; a build without that check reads
    # it later, numbering the cosets of <4>, and raises nothing
    group = FiniteAbelianGroup((8,))
    rows = [bytearray(row) for row in _add_table(group)]
    rows[2][4] = 1
    vars(group)["add_table"] = [bytes(row) for row in rows]
    with pytest.raises(ValueError, match="^member set is not closed under addition$"):
        SubgroupLattice(group)
    assert len(SubgroupLattice(FiniteAbelianGroup((8,)))) == 4


GROUPS_TO_64 = list(abelian_group_classes(64))


@st.composite
def _member_sets(draw):
    """A group of order <= 64 and a mask: a subgroup, one with an element flipped, or any set."""
    group = draw(st.sampled_from(GROUPS_TO_64))
    kind = draw(st.sampled_from(("subgroup", "flipped", "any")))
    if kind == "any":
        return group, draw(st.integers(0, (1 << group.order) - 1))
    mask = draw(st.sampled_from(subgroup_lattice(group).masks))
    if kind == "flipped":
        mask ^= 1 << draw(st.integers(0, group.order - 1))
    return group, mask


@settings(max_examples=300, deadline=None)
@given(_member_sets())
def test_check_closed_matches_pairwise_reference(case):
    group, mask = case
    table = group.add_table
    members = _members(mask)
    outside = any(not mask >> table[a][b] & 1 for a in members for b in members)
    if outside:
        with pytest.raises(ValueError, match="^member set is not closed under addition$"):
            _check_closed(table, members)
    else:
        _check_closed(table, members)


def _sum_set_join(lat, i, j):
    """Reference: the join as the elementwise sum set, a subgroup in the abelian case."""
    table = lat.group.add_table
    elements = range(lat.group.order)
    left, right = ([a for a in elements if m >> a & 1] for m in (lat.masks[i], lat.masks[j]))
    mask = 0
    for a in left:
        row = table[a]
        for b in right:
            mask |= 1 << row[b]
    return lat.index_of[mask]


def _orbit_mask(group, a):
    """Reference: mask of <a>, from a's orbit under repeated addition."""
    table = group.add_table
    mask, cur = 1, a
    while cur:
        mask |= 1 << cur
        cur = table[cur][a]
    return mask


def test_closure_table_matches_sum_sets(rng):
    for group in abelian_group_classes(64):
        lat = subgroup_lattice(group)
        if group.order <= 32:
            rows = [lat.join_row(i, range(len(lat))) for i in range(len(lat))]
            for i in range(len(lat)):
                for j in range(i, len(lat)):
                    expected = _sum_set_join(lat, i, j)
                    assert rows[i][j] == rows[j][i] == expected, (group.render(), i, j)
        else:
            # too many pairs to check them all: a seeded sample of entries
            for _ in range(150):
                i, a = rng.randrange(len(lat)), rng.randrange(group.order)
                expected = _sum_set_join(lat, i, lat.index_of[_orbit_mask(group, a)])
                assert lat._closure[i][a] == expected, (group.render(), i, a)
        cyclic = lat._closure[lat.trivial_index]
        for a in range(group.order):
            orbit = _orbit_mask(group, a)
            assert lat.masks[cyclic[a]] == orbit, (group.render(), a)
            assert group.element_order(a) == orbit.bit_count(), (group.render(), a)


def test_closure_rows_are_compact_and_join_rows_share_ints():
    for group in abelian_group_classes(64):
        lat = subgroup_lattice(group)
        code = "B" if len(lat) <= 256 else "H"
        assert {(type(row), row.typecode) for row in lat._closure} == {(array, code)}
    lat = subgroup_lattice(G(2, 2, 2, 2, 2, 2))
    assert len(lat) == 2825 and lat._closure[0].typecode == "H"
    for i in (lat.trivial_index, 300, lat.full_index):
        row = lat.join_row(i, range(len(lat)))
        assert type(row) is tuple
        assert all(k is lat._ints[k] for k in row)


def test_frozen_indices():
    assert sum_index_formula(G(12)) == 2
    assert sum_reducibility_index_bruteforce(G(12)).index == 2
    assert sum_index_formula(G(2, 2, 3)) == 3
    assert sum_reducibility_index_bruteforce(G(2, 2, 3)).index == 3
    assert sum_reducibility_index_bruteforce(G(8)).index == 1
    rep = sum_reducibility_index_bruteforce(G(4, 9))
    assert rep.index == 2 and rep.equicardinal
    assert secondary_representation(G(4, 9)).attached == (2, 3)
    assert secondary_representation(G(30)).attached == (2, 3, 5)
    assert sum_index_formula(G(30)) == 3


def test_cyclic_prime_power_has_index_one():
    for order in (2, 3, 4, 8, 9, 27, 25, 64):
        rep = sum_reducibility_index_bruteforce(G(order))
        assert rep.index == 1
        assert rep.cover_histogram.get(1) == 1  # the group itself, uniquely


def test_trivial_group():
    rep = sum_reducibility_index_bruteforce(G(1))
    assert rep.index == 0
    with pytest.raises(TrivialGroupError):
        secondary_representation(G(1))


def test_order_cap():
    with pytest.raises(SizeCapError):
        sum_reducibility_index_bruteforce(G(128))


def test_order_cap_comes_before_factoring():
    # trial division of a 31-digit prime would run for hours; the product
    # of the orders is checked first, by both constructors
    script = (
        "from redix import FiniteAbelianGroup\n"
        "from redix.errors import SizeCapError\n"
        "for make in (FiniteAbelianGroup.from_orders, lambda n: FiniteAbelianGroup((n,))):\n"
        "    try:\n"
        "        make(10**30 + 57)\n"
        "    except SizeCapError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(redix.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    line = f"group order {10**30 + 57} exceeds the hard ceiling 64"
    assert proc.stdout.splitlines() == [line, line]


def test_sum_irreducibility_classification():
    lat = subgroup_lattice(G(2, 2))
    assert not lat.is_sum_irreducible_index(lat.full_index)  # Klein group is a sum of two lines
    lat6 = subgroup_lattice(G(6))
    for h, mask in enumerate(lat6.masks):
        if mask.bit_count() == 6:
            assert not lat6.is_sum_irreducible_index(h)
        elif mask.bit_count() in (2, 3):
            assert lat6.is_sum_irreducible_index(h)
    report = characterization_report(G(2, 4))
    assert report.passed


def _sample_members(report):
    return [[_members(mask) for mask in rep] for rep in report.samples]


def test_bruteforce_reports_pinned():
    # exact figures of the search, samples in depth-first order: any
    # change to the walk order or to the deferred check shows here
    rep = sum_reducibility_index_bruteforce(G(2, 4))
    assert (rep.index, rep.minimum_count, rep.deferred_checked) == (2, 5, 7)
    assert rep.cover_histogram == {2: 5, 3: 7}
    assert _sample_members(rep) == [
        [[0, 4], [0, 1, 2, 3]],
        [[0, 4], [0, 2, 5, 7]],
        [[0, 6], [0, 1, 2, 3]],
        [[0, 6], [0, 2, 5, 7]],
        [[0, 1, 2, 3], [0, 2, 5, 7]],
    ]
    rep = sum_reducibility_index_bruteforce(G(2, 2, 2))
    assert (rep.index, rep.minimum_count, rep.deferred_checked) == (3, 28, 0)
    assert rep.cover_histogram == {3: 28}
    assert _sample_members(rep) == [
        [[0, 1], [0, a], [0, b]]
        for a, b in [(2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5)]
        + [(3, 6), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7)]
    ]
    rep = sum_reducibility_index_bruteforce(G(4, 4))
    assert (rep.index, rep.minimum_count, rep.deferred_checked) == (2, 12, 82)
    assert rep.cover_histogram == {2: 12, 3: 41, 4: 41}
    c1, c2, c4 = [0, 1, 2, 3], [0, 2, 9, 11], [0, 4, 8, 12]
    c5, c6, c7 = [0, 5, 10, 15], [0, 6, 8, 14], [0, 7, 10, 13]
    assert _sample_members(rep) == [
        [c1, c4], [c1, c5], [c1, c6], [c1, c7], [c2, c4], [c2, c5],
        [c2, c6], [c2, c7], [c4, c5], [c4, c7], [c5, c6], [c6, c7],
    ]
    rep = sum_reducibility_index_bruteforce(G(2, 4, 4))
    assert (rep.index, rep.minimum_count, rep.deferred_checked) == (3, 320, 3566)
    assert rep.cover_histogram == {3: 320, 4: 1500, 5: 2066}
    tail = [c4, c5, c6, c7, [0, 8, 20, 28], [0, 8, 22, 30], [0, 10, 21, 31], [0, 10, 23, 29]]
    assert _sample_members(rep) == [[[0, 16], c1, c] for c in tail] + [
        [[0, 16], c2, c] for c in (c4, c5, c6, c7)
    ]


def test_heaviest_censuses_pinned():
    # the two costliest searches of the sweep: the deepest walk, and the
    # largest counting pass with no deep cover at all
    rep = sum_reducibility_index_bruteforce(G(2, 2, 2, 2, 4))
    assert (rep.index, rep.minimum_count, rep.deferred_checked) == (5, 567168, 2433536)
    assert rep.cover_histogram == {5: 567168, 6: 2433536}
    assert rep.equicardinal
    lines = [[0, 4], [0, 8], [0, 16], [0, 32]]
    assert _sample_members(rep) == [lines + [[0, 1, 2, 3]]] + [
        lines + [[0, 2, k, k + 2]] for k in range(5, 46, 4)
    ]
    rep = sum_reducibility_index_bruteforce(G(2, 2, 2, 2, 2, 2))
    assert (rep.index, rep.minimum_count, rep.deferred_checked) == (6, 27998208, 0)
    assert rep.cover_histogram == {6: 27998208}
    assert rep.equicardinal
    assert _sample_members(rep) == [[[0, 1], [0, 2], [0, 4], [0, 8], [0, 16], [0, k]] for k in range(32, 44)]


def _progressive_covers(lat):
    """Reference: every progressive cover, by plain recursion over sum-set joins."""
    irr = lat.sum_irreducible_indices
    covers = []

    def go(j, start, chain):
        for i in range(start, len(irr)):
            h = irr[i]
            if lat.masks[h] & ~lat.masks[j]:
                child = _sum_set_join(lat, j, h)
                if child == lat.full_index:
                    covers.append(chain + (h,))
                else:
                    go(child, i + 1, chain + (h,))

    go(lat.trivial_index, 0, ())
    return covers


def _join_all(lat, members):
    j = lat.trivial_index
    for h in members:
        j = _sum_set_join(lat, j, h)
    return j


def test_deferred_walk_matches_refold_reference():
    # the walk prunes redundant prefixes; the reference re-folds every
    # deep cover without each member in turn, as the search once did
    deep_groups = 0
    for group in abelian_group_classes(32):
        if group.is_trivial:
            continue
        lat = subgroup_lattice(group)
        covers = _progressive_covers(lat)
        rep = sum_reducibility_index_bruteforce(group)
        assert rep.cover_histogram == Counter(map(len, covers)), group.render()
        deep = [c for c in covers if len(c) > rep.index]
        assert rep.deferred_checked == len(deep), group.render()
        for cover in deep:
            assert any(
                _join_all(lat, cover[:k] + cover[k + 1 :]) == lat.full_index
                for k in range(len(cover))
            ), (group.render(), cover)
        assert rep.equicardinal
        deep_groups += bool(deep)
    assert deep_groups == 23


def test_irredundant_deep_cover_is_reported_not_raised(capsys, monkeypatch):
    # declaring the whole Klein group sum-irreducible makes it a cover of
    # length one, while the three pairs of lines stay irredundant covers
    from redix import abelian

    def with_full(self):
        return tuple(
            h
            for h in range(len(self))
            if h == self.full_index
            or (h != self.trivial_index and self.is_sum_irreducible_index(h))
        )

    monkeypatch.setattr(abelian.SubgroupLattice, "sum_irreducible_indices", property(with_full))
    subgroup_lattice.cache_clear()
    sum_reducibility_index_bruteforce.cache_clear()
    try:
        rep = sum_reducibility_index_bruteforce(G(2, 2))
        char = characterization_report(G(2, 2))
        code = main(["abelian", "group: Z/2 + Z/2", "--format", "json"])
        out = capsys.readouterr().out
    finally:
        subgroup_lattice.cache_clear()
        sum_reducibility_index_bruteforce.cache_clear()
    assert (rep.index, rep.cover_histogram, rep.deferred_checked) == (1, {1: 1, 2: 6}, 6)
    assert rep.equicardinal is False
    assert [_members(mask) for mask in char.mismatches] == [[0, 1, 2, 3]]
    results = json.loads(out)["results"]
    assert results["bruteforce"]["equicardinal"] is False
    assert dict(results["checks"])["all irredundant representations equicardinal"] is False
    assert code == 1


def test_irreducibility_decided_once_per_subgroup(monkeypatch):
    from redix import abelian

    subgroup_lattice.cache_clear()
    sum_reducibility_index_bruteforce.cache_clear()
    calls = []
    original = abelian.SubgroupLattice.is_sum_irreducible_index

    def counted(self, h):
        calls.append(h)
        return original(self, h)

    monkeypatch.setattr(abelian.SubgroupLattice, "is_sum_irreducible_index", counted)
    group = G(4, 4)
    sum_reducibility_index_bruteforce(group)
    assert characterization_report(group).passed
    lat = subgroup_lattice(group)
    assert sorted(calls) == [h for h in range(len(lat)) if h != lat.trivial_index]


def _joins_from_two_smaller(lat, h):
    """Reference: some two subgroups strictly inside subgroup h join to it."""
    inside = [k for k in range(len(lat)) if k != h and not lat.masks[k] & ~lat.masks[h]]
    return any(_sum_set_join(lat, a, b) == h for a, b in itertools.combinations(inside, 2))


def test_irreducibility_matches_pairwise_reference():
    for group in abelian_group_classes(32):
        lat = subgroup_lattice(group)
        for h in range(len(lat)):
            if h != lat.trivial_index:
                expected = not _joins_from_two_smaller(lat, h)
                assert lat.is_sum_irreducible_index(h) == expected, (group.render(), h)


def test_secondary_representation():
    rep = secondary_representation(G(12))
    assert rep.attached == (2, 3)
    assert rep.direct_sum_ok
    assert rep.passed
    for part in rep.parts:
        assert part.prime_nilpotent and part.action_split
    assert [p.mask.bit_count() for p in rep.parts] == [4, 3]


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def _order_by_coords(group, a):
    return lcm(*(q // gcd(c, q) for c, q in zip(_coords(group, a), group.factors)))


def test_secondary_parts_are_the_primary_components():
    for group in abelian_group_classes(64):
        if group.is_trivial:
            continue
        rep = secondary_representation(group)
        assert [part.prime for part in rep.parts] == list(group.primes)
        for part in rep.parts:
            expected = sum(
                1 << a
                for a in range(group.order)
                if _is_power_of(_order_by_coords(group, a), part.prime)
            )
            assert part.mask == expected, (group.render(), part.prime)


def test_secondary_representation_checks_each_part_closed(monkeypatch):
    # with element 1 of Z/2 + Z/3 read as order 2, the 2-part is {0, 1, 3},
    # and 1 + 1 = 2 lies outside it
    true_order = FiniteAbelianGroup.element_order
    monkeypatch.setattr(
        FiniteAbelianGroup,
        "element_order",
        lambda self, a: 2 if a == 1 else true_order(self, a),
    )
    group = FiniteAbelianGroup((2, 3))
    secondary_representation.cache_clear()
    try:
        with pytest.raises(ValueError, match="^member set is not closed under addition$"):
            secondary_representation(group)
    finally:
        secondary_representation.cache_clear()


def test_secondary_representation_once_per_group():
    first, second = G(4, 3), G(3, 4)
    assert first is not second and first == second
    assert secondary_representation(first) is secondary_representation(second)


def test_quotients():
    g = G(4)
    lat = subgroup_lattice(g)
    q = quotient_group(g, lat.masks[1])  # masks are sorted by size: the order-2 subgroup
    assert q.factors == (2,)
    klein = G(2, 2)
    lat = subgroup_lattice(klein)
    diag = next(m for m in lat.masks if m.bit_count() == 2 and m >> 3 & 1)
    assert quotient_group(klein, diag).factors == (2,)


def _coset_orders(group, mask):
    """Reference: the order of each coset g + S in group/S, the least k with k*g in S."""
    table = group.add_table
    members = _members(mask)
    seen = 0
    orders = Counter()
    for g in range(group.order):
        if seen >> g & 1:
            continue
        for s in members:
            seen |= 1 << table[g][s]
        k, cur = 1, g
        while not mask >> cur & 1:
            cur = table[cur][g]
            k += 1
        orders[k] += 1
    return orders


def test_quotient_group_matches_coset_reference():
    checked = 0
    for group in abelian_group_classes(32):
        for mask in subgroup_lattice(group).masks:
            q = quotient_group(group, mask)
            orders = Counter(q.element_order(a) for a in range(q.order))
            assert orders == _coset_orders(group, mask), (group.render(), _members(mask))
            checked += 1
    assert checked == 1030
    z4 = G(4)
    with pytest.raises(ValueError, match="^member set is not closed under addition$"):
        quotient_group(z4, 0b11)
    for mask in (0b10001, 0):  # an element past the group; the empty set
        with pytest.raises(ValueError, match="^a subgroup mask must hold 0 and no element at"):
            quotient_group(z4, mask)


def test_quotient_monotonicity_and_inheritance():
    rep = quotient_monotonicity_report(G(8))
    assert rep.passed
    assert rep.whole_index == 1
    assert rep.max_quotient_index <= 1
    assert rep.irreducibility_inherited
    rep = quotient_monotonicity_report(G(2, 2, 3))
    assert rep.passed and rep.max_quotient_index <= 3


def test_additivity():
    rep = additivity_report(G(4, 3, 5))
    assert rep.passed
    assert rep.whole_index == 3
    assert rep.part_indices == ((2, 1), (3, 1), (5, 1))


def test_class_enumeration():
    classes = list(abelian_group_classes(8))
    assert len(classes) == 11  # 1+1+1+2+1+1+1+3
    orders = sorted(g.order for g in classes)
    assert orders == [1, 2, 3, 4, 4, 5, 6, 7, 8, 8, 8]
    # no duplicate canonical forms
    factors = [g.factors for g in classes]
    assert len(set(factors)) == len(factors)


def test_scalar_matches_coordinate_formula():
    for group in abelian_group_classes(64):
        coords = [_coords(group, a) for a in range(group.order)]
        for n in range(group.order + 2):
            row = group.scalar_row(n)
            assert type(row) is bytes and len(row) == group.order, (group.render(), n)
            for a, c in enumerate(coords):
                expected = _index(group, tuple((n * x) % q for x, q in zip(c, group.factors)))
                assert row[a] == expected, (group.render(), n, a)


def test_element_arithmetic():
    g = G(4, 3)
    a = _index(g, (1, 0))
    b = _index(g, (0, 1))
    s = g.add_table[a][b]
    assert _coords(g, s) == (1, 1)
    assert g.element_order(a) == 4
    assert g.element_order(b) == 3
    assert g.element_order(s) == 12
