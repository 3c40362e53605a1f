"""The census of progressive families, on a lattice small enough to read by hand."""

from redix.census import census


def test_census_reports_an_irredundant_deep_cover():
    # {0b011, 0b100} covers 0b111 with two atoms, and {0b100, 0b001, 0b010}
    # covers it with three, none of which can be dropped
    atoms = (0b011, 0b100, 0b001, 0b010)
    found = census(0, 0b111, len(atoms), 3, lambda acc, i: acc | atoms[i], 12)
    assert found.histogram == {2: 1, 3: 1}
    assert found.samples == ((0, 1),)
    assert (found.deferred, found.irredundant_deep) == (1, {3})
