"""Index bookkeeping under polynomial extension and localization."""

import pytest

from redix import (
    MonomialIdeal,
    RingContext,
    extension_report,
    localization_report,
)
from redix.basechange import MAX_EXTRA_VARIABLES, _socle_report, extend_polynomial
from redix.errors import SizeCapError
from redix.selftest import ideal_sample, run_selftest

R2 = RingContext.default(2)


def ideal(*exps):
    return MonomialIdeal.from_gens(R2, [R2.monomial(*e) for e in exps])


def test_extension_keeps_index():
    rep = extension_report(ideal((2, 0), (1, 1)), 1)
    assert rep.kind == "extend"
    assert rep.faithfully_flat
    assert (rep.ir_before, rep.ir_after_formula, rep.ir_after_direct) == (2, 2, 2)
    assert rep.passed
    assert all(f.fiber_index == 1 for f in rep.fibers)


def test_extension_two_variables():
    rep = extension_report(ideal((2, 0), (1, 1), (0, 3)), 2)
    assert rep.ir_after_direct == rep.ir_before == 2
    assert rep.passed


def test_localization_drops_embedded_component():
    rep = localization_report(ideal((2, 0), (1, 1)), (1,))  # invert y
    assert rep.kind == "invert"
    assert (rep.ir_before, rep.ir_after_direct) == (2, 1)
    assert not rep.faithfully_flat
    assert rep.passed


def test_localization_can_keep_everything():
    # both associated primes avoid y only when none contains it; here the
    # top prime contains y, so inverting y strictly drops the index
    rep = localization_report(ideal((2, 0), (0, 3)), (0,))
    assert rep.ir_before == 1
    assert rep.ir_after_direct == 0  # the only prime contains x
    rep_empty = localization_report(ideal((2, 0), (0, 3)), ())
    assert rep_empty.ir_after_direct == rep_empty.ir_before == 1
    assert rep_empty.passed


def test_localization_never_grows():
    I = ideal((3, 0), (2, 2), (0, 4))
    base = localization_report(I, ()).ir_before
    for subset in ((), (0,), (1,), (0, 1)):
        rep = localization_report(I, subset)
        assert rep.ir_after_direct <= base
        assert rep.passed


def count_scans(monkeypatch) -> list:
    """Record every socle scan from here on, with the base change memo emptied."""
    from redix import bass

    scans = []
    scan = bass.reducibility_index_by_bass
    monkeypatch.setattr(bass, "reducibility_index_by_bass", lambda i: scans.append(i) or scan(i))
    _socle_report.cache_clear()
    return scans


def test_reports_in_a_row_equal_fresh_reports(monkeypatch):
    a = ideal((3, 0), (2, 2), (0, 4))
    b = ideal((2, 0), (1, 1))
    scans = count_scans(monkeypatch)
    calls = [
        (localization_report, a, (0,)),
        (localization_report, a, (1,)),
        (localization_report, b, (1,)),
        (extension_report, b, 2),
        (localization_report, a, ()),
        (extension_report, a, 1),
    ]
    in_a_row = [report(i, arg) for report, i, arg in calls]
    # a, a, b, b, a, a: one scan per change of ideal
    assert scans == [a, b, a]
    for (report, i, arg), got in zip(calls, in_a_row):
        # an equal but distinct ideal reuses the scan of the call before
        assert got == report(MonomialIdeal(i.ring, i.exponents), arg)
    assert scans == [a, b, a, b, a]
    assert _socle_report.cache_info().hits == 2 * len(calls) - len(scans)


def test_localization_suite_scans_each_run_of_equal_ideals_once(monkeypatch):
    sample = ideal_sample(42, 200, 3, 4)
    scans = count_scans(monkeypatch)
    (result,) = run_selftest("localization-formula", 42).results
    assert (result.checks, result.failure_count) == (916, 0)
    # the sample repeats an ideal right after itself 7 times; those reuse the scan
    assert scans == [i for k, i in enumerate(sample) if k == 0 or i != sample[k - 1]]
    assert len(scans) == 193


def test_extend_count_above_the_cap_is_refused_before_any_ring(monkeypatch):
    from redix import bass, monomial

    def unexpected(*args):
        raise AssertionError("built before the cap was checked")

    small = ideal((2, 0), (1, 1))
    monkeypatch.setattr(bass, "reducibility_index_by_bass", unexpected)
    monkeypatch.setattr(monomial, "RingContext", unexpected)
    _socle_report.cache_clear()
    with pytest.raises(SizeCapError) as info:
        extension_report(small, MAX_EXTRA_VARIABLES + 1)
    assert str(info.value) == "extend count exceeds cap 1000"
    monkeypatch.undo()
    rep = extension_report(small, MAX_EXTRA_VARIABLES)
    assert rep.detail == "adjoin 1000 variable(s)"
    assert rep.passed and rep.ir_after_direct == rep.ir_before == 2


def test_new_variable_names_skip_names_in_use():
    ring = RingContext(("t1", "x", "t3"))
    big = extend_polynomial(MonomialIdeal.from_gens(ring, [ring.monomial(1, 1, 0)]), 3)
    assert big.ring.names == ("t1", "x", "t3", "t2", "t4", "t5")
    assert big.gens[0].exponents == (1, 1, 0, 0, 0, 0)
