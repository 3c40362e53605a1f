"""Index bookkeeping under polynomial extension and localization."""

from redix import (
    MonomialIdeal,
    RingContext,
    extension_report,
    localization_report,
)

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


def test_reports_in_a_row_equal_fresh_reports(monkeypatch):
    from redix import bass

    a = ideal((3, 0), (2, 2), (0, 4))
    b = ideal((2, 0), (1, 1))
    scans = []
    scan = bass.reducibility_index_by_bass
    monkeypatch.setattr(bass, "reducibility_index_by_bass", lambda i: scans.append(i) or scan(i))
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
        # an equal but distinct ideal misses the one-slot memo and is scanned afresh
        assert got == report(MonomialIdeal(i.ring, i.gens), arg)
    assert len(scans) == 3 + len(calls)
