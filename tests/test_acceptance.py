"""Acceptance gate: ten criteria, one recorded pass/fail line each.

Every comparison is exact integer equality; there are no tolerances
anywhere.  The shared selftest run uses seed 42, so the sample sizes
asserted here are exactly the ones that were checked.
"""

from conftest import record_criterion

from redix.abelian import abelian_group_classes, sum_reducibility_index_bruteforce
from redix.decompose import decompose
from redix.monomial import MonomialIdeal, RingContext
from redix.selftest import DOCUMENTED_UNTESTED


def suite(report, name):
    return next(r for r in report.results if r.name == name)


def test_criterion_1_index_equals_socle_sum(full_selftest):
    s = suite(full_selftest, "index-socle-agreement")
    ok = s.failure_count == 0 and s.checks >= 1000 + 60
    assert record_criterion(
        1,
        f"decomposition count equals the socle sum on {s.checks} ideals"
        " (1000 random up to 4 variables plus the exhaustive two-variable"
        " sweep), exactly",
        ok,
    )


def test_criterion_2_uniqueness_across_strategies(full_selftest):
    s = suite(full_selftest, "decomposition-uniqueness")
    strategies = (("first", None), ("last", None), ("random", 3), ("random", 8))
    R = RingContext.default(2)
    I = MonomialIdeal.from_gens(R, [R.monomial(3, 0), R.monomial(2, 2), R.monomial(0, 4)])
    frozen = {
        frozenset(decompose(I, strategy=st, seed=sd).components)
        for st, sd in strategies
    }
    ok = s.failure_count == 0 and s.checks == 2000 and len(frozen) == 1
    assert record_criterion(
        2,
        "the irredundant decomposition is identical across 4 splitting"
        " strategies and per-prime multiplicities equal the socle"
        f" dimensions ({s.checks} checks)",
        ok,
    )


def test_criterion_3_variable_extension(full_selftest):
    s = suite(full_selftest, "variable-extension-invariance")
    ok = s.failure_count == 0 and s.checks >= 500
    assert record_criterion(
        3,
        f"index invariant under adding 1 or 2 variables on {s.checks}"
        " random ideals, exactly",
        ok,
    )


def test_criterion_4_localization(full_selftest):
    s = suite(full_selftest, "localization-formula")
    ok = s.failure_count == 0 and s.checks >= 200 * 2
    assert record_criterion(
        4,
        "localization formula matches direct recomputation for every"
        f" variable subset on 200 random ideals ({s.checks} subset checks),"
        " with the index never growing and preserved exactly when all"
        " associated primes survive",
        ok,
    )


def test_criterion_5_field_extension_fibers(full_selftest):
    s = suite(full_selftest, "field-extension-fibers")
    ok = s.failure_count == 0 and s.checks == 62 * 2
    assert record_criterion(
        5,
        "field-extension fiber formula, bounds, and the equality"
        " criterion hold for every monic polynomial over GF(2) of degree"
        f" at most 5 under extensions of degree 2 and 3 ({s.checks} checks)",
        ok,
    )


def test_criterion_6_hypersurface(full_selftest):
    s = suite(full_selftest, "hypersurface-index")
    ok = s.failure_count == 0 and s.checks == 126 + 120
    assert record_criterion(
        6,
        "hypersurface index is 1 exactly for powers of one irreducible,"
        " against the submodule-lattice oracle, exhaustively over GF(2)"
        f" degree <= 6 and GF(3) degree <= 4 ({s.checks} polynomials)",
        ok,
    )


def test_criterion_7_finite_length_duality(full_selftest):
    dual = suite(full_selftest, "finite-length-duality")
    covers = suite(full_selftest, "cover-uniqueness")
    ok = (
        dual.failure_count == 0
        and covers.failure_count == 0
        and dual.checks >= 300
        and covers.checks >= 50
    )
    assert record_criterion(
        7,
        "index, socle sum, staircase corner count, and minimum cover agree"
        f" on finite-colength samples up to 25 standard monomials"
        f" ({dual.checks} checks); every irredundant cover has the same"
        f" size, exhaustively up to 12 ({covers.checks} staircases)",
        ok,
    )


def test_criterion_8_downset_sum_lemma(full_selftest):
    s = suite(full_selftest, "downset-sum-lemma")
    ok = s.failure_count == 0 and s.checks >= 1_000_000
    assert record_criterion(
        8,
        "two downsets cover the dual exactly when their complement upsets"
        " are disjoint, for every downset pair of every staircase with at"
        f" most 10 monomials ({s.checks} pairs)",
        ok,
    )


def test_criterion_9_abelian_arena(full_selftest):
    names = (
        "abelian-index-agreement",
        "abelian-attached-bound",
        "abelian-additivity",
        "abelian-quotient-monotonicity",
        "abelian-secondary-split",
        "abelian-irreducible-classification",
    )
    suites = [suite(full_selftest, n) for n in names]
    equicardinal = all(
        sum_reducibility_index_bruteforce(g).equicardinal
        for g in abelian_group_classes(64)
    )
    ok = all(s.failure_count == 0 for s in suites) and equicardinal
    assert record_criterion(
        9,
        "for every abelian group of order <= 64: search index = factor"
        " count, all irredundant representations equicardinal, additivity"
        " over primary parts, index >= attached primes; quotient"
        " monotonicity for orders <= 32",
        ok,
    )


def test_criterion_10_documented_untested(full_selftest):
    listed = full_selftest.documented_untested
    ok = (
        listed == DOCUMENTED_UNTESTED
        and len(listed) == 2
        and all("documented, untested" in item.lower() for item in listed)
        and any("completion" in item.lower() for item in listed)
        and any("gap" in item.lower() for item in listed)
    )
    assert record_criterion(
        10,
        "the two statements with no finitely presentable witness (strict"
        " dual-index gap; index growth under completion) are listed as"
        " documented, untested",
        ok,
    )
