"""Bundled verification suites behind the `selftest` CLI command.

Each suite names one law and checks it on either a seeded random sample
or an exhaustive enumeration.  The two sides of every law are computed
by routes that share as little code as the arena allows: splitting
against socle scans, formulas against direct recomputation in the
target ring, factor counts against submodule lattices, corner counts
against cover searches.  Random suites honor the seed; exhaustive
suites ignore it.

Two statements the arenas cannot reach are listed as documented,
untested, rather than silently dropped; see DOCUMENTED_UNTESTED.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

from .abelian import (
    abelian_group_classes,
    additivity_report,
    attached_primes,
    characterization_report,
    prime_divisors,
    quotient_monotonicity_report,
    secondary_representation,
    sum_index_formula,
    sum_reducibility_index_bruteforce,
)
from .bass import bass0, reducibility_index_by_bass
from .basechange import extension_report, localization_report
from .decompose import decompose
from .gfpoly import (
    ExtField,
    PrimeField,
    UniPoly,
    factor,
    field_extension_report,
    hypersurface_index,
    hypersurface_index_bruteforce,
    irreducible_modulus,
    is_irreducible,
    monic_polys,
)
from .monomial import MonomialIdeal, RingContext
from .staircase import (
    ALL_COVERS_CAP,
    Staircase,
    irredundant_cover_sizes,
    maximal_elements,
    quotient_indices,
    sum_covers_iff_dual_disjoint,
    sum_irreducible_representation,
    DownsetSubmodule,
    dual_index_report,
)

FAILURE_SAMPLE_CAP = 5

DOCUMENTED_UNTESTED = (
    "Strict gap between the index of a module and the sum-index of its"
    " dual: the known witness is a one-dimensional local domain whose"
    " completion is not reduced (a construction of Ferrand and Raynaud),"
    " which has no finite presentation at desk scale. Documented,"
    " untested.",
    "Growth of the index when passing to the completion: the same ring is"
    " the only known witness, and every arena built here is already"
    " complete for length reasons, so completion changes nothing that can"
    " be exercised. Documented, untested.",
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    scope: str
    mode: str
    law: str
    checks: int
    failure_count: int
    failure_samples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


@dataclass(frozen=True)
class SelftestReport:
    scope: str
    seed: int
    results: tuple[SuiteResult, ...]
    documented_untested: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def total_checks(self) -> int:
        return sum(r.checks for r in self.results)


class _Recorder:
    def __init__(self):
        self.checks = 0
        self.failure_count = 0
        self.samples: list[str] = []

    def check(self, ok: bool, detail: str, *args) -> None:
        """Count one check; a failing one keeps `detail.format(*args)` as a sample.

        The text is built only for a failing check, so args are the
        objects themselves (ideals, polynomials, groups) and render then.
        """
        self.checks += 1
        if not ok:
            self.failure_count += 1
            if len(self.samples) < FAILURE_SAMPLE_CAP:
                self.samples.append(detail.format(*args))


# ------------------------------------------------------------- samplers


def random_ideal(rng: random.Random, ring: RingContext, max_exp: int, max_gens: int = 6) -> MonomialIdeal:
    """Random proper monomial ideal; may come out zero, never unit."""
    count = rng.randint(1, max_gens)
    gens = [tuple(rng.randint(0, max_exp) for _ in range(ring.n)) for _ in range(count)]
    return MonomialIdeal.of(ring, filter(any, gens))


def ideal_sample(seed: int, count: int, max_vars: int, max_exp: int) -> list[MonomialIdeal]:
    rng = random.Random(f"{seed}:ideals:{count}:{max_vars}:{max_exp}")
    rings = {n: RingContext.default(n) for n in range(1, max_vars + 1)}
    return [random_ideal(rng, rings[rng.randint(1, max_vars)], max_exp) for _ in range(count)]


def finite_colength_sample(seed: int, count: int) -> list[MonomialIdeal]:
    """Random finite-colength ideals with staircases of at most 25 monomials."""
    rng = random.Random(f"{seed}:boxes:{count}")
    rings = {n: RingContext.default(n) for n in (1, 2, 3)}
    out = []
    attempts = 0
    while len(out) < count and attempts < 40 * count:
        attempts += 1
        ring = rings[rng.randint(1, 3)]
        gens = []
        for i in range(ring.n):
            exps = [0] * ring.n
            exps[i] = rng.randint(1, 4)
            gens.append(tuple(exps))
        for _ in range(rng.randint(0, 3)):
            gens.append(tuple(rng.randint(0, 3) for _ in range(ring.n)))
        ideal = MonomialIdeal.of(ring, filter(any, gens))
        if ideal.is_unit:
            continue
        if len(ideal.standard_monomials()) <= 25:
            out.append(ideal)
    return out


def _downsets(members, max_size: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every downset of at most max_size members inside a downset of exponent vectors.

    Returns the members in sorted order and the bitmask over that order
    of each such downset, the empty one included, in increasing order.
    Lex order extends divisibility, so a member's immediate divisors
    come before it, and the members of a downset that come before any
    point form a downset too.  The members are decided in order, and a
    member joins a downset only when its immediate divisors are already
    in; every downset is built once, from its own prefixes.
    """
    order = sorted(members)
    pos = {e: i for i, e in enumerate(order)}
    preds = [
        sum(1 << pos[e[:k] + (v - 1,) + e[k + 1 :]] for k, v in enumerate(e) if v)
        for e in order
    ]
    masks = [0]
    for i, below in enumerate(preds):
        bit = 1 << i
        masks += [
            mask | bit for mask in masks if not below & ~mask and mask.bit_count() < max_size
        ]
    masks.sort()
    return order, masks


def _box_ideals() -> list[MonomialIdeal]:
    """Every proper monomial ideal in two variables with generator exponents <= 3.

    The monomials of the 4x4 exponent box outside such an ideal form a
    downset of the box, and the ideal is generated by the rest of the
    box.  The empty downset gives the unit ideal, left out; the whole
    box gives the zero ideal.
    """
    ring = RingContext.default(2)
    order, masks = _downsets(itertools.product(range(4), repeat=2), 16)
    return [
        MonomialIdeal.of(ring, (e for i, e in enumerate(order) if not mask >> i & 1))
        for mask in masks[1:]
    ]


def all_staircases(n: int, max_size: int) -> Iterator[Staircase]:
    """Every nonempty staircase on at most max_size monomials in n variables.

    A member e brings its prod(e_i + 1) divisors along, so each such
    staircase is a downset of the monomials with that product at most
    max_size.  Ordered by size, then by sorted members.  Yielded one at a
    time, so a staircase and the tables it builds are freed once the
    caller moves on.
    """
    ring = RingContext.default(n)
    box = itertools.product(range(max_size), repeat=n)
    order, masks = _downsets(
        (e for e in box if math.prod(v + 1 for v in e) <= max_size), max_size
    )
    stairs = [frozenset(e for i, e in enumerate(order) if mask >> i & 1) for mask in masks[1:]]
    stairs.sort(key=lambda s: (len(s), sorted(s)))
    return (Staircase(ring, s) for s in stairs)


# --------------------------------------------------------------- suites


def _suite_index_socle_agreement(seed: int, rec: _Recorder) -> None:
    for ideal in itertools.chain(ideal_sample(seed, 1000, 4, 5), _box_ideals()):
        a = decompose(ideal).count
        b = reducibility_index_by_bass(ideal).index
        rec.check(a == b, "{}: splitting {} vs socle sum {}", ideal, a, b)


def _suite_decomposition_uniqueness(seed: int, rec: _Recorder) -> None:
    strategies = (("first", None), ("last", None), ("random", 0), ("random", 1))
    for ideal in ideal_sample(seed, 1000, 4, 5):
        decs = [decompose(ideal, strategy=s, seed=extra) for s, extra in strategies]
        outcomes = [frozenset(dec.components) for dec in decs]
        rec.check(
            all(o == outcomes[0] for o in outcomes),
            "{}: components differ across strategies", ideal,
        )
        by_support = decs[0].counts_by_support()
        socle_counts = reducibility_index_by_bass(ideal).socle_counts
        rec.check(
            by_support == socle_counts,
            "{}: per-prime counts {} vs socle {}", ideal, by_support, socle_counts,
        )


def _suite_variable_extension(seed: int, rec: _Recorder) -> None:
    sample = ideal_sample(seed, 500, 3, 4)
    for j, ideal in enumerate(sample):
        extra = 1 + (j % 2)
        rep = extension_report(ideal, extra)
        rec.check(
            rep.passed and rep.ir_after_direct == rep.ir_before,
            "{} + {} vars: {} -> {}", ideal, extra, rep.ir_before, rep.ir_after_direct,
        )


def _suite_localization(seed: int, rec: _Recorder) -> None:
    for ideal in ideal_sample(seed, 200, 3, 4):
        n = ideal.ring.n
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                rep = localization_report(ideal, subset)
                rec.check(
                    rep.passed,
                    "{} inverting {}: formula {} vs direct {}",
                    ideal, subset, rep.ir_after_formula, rep.ir_after_direct,
                )


def _suite_factorization_soundness(seed: int, rec: _Recorder) -> None:
    def check_poly(f: UniPoly) -> None:
        fac = factor(f)
        keys = [p.sort_key() for p, _ in fac.factors]
        rec.check(
            fac.reconstruct() == f
            and len(set(keys)) == len(keys)
            and keys == sorted(keys)
            and all(is_irreducible(p) for p, _ in fac.factors),
            "{} over {}: bad factorization", f, f.field.render(),
        )

    for d in range(1, 7):
        for f in monic_polys(PrimeField(2), d):
            check_poly(f)
    for d in range(1, 5):
        for f in monic_polys(PrimeField(3), d):
            check_poly(f)
    rng = random.Random(f"{seed}:factor")
    for p, dmax, count in ((5, 4, 60), (13, 3, 40)):
        field = PrimeField(p)
        for _ in range(count):
            deg = rng.randint(1, dmax)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            check_poly(UniPoly.make(field, coeffs))


def _suite_field_extension(seed: int, rec: _Recorder) -> None:
    base = PrimeField(2)
    for k in (2, 3):
        ext = ExtField(base, irreducible_modulus(2, k))
        for d in range(1, 6):
            for f in monic_polys(base, d):
                rep = field_extension_report(f, ext)
                rec.check(
                    rep.passed,
                    "{} into GF(2^{}): {}",
                    f, k, "; ".join(name for name, ok in rep.checks if not ok),
                )


def _suite_hypersurface(seed: int, rec: _Recorder) -> None:
    for p, dmax in ((2, 6), (3, 4)):
        field = PrimeField(p)
        for d in range(1, dmax + 1):
            for f in monic_polys(field, d):
                by_factors = hypersurface_index(f)
                by_lattice = hypersurface_index_bruteforce(f)
                single = factor(f).distinct_count == 1
                rec.check(
                    by_factors == by_lattice and (by_lattice == 1) == single,
                    "{} over GF({}): factors {}, lattice {}", f, p, by_factors, by_lattice,
                )


def _dual_sample(seed: int) -> list[MonomialIdeal]:
    sample = finite_colength_sample(seed, 120)
    for ideal in _box_ideals():
        if ideal.is_finite_colength():
            if len(ideal.standard_monomials()) <= 25:
                sample.append(ideal)
    return sample


def _suite_finite_length_duality(seed: int, rec: _Recorder) -> None:
    for ideal in _dual_sample(seed):
        rep = dual_index_report(ideal)
        rec.check(
            rep.all_equal,
            "{}: splitting {}, socle {}, corners {}, cover {}",
            ideal, rep.ir_decomposition, rep.ir_socle_formula,
            rep.dual_generator_count, rep.min_cover,
        )
        soc, corners = rep.top_socle, rep.dual_generator_count
        rec.check(soc == corners, "{}: socle {} vs corners {}", ideal, soc, corners)
        one_dec, one_dual = rep.ir_decomposition == 1, corners == 1
        rec.check(
            one_dec == one_dual,
            "{}: irreducible {} vs one-generated dual {}", ideal, one_dec, one_dual,
        )


def _suite_cover_uniqueness(seed: int, rec: _Recorder) -> None:
    for ideal in _dual_sample(seed):
        g = Staircase.from_ideal(ideal)
        if g.size > ALL_COVERS_CAP:
            continue
        sizes = irredundant_cover_sizes(g)
        expected = len(maximal_elements(g))
        rec.check(sizes == {expected}, "{}: irredundant cover sizes {}", ideal, sorted(sizes))


def _suite_downset_sum(seed: int, rec: _Recorder) -> None:
    for n in (1, 2, 3):
        for g in all_staircases(n, 10):
            order, masks = _downsets(g.exponents, g.size)
            full = (1 << len(order)) - 1
            bad = 0
            pairs = 0
            for i, bm in enumerate(masks):
                nb = full ^ bm
                for cm in masks[i:]:
                    # sum side: the union of the two downsets is everything;
                    # dual side: the complement upsets (the quotient duals)
                    # meet in nothing
                    covers = (bm | cm) == full
                    duals_disjoint = (nb & (full ^ cm)) == 0
                    if covers != duals_disjoint:
                        bad += 1
                    pairs += 1
            rec.checks += pairs - 1
            rec.check(bad == 0, "staircase {}: {} mismatched pairs", order, bad)
    # set-level route on the small staircases, sharing no mask logic
    for n in (1, 2):
        for g in all_staircases(n, 6):
            members = sorted(g.exponents)
            downsets = []
            for size in range(len(members) + 1):
                for combo in itertools.combinations(members, size):
                    chosen = frozenset(combo)
                    if all(
                        m in chosen
                        for u in chosen
                        for m in members
                        if all(a <= b for a, b in zip(m, u))
                    ):
                        downsets.append(DownsetSubmodule(g, chosen))
            for b in downsets:
                for c in downsets:
                    left, right = sum_covers_iff_dual_disjoint(g, b, c)
                    rec.check(left == right, "staircase {}: set-level sum lemma mismatch", g.size)


def _suite_dual_corner_counts(seed: int, rec: _Recorder) -> None:
    for n in (1, 2, 3):
        for g in all_staircases(n, 10):
            ideal = g.ideal()
            soc, corners = bass0(ideal, range(n))[0], len(maximal_elements(g))
            rec.check(soc == corners, "{}: socle {} vs corners {}", ideal, soc, corners)
            parts, count = sum_irreducible_representation(g)
            rec.check(
                count == corners,
                "{}: representation size {} vs corners {}", ideal, count, corners,
            )
            # _downsets builds downsets only, so the masks go in unchecked
            worst = max(quotient_indices(g, _downsets(g.exponents, g.size)[1]))
            rec.check(worst <= corners, "{}: quotient index {} above {}", ideal, worst, corners)


def _suite_abelian_agreement(seed: int, rec: _Recorder) -> None:
    for group in abelian_group_classes(64):
        report = sum_reducibility_index_bruteforce(group)
        formula = sum_index_formula(group)
        rec.check(
            report.index == formula and report.equicardinal,
            "{}: search {} vs formula {}, equicardinal {}",
            group, report.index, formula, report.equicardinal,
        )


def _suite_abelian_attached_bound(seed: int, rec: _Recorder) -> None:
    for group in abelian_group_classes(64):
        if group.is_trivial:
            continue
        index = sum_reducibility_index_bruteforce(group).index
        att = attached_primes(group)
        rec.check(
            index >= len(att), "{}: index {} below attached count {}", group, index, len(att)
        )


def _suite_abelian_classification(seed: int, rec: _Recorder) -> None:
    for group in abelian_group_classes(64):
        report = characterization_report(group)
        rec.checks += report.subgroups_checked - 1 if report.subgroups_checked else 0
        rec.check(
            report.passed, "{}: {} subgroups misclassified", group, len(report.mismatches)
        )


def _suite_abelian_secondary(seed: int, rec: _Recorder) -> None:
    for group in abelian_group_classes(64):
        if group.is_trivial:
            continue
        report = secondary_representation(group)
        divisors = prime_divisors(group.order)
        rec.check(
            report.passed and report.attached == divisors, "{}: secondary split failed", group
        )


def _suite_abelian_additivity(seed: int, rec: _Recorder) -> None:
    for group in abelian_group_classes(64):
        report = additivity_report(group)
        rec.check(
            report.passed,
            "{}: whole {}, parts {}, formula {}",
            group, report.whole_index, report.part_indices, report.formula_index,
        )


def _suite_abelian_quotients(seed: int, rec: _Recorder) -> None:
    for group in abelian_group_classes(32):
        report = quotient_monotonicity_report(group)
        rec.checks += report.quotients_checked - 1 if report.quotients_checked else 0
        rec.check(
            report.passed,
            "{}: quotient index up to {} vs whole {}",
            group, report.max_quotient_index, report.whole_index,
        )


@dataclass(frozen=True)
class Suite:
    name: str
    scope: str
    mode: str
    law: str
    run: object


SUITES: tuple[Suite, ...] = (
    Suite(
        "index-socle-agreement",
        "monomial",
        "mixed",
        "the splitting count of an irredundant decomposition equals the sum"
        " of socle dimensions over all coordinate localizations",
        _suite_index_socle_agreement,
    ),
    Suite(
        "decomposition-uniqueness",
        "monomial",
        "random",
        "the irredundant decomposition is independent of splitting strategy"
        " and its per-prime multiplicities are the socle dimensions",
        _suite_decomposition_uniqueness,
    ),
    Suite(
        "variable-extension-invariance",
        "basechange",
        "random",
        "adjoining polynomial variables preserves the index, matching the"
        " fiber formula with every fiber trivial",
        _suite_variable_extension,
    ),
    Suite(
        "localization-formula",
        "basechange",
        "random",
        "inverting variables keeps exactly the surviving primes: the fiber"
        " formula matches direct recomputation, the index never grows, and"
        " it is preserved exactly when every associated prime survives",
        _suite_localization,
    ),
    Suite(
        "factorization-soundness",
        "univariate",
        "mixed",
        "trial-division factorizations reconstruct their input from distinct"
        " irreducible factors in canonical order",
        _suite_factorization_soundness,
    ),
    Suite(
        "field-extension-fibers",
        "univariate",
        "exhaustive",
        "after a finite field extension the index is the sum of the fiber"
        " indices, bounded between the old index and its multiple by the"
        " extension degree, with equality exactly when all factors stay"
        " irreducible",
        _suite_field_extension,
    ),
    Suite(
        "hypersurface-index",
        "univariate",
        "exhaustive",
        "for one-variable hypersurfaces the index is the number of distinct"
        " irreducible factors, confirmed by the submodule-lattice oracle,"
        " and equals one exactly for powers of a single irreducible",
        _suite_hypersurface,
    ),
    Suite(
        "finite-length-duality",
        "dual",
        "mixed",
        "for finite-colength ideals the splitting count, the socle sum, the"
        " staircase corner count, and the minimum principal-downset cover"
        " agree",
        _suite_finite_length_duality,
    ),
    Suite(
        "cover-uniqueness",
        "dual",
        "mixed",
        "every irredundant cover of a staircase by principal downsets has"
        " the same size",
        _suite_cover_uniqueness,
    ),
    Suite(
        "downset-sum-lemma",
        "dual",
        "exhaustive",
        "two downsets sum to the whole dual module exactly when their"
        " complement upsets are disjoint",
        _suite_downset_sum,
    ),
    Suite(
        "dual-corner-counts",
        "dual",
        "exhaustive",
        "socle dimension equals staircase corner count, the dual is"
        " one-generated exactly when zero is irreducible, and dual"
        " quotients never gain corners",
        _suite_dual_corner_counts,
    ),
    Suite(
        "abelian-index-agreement",
        "abelian",
        "exhaustive",
        "the exhaustive search index equals the cyclic-factor count for"
        " every abelian group of order at most 64, with all irredundant"
        " representations equicardinal",
        _suite_abelian_agreement,
    ),
    Suite(
        "abelian-attached-bound",
        "abelian",
        "exhaustive",
        "the index is at least the number of attached primes",
        _suite_abelian_attached_bound,
    ),
    Suite(
        "abelian-irreducible-classification",
        "abelian",
        "exhaustive",
        "a nontrivial subgroup is sum-irreducible exactly when it is cyclic"
        " of prime-power order",
        _suite_abelian_classification,
    ),
    Suite(
        "abelian-secondary-split",
        "abelian",
        "exhaustive",
        "the primary decomposition is a secondary representation: every"
        " integer acts surjectively or nilpotently on each part, and the"
        " attached primes are the primes dividing the order",
        _suite_abelian_secondary,
    ),
    Suite(
        "abelian-additivity",
        "abelian",
        "exhaustive",
        "the index of a finite abelian group is the sum of the indices of"
        " its primary parts",
        _suite_abelian_additivity,
    ),
    Suite(
        "abelian-quotient-monotonicity",
        "abelian",
        "exhaustive",
        "quotients never raise the index, and quotients of a sum-irreducible"
        " group stay sum-irreducible",
        _suite_abelian_quotients,
    ),
)

SCOPES = ("all",) + tuple(dict.fromkeys(s.scope for s in SUITES))


def run_selftest(scope: str = "all", seed: int = 0) -> SelftestReport:
    """Run the selected suites and collect one result per law."""
    names = {s.name for s in SUITES}
    if scope not in SCOPES and scope not in names:
        raise ValueError(
            f"unknown scope {scope!r}; choose one of {', '.join(SCOPES)}"
            " or a suite name"
        )
    results = []
    for suite in SUITES:
        if scope not in ("all", suite.scope, suite.name):
            continue
        rec = _Recorder()
        suite.run(seed, rec)
        results.append(
            SuiteResult(
                name=suite.name,
                scope=suite.scope,
                mode=suite.mode,
                law=suite.law,
                checks=rec.checks,
                failure_count=rec.failure_count,
                failure_samples=tuple(rec.samples),
            )
        )
    return SelftestReport(
        scope=scope,
        seed=seed,
        results=tuple(results),
        documented_untested=DOCUMENTED_UNTESTED,
    )
