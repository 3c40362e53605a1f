"""Selftest failure texts: built only for failing checks, exact when built."""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from redix import selftest
from redix.monomial import MonomialIdeal
from redix.selftest import run_selftest


def only(report):
    (result,) = report.results
    return result


def test_passing_checks_render_no_ideal(monkeypatch):
    calls = []
    render = MonomialIdeal.render
    monkeypatch.setattr(MonomialIdeal, "render", lambda self: calls.append(self) or render(self))
    result = only(run_selftest(scope="index-socle-agreement", seed=42))
    assert (result.checks, result.failure_count) == (1069, 0)
    assert calls == []


def plant_index_socle(monkeypatch):
    decompose = selftest.decompose
    monkeypatch.setattr(
        selftest, "decompose", lambda ideal: SimpleNamespace(count=decompose(ideal).count + 1)
    )


def plant_hypersurface(monkeypatch):
    by_factors = selftest.hypersurface_index
    monkeypatch.setattr(selftest, "hypersurface_index", lambda f: by_factors(f) + 1)


def plant_duality(monkeypatch):
    report = selftest.dual_index_report

    def off_by_one(ideal):
        rep = report(ideal)
        return dataclasses.replace(rep, ir_decomposition=rep.ir_decomposition + 1)

    monkeypatch.setattr(selftest, "dual_index_report", off_by_one)


def plant_corners(monkeypatch):
    bass0 = selftest.bass0

    def shifted(ideal, support):
        # the right count, every witness moved up by the first variable
        count, witnesses = bass0(ideal, support)
        return count, tuple((w[0] + 1,) + w[1:] for w in witnesses)

    monkeypatch.setattr(selftest, "bass0", shifted)


def plant_quotients(monkeypatch):
    report = selftest.quotient_monotonicity_report

    def above_whole(group):
        rep = report(group)
        return dataclasses.replace(rep, max_quotient_index=rep.whole_index + 1)

    monkeypatch.setattr(selftest, "quotient_monotonicity_report", above_whole)


@pytest.mark.parametrize(
    "plant, suite, counts, samples",
    [
        (
            plant_index_socle,
            "index-socle-agreement",
            (1069, 1069),
            (
                "x^5*z^2*w, x^2*y^2*z, x*y^4*z^4*w^2, x*y^3*z^3*w^3: splitting 11 vs socle sum 10",
                "x^5*y^2, y^3: splitting 3 vs socle sum 2",
                "x^5: splitting 2 vs socle sum 1",
                "x^2*y^4: splitting 3 vs socle sum 2",
                "x^3: splitting 2 vs socle sum 1",
            ),
        ),
        (
            plant_hypersurface,
            "hypersurface-index",
            (246, 246),
            (
                "x over GF(2): factors 2, lattice 1",
                "x+1 over GF(2): factors 2, lattice 1",
                "x^2 over GF(2): factors 2, lattice 1",
                "x^2+x over GF(2): factors 3, lattice 2",
                "x^2+1 over GF(2): factors 2, lattice 1",
            ),
        ),
        (
            plant_duality,
            "finite-length-duality",
            (417, 259),
            (
                "x: splitting 2, socle 1, corners 1, cover 1",
                "x: irreducible False vs one-generated dual True",
                "x^2, y, z^2: splitting 2, socle 1, corners 1, cover 1",
                "x^2, y, z^2: irreducible False vs one-generated dual True",
                "x^2, y^4, z^2: splitting 2, socle 1, corners 1, cover 1",
            ),
        ),
        (
            plant_corners,
            "dual-corner-counts",
            (3813, 1271),
            (
                "x: socle witnesses ((1,),) vs corners ((0,),)",
                "x^2: socle witnesses ((2,),) vs corners ((1,),)",
                "x^3: socle witnesses ((3,),) vs corners ((2,),)",
                "x^4: socle witnesses ((4,),) vs corners ((3,),)",
                "x^5: socle witnesses ((5,),) vs corners ((4,),)",
            ),
        ),
        (
            plant_quotients,
            "abelian-quotient-monotonicity",
            (1030, 55),
            (
                "0: quotient index up to 1 vs whole 0",
                "Z/2: quotient index up to 2 vs whole 1",
                "Z/3: quotient index up to 2 vs whole 1",
                "Z/4: quotient index up to 2 vs whole 1",
                "Z/2 + Z/2: quotient index up to 3 vs whole 2",
            ),
        ),
    ],
    ids=["monomial", "univariate", "dual", "corners", "abelian"],
)
def test_planted_failure_keeps_its_text(monkeypatch, plant, suite, counts, samples):
    plant(monkeypatch)
    result = only(run_selftest(scope=suite, seed=42))
    assert (result.checks, result.failure_count) == counts
    assert result.failure_samples == samples


def test_suite_counts_match_the_benchmark_corpus(full_selftest):
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.json"
    pinned = json.loads(corpus.read_text())["selftest"]
    assert [(r.name, r.checks, r.failure_count) for r in full_selftest.results] == [
        (suite["name"], suite["checks_at_42"], 0) for suite in pinned
    ]
