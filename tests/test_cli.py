"""CLI plumbing: exit codes, determinism, canonical echoes, formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import redix
from redix.bass import BassReport, reducibility_index_by_bass
from redix.cli import main
from redix.errors import shown
from redix.selftest import SelftestReport, SuiteResult
from redix.textio import parse_ideal_text, render_ideal_text

IDEAL = "ring: x, y\nideal: x^2, x*y, y^3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_human(capsys):
    code, out, err = run(capsys, "decompose", IDEAL)
    assert code == 0
    assert "ir = 2" in out
    assert "(x, y^3)" in out and "(x^2, y)" in out
    assert "verdict: pass" in out
    assert err == ""


def test_decompose_json_round_trip(capsys):
    code, out, _ = run(capsys, "decompose", IDEAL, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "0.1.0"
    assert doc["command"] == "decompose"
    assert doc["timing"] is None
    echoed = doc["inputs"]["ideal"]
    again = parse_ideal_text(echoed)
    assert render_ideal_text(again) == echoed
    assert doc["results"]["ir"] == 2
    assert doc["results"]["verdict"] is True


def test_reports_are_byte_identical(capsys):
    requests = [
        ["decompose", IDEAL],
        ["basechange", "ideal: x^2, x*y", "extend:1"],
        ["basechange", "ideal: x^2, x*y", "invert:y"],
        ["basechange", "f: x^2+x+1 over GF(2)", "field:->GF(4)"],
        ["dual", IDEAL],
        ["abelian", "group: Z/2 + Z/4"],
    ]
    for argv in requests:
        _, first, _ = run(capsys, *argv, "--format", "json", "--seed", "9")
        _, second, _ = run(capsys, *argv, "--format", "json", "--seed", "9")
        assert json.loads(first)["command"] == argv[0]
        assert first == second, argv


def run_module(*argv, timeout=30):
    """`python -m redix.cli ARGV` in a child process; a hang fails the test."""
    src = str(Path(redix.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-m", "redix.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_module_entry_point_returns_exit_code():
    proc = run_module("abelian", "group: Z/128")
    assert proc.returncode == 3
    assert "size cap" in proc.stderr


def test_huge_cyclic_order_is_refused_before_factoring():
    proc = run_module("abelian", "group: Z/1000000000000000000000000000057")
    assert proc.returncode == 3
    assert proc.stderr.startswith("size cap")


@pytest.mark.parametrize("target, code", [("GF(169)", 0), ("GF(2197)", 3)])
def test_quartic_over_gf13_answers_or_refuses_by_trial_divisors(target, code):
    # over GF(169) trial division needs 169 + 169^2 = 28,730 divisors; over
    # GF(2197) it would need 4,829,006, past the cap, and is refused unfactored
    proc = run_module("basechange", "f: x^4+x^3+1 over GF(13)", f"field:->{target}", timeout=60)
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("size cap")


def test_decompose_time_does_not_grow_with_exponents():
    # both scans walk the generators' breakpoints, not the exponent box
    proc = run_module(
        "decompose", "ideal: x^1000000*y, x*y^1000000", "--format", "json"
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["ir"] == 3 and results["verdict"] is True


@pytest.mark.parametrize(
    "target, code", [("GF(0)", 2), ("GF(1)", 2), ("GF(1162261467)", 3)]
)
def test_field_specs_are_refused_promptly(target, code):
    proc = run_module("basechange", "f: x^2+x+1 over GF(2)", f"field:->{target}")
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("size cap" if code == 3 else "input error")


def test_decompose_prime_check_reads_socle_scan(capsys, monkeypatch):
    def drop_first_prime(ideal):
        report = reducibility_index_by_bass(ideal)
        return BassReport(report.ideal, report.entries[1:], report.index)

    monkeypatch.setattr("redix.bass.reducibility_index_by_bass", drop_first_prime)
    # (x^2, x*y) has primes (x) and (x, y); the socle side now lacks (x)
    code, out, _ = run(capsys, "decompose", "ideal: x^2, x*y", "--format", "json")
    checks = dict(json.loads(out)["results"]["checks"])
    assert checks["associated primes agree across socle scan and colon scan"] is False
    assert code == 1


def test_timing_flag_adds_elapsed(capsys):
    _, out, _ = run(capsys, "decompose", IDEAL, "--format", "json", "--timing")
    assert json.loads(out)["timing"] is not None


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(IDEAL))
    code, out, _ = run(capsys, "decompose", "-")
    assert code == 0 and "ir = 2" in out


def test_unit_ideal_is_input_error(capsys):
    code, out, err = run(capsys, "decompose", "ideal: 1")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("command", ["decompose", "dual"])
def test_ideal_with_no_variables_is_input_error(capsys, command):
    code, out, err = run(capsys, command, "")
    assert code == 2 and out == ""
    assert err.startswith("input error: the ideal names no variable")
    assert "(line 1, column 1)" in err


def test_parse_error_position(capsys):
    code, _, err = run(capsys, "decompose", "ideal: x^^2")
    assert code == 2
    assert "column" in err


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["decompose", "ideal: x^²"], "input error: expected an exponent, got '²' (line 1, column 10)\n"),
        (["abelian", "group: Z/²"], "input error: expected a cyclic order, got '²' (line 1, column 10)\n"),
    ],
    ids=["decompose", "abelian"],
)
def test_superscript_digit_is_a_positioned_parse_error(capsys, argv, stderr):
    # '²' passes str.isdigit but neither \d+ nor int(): it is a symbol token
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", stderr)


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (
            ["basechange", "f: x^2+1 over GF(4)=s^2+s", "field:->GF(16)"],
            "input error: modulus s^2+s is not irreducible (line 1, column 18)\n",
        ),
        (
            ["basechange", "f: x^2+1 over GF(2)", "field:->GF(4)=t^2+t"],
            "input error: modulus t^2+t is not irreducible (line 1, column 4)\n",
        ),
    ],
    ids=["polynomial", "descriptor"],
)
def test_reducible_modulus_is_named_in_its_variable(capsys, argv, stderr):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", stderr)


def test_over_long_digit_run_is_a_positioned_parse_error(capsys):
    # refused before int() sees it, whatever Python's int-string limit
    code, out, err = run(capsys, "decompose", f"ideal: x^{'9' * 5000}")
    assert (code, out) == (2, "")
    assert err == "input error: 5000-digit number exceeds 4300 digits (line 1, column 10)\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int-string limit"
)
def test_over_long_digit_run_under_a_lower_int_string_limit(monkeypatch):
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "1000")
    proc = run_module("decompose", f"ideal: x^{'9' * 2000}")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "input error: 2000-digit number exceeds 1000 digits (line 1, column 10)\n"


def test_longest_extend_count_is_refused_promptly():
    proc = run_module("basechange", "ideal: x", f"extend:{'9' * 4300}", timeout=10)
    assert (proc.returncode, proc.stderr) == (3, "size cap: extend count exceeds cap 1000\n")


NINES = "9" * 4300


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("abelian", f"group: Z/{NINES} + Z/{NINES}"),
            "group order 10^40 or more exceeds the hard ceiling 64",
        ),
        (("decompose", f"ideal: x^{NINES}*x^{NINES}"), "exponent 10^40 or more exceeds cap 1000000"),
        (
            ("dual", "ideal: " + ", ".join(f"x_{i}^999999" for i in range(800))),
            "staircase box of 10^40 or more points exceeds cap 100000",
        ),
    ],
)
def test_over_long_capped_values_are_named_by_size(capsys, argv, message):
    # each value is past Python's int-string limit, so printing it would fail
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"size cap: {message}\n")


def test_shown_values_switch_to_a_size_at_forty_digits():
    assert shown(10**40 - 1) == "9" * 40
    assert shown(10**40) == "10^40 or more"


def test_dual_infinite_colength(capsys):
    code, _, err = run(capsys, "dual", "ring: x, y\nideal: x^2")
    assert code == 2
    assert "colength" in err


def test_dual_grid_and_indices(capsys):
    code, out, _ = run(capsys, "dual", IDEAL)
    assert code == 0
    assert "ir' = 2" in out
    assert "staircase grid" in out
    assert "min cover: 2" in out


def test_dual_builds_staircase_and_corners_once(capsys, monkeypatch):
    import redix.staircase as staircase

    built, corners = [], []
    from_ideal, maximal = staircase.Staircase.from_ideal, staircase.maximal_elements
    monkeypatch.setattr(
        staircase.Staircase,
        "from_ideal",
        staticmethod(lambda ideal: built.append(ideal) or from_ideal(ideal)),
    )
    monkeypatch.setattr(
        staircase, "maximal_elements", lambda g: corners.append(g) or maximal(g)
    )
    code, out, _ = run(capsys, "dual", IDEAL, "--format", "json")
    assert code == 0
    assert (len(built), len(corners)) == (1, 1)
    assert json.loads(out)["results"]["maximal_exponents"] == [[0, 2], [1, 0]]


def test_basechange_extend(capsys):
    code, out, _ = run(capsys, "basechange", "ideal: x^2, x*y", "extend:1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ir_before"] == 2
    assert doc["results"]["ir_after_direct"] == 2
    assert doc["results"]["verdict"] is True
    assert doc["inputs"]["change"] == "extend:1"


def test_basechange_invert(capsys):
    code, out, _ = run(capsys, "basechange", "ideal: x^2, x*y", "invert:y", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["ir_before"] == 2
    assert doc["results"]["ir_after_direct"] == 1


def test_basechange_field(capsys):
    code, out, _ = run(
        capsys, "basechange", "f: x^2+x+1 over GF(2)", "field:->GF(4)", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["ir_before"] == 1
    assert doc["results"]["ir_after_direct"] == 2
    assert doc["inputs"]["polynomial"] == "f: x^2+x+1 over GF(2)"


def test_basechange_field_mismatch(capsys):
    code, _, err = run(
        capsys, "basechange", "f: x^2+x+1 over GF(3)", "field:GF(2)->GF(4)"
    )
    assert code == 2


def test_basechange_unknown_variable(capsys):
    code, _, err = run(capsys, "basechange", "ideal: x^2", "invert:q")
    assert code == 2
    assert "q" in err


def test_abelian_report(capsys):
    code, out, _ = run(capsys, "abelian", "group: Z/4 + Z/9", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["attached_primes"] == [2, 3]
    assert doc["results"]["ir_prime_formula"] == 2
    assert doc["results"]["bruteforce"]["index"] == 2
    assert doc["results"]["verdict"] is True
    assert doc["inputs"]["group"] == "group: Z/4 + Z/9"


def test_abelian_attached_prime_check_can_fail(capsys, monkeypatch):
    # a claimed prime that does not divide the order must not pass as attached
    from redix.abelian import FiniteAbelianGroup, secondary_representation

    monkeypatch.setattr(FiniteAbelianGroup, "primes", property(lambda self: (2, 3, 5)))
    # the report is cached per group: neither read a stale one nor leave a bogus one
    secondary_representation.cache_clear()
    try:
        code, out, _ = run(capsys, "abelian", "group: Z/4 + Z/3", "--format", "json")
    finally:
        secondary_representation.cache_clear()
    checks = dict(json.loads(out)["results"]["checks"])
    assert checks["attached primes are the primes dividing the order"] is False
    assert code == 1


def test_dual_box_cap(capsys):
    code, _, err = run(capsys, "dual", "ideal: x^100, y^100, z^100")
    assert code == 3
    assert "size cap" in err


def test_abelian_order_cap(capsys):
    code, _, err = run(capsys, "abelian", "group: Z/128")
    assert code == 3
    assert "size cap" in err


def test_abelian_max_order_skips_bruteforce(capsys):
    code, out, _ = run(
        capsys, "abelian", "group: Z/32 + Z/2", "--max-order", "16", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["bruteforce"] is None
    assert doc["results"]["ir_prime_formula"] == 2


def test_abelian_max_order_ceiling(capsys):
    for max_order in ("100", "-1"):
        code, _, err = run(capsys, "abelian", "group: Z/4", "--max-order", max_order)
        assert code == 2, max_order
        assert err.startswith("input error"), max_order


def test_selftest_scope(capsys):
    code, out, _ = run(capsys, "selftest", "--scope", "univariate", "--seed", "1")
    assert code == 0
    assert "factorization-soundness" in out
    assert "documented, untested" in out.lower()


def test_selftest_unknown_scope(capsys):
    code, _, err = run(capsys, "selftest", "--scope", "nonsense")
    assert code == 2


def test_selftest_failure_exit_code(capsys, monkeypatch):
    failing = SelftestReport(
        scope="all",
        seed=0,
        results=(
            SuiteResult(
                name="stub",
                scope="monomial",
                mode="random",
                law="stub law",
                checks=1,
                failure_count=1,
                failure_samples=("boom",),
            ),
        ),
        documented_untested=(),
    )
    monkeypatch.setattr("redix.selftest.run_selftest", lambda scope, seed: failing)
    code, out, err = run(capsys, "selftest")
    assert code == 1
    assert "FAIL" in out


def test_human_output_echoes_canonical_input(capsys):
    _, out, _ = run(capsys, "decompose", "ideal: y^3, x^2, x*y")
    assert "ring: x, y" in out
    assert "ideal: x^2, x*y, y^3" in out


# ------------------------------------------------ property: no command crashes

# no leading "-": argparse would read it as an option, and "-" means stdin
_GARBAGE = st.text(alphabet="xyzft0123456789^*+-,:;/()= GFZ", max_size=24).filter(
    lambda t: not t.startswith("-")
)


@st.composite
def _ideal_texts(draw):
    if draw(st.booleans()):
        return draw(_GARBAGE)
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=4))
    if draw(st.booleans()):  # pure powers make the colength finite
        gens += [(draw(st.integers(1, 4)), 0, 0), (0, draw(st.integers(1, 4)), 0)]
        gens += [(0, 0, draw(st.integers(1, 4)))]
    words = [
        "*".join(f"{v}^{e}" for v, e in zip("xyz", g) if e) or "1" for g in gens
    ]
    return "ideal: " + ", ".join(words)


@st.composite
def _field_specs(draw, p=None):
    if p is not None and draw(st.booleans()):
        return f"GF({p ** draw(st.integers(1, 6 if p == 2 else 2))})"
    return f"GF({draw(st.integers(0, 64))})"


@st.composite
def _poly_changes(draw):
    """A polynomial and a field change, over a usable prime field half the time."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    field = draw(st.one_of(st.just(f"GF({p})"), _field_specs()))
    terms = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), max_size=4))
    body = "+".join(f"{c}*x^{k}" for c, k in terms) or "0"
    source = draw(st.one_of(st.just(""), _field_specs(p)))
    return [f"f: {body} over {field}", f"field:{source}->{draw(_field_specs(p))}"]


@st.composite
def _ideal_changes(draw):
    if draw(st.booleans()):
        change = f"extend:{draw(st.integers(0, 3))}"
    else:
        change = "invert:" + ",".join(draw(st.lists(st.sampled_from("xyzw"), max_size=3)))
    return [draw(_ideal_texts()), draw(st.one_of(st.just(change), _GARBAGE))]


@st.composite
def _cli_requests(draw):
    command = draw(st.sampled_from(("decompose", "dual", "basechange", "abelian", "selftest")))
    argv = [command, "--format", draw(st.sampled_from(("human", "json")))]
    if command in ("decompose", "dual"):
        argv.append(draw(_ideal_texts()))
    elif command == "basechange":
        argv += draw(st.one_of(_ideal_changes(), _poly_changes()))
    elif command == "abelian":
        orders = draw(st.lists(st.integers(0, 20), min_size=1, max_size=3))
        text = "group: " + " + ".join(f"Z/{n}" for n in orders)
        argv += [draw(st.one_of(st.just(text), _GARBAGE))]
        argv += ["--max-order", str(draw(st.integers(0, 16)))]
    else:
        # exhaustive suites are too slow to fuzz; every drawn scope is unknown
        argv.append("--scope=" + draw(st.text(alphabet="0123456789+ ", max_size=6)))
    return argv


@settings(max_examples=150, deadline=None)
@given(_cli_requests())
def test_every_command_answers_or_refuses(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
