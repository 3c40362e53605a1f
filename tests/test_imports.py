"""What a cold process loads: the package's lazy exports and each command's modules.

Every check runs in a fresh interpreter, since this process has long
since imported every submodule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import redix

SRC = str(Path(redix.__file__).resolve().parents[1])

# the names `import redix` exported when every submodule was imported eagerly
EXPORTS = {
    "errors": [
        "DimensionMismatchError",
        "EmptyStaircaseError",
        "InfiniteColengthError",
        "InvalidCandidatesError",
        "NotInStaircaseError",
        "ParseError",
        "RedixError",
        "SizeCapError",
        "TrivialGroupError",
        "UnitIdealError",
        "VerificationError",
    ],
    "monomial": ["Monomial", "MonomialIdeal", "RingContext"],
    "decompose": [
        "Decomposition",
        "IrreducibleComponent",
        "decompose",
        "irredundant",
        "split_decompose",
    ],
    "bass": ["BassReport", "MonomialPrime", "ass_by_colon_scan", "bass0", "reducibility_index_by_bass"],
    "basechange": ["BaseChangeReport", "PrimeFiber", "extension_report", "localization_report"],
    "gfpoly": [
        "ExtField",
        "Factorization",
        "PrimeField",
        "UniPoly",
        "factor",
        "field_extension_report",
        "hypersurface_index",
        "hypersurface_index_bruteforce",
        "irreducible_modulus",
        "is_irreducible",
        "monic_polys",
    ],
    "staircase": [
        "DownsetSubmodule",
        "DualIndexReport",
        "Staircase",
        "dual_index_report",
        "maximal_elements",
        "min_cover_oracle",
        "principal_downset",
        "quotient_index",
        "sum_covers_iff_dual_disjoint",
        "sum_irreducible_representation",
    ],
    "abelian": [
        "AdditivityReport",
        "FiniteAbelianGroup",
        "SecondaryReport",
        "Subgroup",
        "SumIndexReport",
        "abelian_group_classes",
        "additivity_report",
        "attached_primes",
        "characterization_report",
        "quotient_group",
        "quotient_monotonicity_report",
        "secondary_representation",
        "subgroup_lattice",
        "sum_index_formula",
        "sum_reducibility_index_bruteforce",
    ],
    "textio": [
        "parse_change_descriptor",
        "parse_field_spec",
        "parse_group_text",
        "parse_ideal_text",
        "parse_poly_text",
        "render_change_descriptor",
        "render_field_spec",
        "render_group_text",
        "render_ideal_text",
        "render_poly_text",
    ],
    "selftest": ["SUITES", "SelftestReport", "SuiteResult", "run_selftest"],
}

ARENAS = (
    "redix.abelian",
    "redix.basechange",
    "redix.bass",
    "redix.census",
    "redix.decompose",
    "redix.gfpoly",
    "redix.monomial",
    "redix.selftest",
    "redix.staircase",
    "redix.textio",
)

# print the exit code of main(ARGV) (no call for an empty ARGV), the redix
# modules whose code has run and those registered in sys.modules; a module
# registered to load lazily keeps a ModuleType subclass until it runs
AFTER_MAIN = """
import contextlib, io, json, sys
from types import ModuleType
from redix.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
registered = {n: m for n, m in sys.modules.items() if n.startswith("redix.")}
run = sorted(n for n, m in registered.items() if type(m) is ModuleType)
print(json.dumps([code, run, sorted(registered)]))
"""


def fresh(script: str, *args: str):
    """Run `script` in a new interpreter on these sources; its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv, absent",
    [
        ([], ARENAS),
        (
            ["decompose", "ideal: x^2, x*y"],
            ("redix.selftest", "redix.abelian", "redix.gfpoly", "redix.staircase", "redix.census"),
        ),
        (
            ["abelian", "group: Z/4 + Z/2"],
            ("redix.gfpoly", "redix.selftest", "redix.bass", "redix.monomial"),
        ),
        (
            ["basechange", "f: x^2+x+1 over GF(2)", "field:->GF(4)"],
            (
                "redix.abelian",
                "redix.selftest",
                "redix.bass",
                "redix.decompose",
                "redix.monomial",
            ),
        ),
    ],
)
def test_command_loads_only_its_arena(argv, absent):
    code, run, _ = fresh(AFTER_MAIN, json.dumps(argv))
    assert code == 0
    assert not set(absent) & set(run), run


def test_cli_registers_every_arena_it_reads():
    # tools that walk the loaded redix.* modules (perfbench's tracer) see
    # each arena from `import redix` on, before any of its code runs
    _, run, registered = fresh(AFTER_MAIN, "[]")
    assert run == ["redix.cli", "redix.errors"]
    assert set(ARENAS) - set(registered) == set()
    # registered arenas are bound on the package as an import binds them
    script = """
import json
import redix.cli
import redix.bass
print(json.dumps([redix.bass.bass0.__module__, type(redix.decompose).__name__]))
"""
    assert fresh(script) == ["redix.bass", "function"]


def test_every_export_is_its_defining_object():
    script = """
import importlib, json, sys
out = []
for module, names in json.loads(sys.argv[1]).items():
    for name in names:
        value = getattr(__import__("redix", fromlist=[name]), name)  # from redix import name
        out.append([name, value is getattr(importlib.import_module("redix." + module), name)])
print(json.dumps(out))
"""
    results = fresh(script, json.dumps(EXPORTS))
    assert [name for name, same in results if not same] == []
    assert sorted(redix.__all__) == sorted(name for name, _ in results)
    assert set(redix.__all__) <= set(dir(redix))


def test_decompose_stays_the_function_after_its_module_loads():
    script = """
import json, sys
import redix.decompose
from redix import decompose
import redix
module = sys.modules["redix.decompose"]
print(json.dumps([decompose is module.decompose, redix.decompose is module.decompose]))
"""
    assert fresh(script) == [True, True]


def test_version_loads_no_submodule():
    # `import redix` runs no submodule but registers every arena, bound
    # on the package except `decompose`, which stays the function
    script = """
import json, sys
from types import ModuleType
import redix
registered = {n: m for n, m in sys.modules.items() if n.startswith("redix.")}
run = sorted(n for n, m in registered.items() if type(m) is ModuleType)
unbound = [n for n, m in registered.items() if n != "redix.decompose" and getattr(redix, n[6:]) is not m]
print(json.dumps([redix.__version__, run, sorted(registered), unbound]))
"""
    version, run, registered, unbound = fresh(script)
    assert version == redix.__version__
    assert run == []
    assert registered == sorted(ARENAS)
    assert unbound == []


def test_cli_runs_as_a_module_without_warnings():
    # a `redix.cli` registered before runpy executes it would warn on stderr
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "redix.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        redix.no_such_export
    with pytest.raises(ImportError):
        from redix import no_such_export  # noqa: F401
