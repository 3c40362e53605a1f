"""What a cold process loads: the package's lazy exports and each command's modules.

The exports are the names README's Library example imports; that
example is the only list of them.  Every check of what loads runs in a
fresh interpreter, since this process has long since imported every
submodule.  The package also keeps no public name that nothing reads:
every public function, class and method has a reader in `src` or in
that example, apart from the names the benchmark wraps.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import redix

SRC = str(Path(redix.__file__).resolve().parents[1])

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under README's Library heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def documented_exports() -> list[str]:
    """The names README's Library example imports from the package."""
    (imports,) = [
        node
        for node in ast.parse(library_example()).body
        if isinstance(node, ast.ImportFrom) and node.module == "redix"
    ]
    return sorted(alias.name for alias in imports.names)


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


def test_exports_are_the_documented_names():
    assert sorted(redix.__all__) == documented_exports()
    assert set(redix.__all__) <= set(dir(redix))


def test_every_export_is_its_defining_object():
    script = """
import importlib, json, sys
import redix
out = []
for name in json.loads(sys.argv[1]):
    value = getattr(__import__("redix", fromlist=[name]), name)  # from redix import name
    module = "redix." + redix._SOURCE[name]
    defined = getattr(importlib.import_module(module), name)
    out.append([name, value is defined and value.__module__ == module])
print(json.dumps(out))
"""
    results = fresh(script, json.dumps(documented_exports()))
    assert [name for name, same in results if not same] == []


def test_readme_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})


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


# public names no route in src reads, each kept because perfbench/spans.py
# wraps it by name (as the span given here): deleting one breaks the
# traced benchmark run
UNREACHED_BUT_WRAPPED = {
    "irredundant": "decompose.irredundant",
    "MonomialIdeal.colon": "monomial.colon",
    "parse_field_spec": "textio.parse",
}


def identifiers(tree) -> set[str]:
    """Every name and attribute a syntax tree reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_public_name_has_a_reader_in_src_or_the_library_example():
    # matching is by identifier, so a dead name that shares its identifier
    # with a live one (a method `add` beside a field's `add`) goes unseen
    read = set()
    defined = []  # (qualified name, identifier)
    for path in sorted(Path(SRC, "redix").glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= identifiers(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    read |= identifiers(ast.parse(library_example())) | set(documented_exports())
    unread = sorted(name for name, ident in defined if ident not in read)
    assert unread == sorted(UNREACHED_BUT_WRAPPED)


def test_each_unread_name_is_one_the_benchmark_wraps():
    spans = ast.parse((README.parent / "perfbench" / "spans.py").read_text())
    (targets,) = [
        node.value
        for node in spans.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]
    ]
    wrapped = {attr: span for span, _, attr in ast.literal_eval(targets)}
    assert {name: wrapped.get(name) for name in UNREACHED_BUT_WRAPPED} == UNREACHED_BUT_WRAPPED


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        redix.no_such_export
    with pytest.raises(ImportError):
        from redix import no_such_export  # noqa: F401
    # a name outside the documented API is imported from its module only
    with pytest.raises(AttributeError):
        redix.bass0
    with pytest.raises(ImportError):
        from redix import parse_ideal_text  # noqa: F401
