"""Reducibility indices of finitely presentable modules.

Three computable arenas, each with at least two independent routes to
the same number:

- monomial ideals in a polynomial ring: splitting decompositions
  against socle-dimension scans (`decompose`, `bass`), with flat base
  change reports (`basechange`);
- univariate polynomials over small finite fields: factor counts
  against submodule lattices, and index bookkeeping under finite field
  extensions (`gfpoly`);
- finite-colength duality through staircases (`staircase`) and finite
  abelian groups as Artinian modules over the integers (`abelian`).

`textio` holds the input grammars, `selftest` the bundled law suites,
`cli` the command-line front end.

`import redix` runs no submodule, and this module alone decides what
loads lazily.  It registers every arena in `sys.modules` through
`importlib.util.LazyLoader`, so an arena's code runs at its first
attribute read, and binds each on the package except `decompose`,
which stays the function: the import system binds a submodule on its
package only when it first loads it, and every arena is in
`sys.modules` before any import runs.  `cli` and `errors` load as
usual.

The package exports exactly the names README's Library example
imports, each resolved from its defining submodule on first use; every
other name is imported from its module.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# defining submodule -> the names the package exports from it
_EXPORTS = {
    "monomial": ("MonomialIdeal", "RingContext"),
    "decompose": ("decompose",),
    "bass": ("reducibility_index_by_bass",),
    "staircase": ("Staircase", "dual_index_report"),
    "abelian": ("FiniteAbelianGroup", "sum_index_formula", "sum_reducibility_index_bruteforce"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        # not an export: `from redix import cli` then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


for _name in (
    "abelian", "basechange", "bass", "census", "decompose",
    "gfpoly", "monomial", "selftest", "staircase", "textio",
):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    if _name != "decompose":
        globals()[_name] = _module
del _name, _spec, _module
