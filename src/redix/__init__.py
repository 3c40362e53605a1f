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

`import redix` loads no submodule: each exported name is resolved from
its defining submodule on first use, so a caller pays only for the
arenas it touches.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

# defining submodule -> the names the package exports from it
_EXPORTS = {
    "errors": (
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
    ),
    "monomial": ("Monomial", "MonomialIdeal", "RingContext"),
    "decompose": (
        "Decomposition",
        "IrreducibleComponent",
        "decompose",
        "irredundant",
        "reducibility_index_by_decomposition",
        "split_decompose",
    ),
    "bass": (
        "BassReport",
        "MonomialPrime",
        "ass_by_colon_scan",
        "bass0",
        "reducibility_index_by_bass",
    ),
    "basechange": (
        "BaseChangeReport",
        "PrimeFiber",
        "extension_report",
        "localization_report",
    ),
    "gfpoly": (
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
    ),
    "staircase": (
        "DownsetSubmodule",
        "DualIndexReport",
        "Staircase",
        "dual_index_report",
        "dual_single_generator_check",
        "maximal_elements",
        "min_cover_oracle",
        "principal_downset",
        "quotient_index",
        "socle_matches_dual_generators",
        "sum_covers_iff_dual_disjoint",
        "sum_irreducible_representation",
    ),
    "abelian": (
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
    ),
    "textio": (
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
    ),
    "selftest": ("SUITES", "SelftestReport", "SuiteResult", "run_selftest"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        # not an export: `from redix import gfpoly` then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """Keeps `redix.decompose` the function once its submodule loads.

    Importing a submodule binds it on the package under its own name,
    after which `__getattr__` is no longer consulted for that name; the
    submodule `decompose` shares its name with the function it defines,
    so that binding is skipped and `__getattr__` resolves the function.
    Reading the function off the module here instead would run a module
    that was registered to load lazily.
    """

    def __setattr__(self, name, value):
        if name == "decompose" and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
