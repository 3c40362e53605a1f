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
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    EmptyStaircaseError,
    InfiniteColengthError,
    InvalidCandidatesError,
    NotInStaircaseError,
    ParseError,
    RedixError,
    SizeCapError,
    TrivialGroupError,
    UnitIdealError,
    VerificationError,
)
from .monomial import Monomial, MonomialIdeal, RingContext
from .decompose import (
    Decomposition,
    IrreducibleComponent,
    decompose,
    irredundant,
    reducibility_index_by_decomposition,
    split_decompose,
)
from .bass import (
    BassReport,
    MonomialPrime,
    ass_by_colon_scan,
    bass0,
    reducibility_index_by_bass,
)
from .basechange import (
    BaseChangeReport,
    PrimeFiber,
    extension_report,
    localization_report,
)
from .gfpoly import (
    ExtField,
    Factorization,
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
from .staircase import (
    DownsetSubmodule,
    DualIndexReport,
    Staircase,
    dual_index_report,
    dual_single_generator_check,
    maximal_elements,
    min_cover_oracle,
    principal_downset,
    quotient_index,
    socle_matches_dual_generators,
    sum_covers_iff_dual_disjoint,
    sum_irreducible_representation,
)
from .abelian import (
    AdditivityReport,
    FiniteAbelianGroup,
    SecondaryReport,
    Subgroup,
    SumIndexReport,
    abelian_group_classes,
    additivity_report,
    attached_primes,
    characterization_report,
    quotient_group,
    quotient_monotonicity_report,
    secondary_representation,
    subgroup_lattice,
    sum_index_formula,
    sum_reducibility_index_bruteforce,
)
from .textio import (
    parse_change_descriptor,
    parse_field_spec,
    parse_group_text,
    parse_ideal_text,
    parse_poly_text,
    render_change_descriptor,
    render_field_spec,
    render_group_text,
    render_ideal_text,
    render_poly_text,
)
from .selftest import SUITES, SelftestReport, SuiteResult, run_selftest
