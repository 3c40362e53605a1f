"""Behavior of the reducibility index under flat ring maps, monomial arena.

Two maps are computable here: adjoining polynomial variables (faithfully
flat) and inverting a set of variables (flat, usually not faithfully
flat).  For both, the index after the map is predicted from data before
the map: sum over the associated primes p of mu0(p) times the index of
the fiber ring at p.  The report recomputes the index directly in the
target ring and compares, so the prediction and the recomputation stay
independent routes.

Fibers are computed, not assumed: the fiber at p under a polynomial
extension is the extended prime, whose index comes out of the splitting
decomposition; under localization a surviving prime keeps a domain
fiber (index 1) and a prime meeting the inverted set collapses to the
zero ring (index 0).

The selftest asks for a localization report on every subset of an
ideal's variables in a row, so both reports reuse the socle scan of the
ideal from the call before (`_socle_report`).

Adjoining variables changes no index, and the report echoes the count
and otherwise does not depend on it, so a count above
MAX_EXTRA_VARIABLES is refused before any name or ring is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import bass, monomial
from .errors import SizeCapError, UnitIdealError

MAX_EXTRA_VARIABLES = 1000


@dataclass(frozen=True)
class PrimeFiber:
    """One associated prime with its socle dimension and fiber index."""

    prime_label: str
    mu0: int
    fiber_index: int


@dataclass(frozen=True)
class BaseChangeReport:
    """Prediction vs direct recomputation for one flat change of rings."""

    kind: str  # "extend" or "invert"
    detail: str
    ir_before: int
    ir_after_formula: int
    ir_after_direct: int
    t_bound: int
    faithfully_flat: bool
    fibers: tuple[PrimeFiber, ...]
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


@functools.lru_cache(maxsize=1)
def _socle_report(ideal: monomial.MonomialIdeal) -> bass.BassReport:
    """The socle scan of `ideal`, reused when the call before had an equal ideal."""
    return bass.reducibility_index_by_bass(ideal)


def extend_polynomial(ideal: monomial.MonomialIdeal, extra: int) -> monomial.MonomialIdeal:
    """The same generators in a ring with `extra` new variables t1, t2, ... appended last."""
    if extra < 0:
        raise ValueError("extra must be nonnegative")
    if extra > MAX_EXTRA_VARIABLES:
        raise SizeCapError(f"extend count exceeds cap {MAX_EXTRA_VARIABLES}")
    taken, names, i = set(ideal.ring.names), list(ideal.ring.names), 0
    while len(names) < ideal.ring.n + extra:
        i += 1
        if f"t{i}" not in taken:
            names.append(f"t{i}")
    big = monomial.RingContext(tuple(names))
    return monomial.MonomialIdeal.of(big, (e + (0,) * extra for e in ideal.exponents))


def extension_report(ideal: monomial.MonomialIdeal, extra: int) -> BaseChangeReport:
    """Index before vs after adjoining `extra` polynomial variables.

    The fiber at p is p's own variables read as a prime of the extended
    ring, indexed by the splitting decomposition.
    """
    from .decompose import decompose

    if ideal.is_unit:
        raise UnitIdealError("base change reports need a proper ideal")
    extended = extend_polynomial(ideal, extra)
    before = _socle_report(ideal)
    fibers = []
    formula = 0
    for prime, mu0, _ in before.entries:
        extended_prime = bass.MonomialPrime(prime.support, extended.ring).as_ideal()
        fib = decompose(extended_prime).count
        fibers.append(PrimeFiber(prime.render(), mu0, fib))
        formula += mu0 * fib
    direct = decompose(extended).count
    t = max((f.fiber_index for f in fibers), default=1)
    checks = (
        ("prediction matches direct recomputation", formula == direct),
        ("index within [ir, t*ir]", before.index <= direct <= t * before.index),
        (
            "index preserved iff every fiber has index 1",
            (direct == before.index) == all(f.fiber_index == 1 for f in fibers),
        ),
    )
    return BaseChangeReport(
        kind="extend",
        detail=f"adjoin {extra} variable(s)",
        ir_before=before.index,
        ir_after_formula=formula,
        ir_after_direct=direct,
        t_bound=t,
        faithfully_flat=True,
        fibers=tuple(fibers),
        checks=checks,
    )


def localization_report(ideal: monomial.MonomialIdeal, inverted) -> BaseChangeReport:
    """Index before vs after inverting the variables with indices in `inverted`.

    A prime survives when its support avoids the inverted set; the others
    get the zero fiber.  Equality with the original index holds exactly
    when every associated prime survives.
    """
    from .decompose import decompose

    if ideal.is_unit:
        raise UnitIdealError("base change reports need a proper ideal")
    inverted = frozenset(inverted)
    for i in inverted:
        if not 0 <= i < ideal.ring.n:
            raise ValueError("inverted variable index out of range")
    before = _socle_report(ideal)
    keep = [i for i in range(ideal.ring.n) if i not in inverted]
    local = bass.localized_ideal(ideal, keep)

    fibers = []
    formula = 0
    for prime, mu0, _ in before.entries:
        if prime.support & inverted:
            fib = 0
        else:
            # the prime survives; its image in the localized ring is the
            # prime on the same variables, a domain quotient
            image_support = [keep.index(i) for i in sorted(prime.support)]
            image = bass.MonomialPrime(frozenset(image_support), local.ring).as_ideal()
            fib = decompose(image).count
        fibers.append(PrimeFiber(prime.render(), mu0, fib))
        formula += mu0 * fib
    direct = 0 if local.is_unit else decompose(local).count
    t = max((f.fiber_index for f in fibers), default=1)
    all_survive = all(f.fiber_index >= 1 for f in fibers)
    checks = (
        ("prediction matches direct recomputation", formula == direct),
        ("index never grows", direct <= before.index),
        (
            "index preserved iff every associated prime avoids the inverted set",
            (direct == before.index) == all_survive,
        ),
    )
    return BaseChangeReport(
        kind="invert",
        detail="invert {" + ", ".join(ideal.ring.names[i] for i in sorted(inverted)) + "}",
        ir_before=before.index,
        ir_after_formula=formula,
        ir_after_direct=direct,
        t_bound=t,
        faithfully_flat=not inverted,
        fibers=tuple(fibers),
        checks=checks,
    )
