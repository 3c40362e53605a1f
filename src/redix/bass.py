"""Associated primes and socle dimensions of monomial quotients.

Every associated prime of R/I for a monomial ideal I is generated by a
subset S of the variables.  Localizing at that prime amounts to setting
the variables outside S to 1; the resulting ideal lives in the ring on
the S variables.  The socle dimension after localizing (the 0-th Bass
number, written mu0) counts monomials u in the S variables with u
outside the localized ideal but x_i * u inside it for every i in S.

Both scans test their definitions on the breakpoint grid of the
generators, the exponents g_i - 1 (Miller-Sturmfels, GTM 227, ch. 5),
so no loop depends on exponent size; each docstring proves its grid.

The sum of mu0 over all primes equals the reducibility index; the code
here computes it without ever running the splitting decomposition, so
the two routes stay independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import le

from .errors import UnitIdealError
from .monomial import Monomial, MonomialIdeal, RingContext, minimal_exponents


@dataclass(frozen=True)
class MonomialPrime:
    """Prime generated by the variables with indices in `support`."""

    support: frozenset[int]
    ring: RingContext

    def __post_init__(self):
        for i in self.support:
            if not 0 <= i < self.ring.n:
                raise ValueError("variable index out of range")

    def as_ideal(self) -> MonomialIdeal:
        n = self.ring.n
        variables = ((0,) * i + (1,) + (0,) * (n - i - 1) for i in self.support)
        return MonomialIdeal.of(self.ring, variables)

    def sort_key(self):
        return tuple(sorted(self.support))

    def render(self) -> str:
        if not self.support:
            return "(0)"
        return "(" + ", ".join(self.ring.names[i] for i in sorted(self.support)) + ")"


def localized_ideal(ideal: MonomialIdeal, support) -> MonomialIdeal:
    """Image of the ideal after inverting the variables outside `support`.

    The result lives in the ring on the kept variables (a zero-variable
    ring, meaning the field, when support is empty).
    """
    keep = sorted(support)
    sub = ideal.ring.subring(keep)
    return MonomialIdeal.of(sub, (tuple(e[i] for i in keep) for e in ideal.exponents))


def bass0(ideal: MonomialIdeal, support) -> tuple[int, tuple[Monomial, ...]]:
    """Socle dimension at the prime on `support`, with witness monomials.

    Returns 0 (no witnesses) for primes that are not associated.  The
    witnesses live in the localized ring, in lex order.  A witness u is
    outside the ideal with u + e_i inside for every i, so some generator
    g lies below u + e_i but not below u: g_i = u_i + 1, and u_i is on
    the grid {g_i - 1 : g_i >= 1}.
    """
    keep = sorted(support)
    gens = minimal_exponents(tuple(e[i] for i in keep) for e in ideal.exponents)
    if len(gens) == 1 and not any(gens[0]):
        return 0, ()  # localizes to the unit ideal

    def inside(v):
        return any(all(map(le, g, v)) for g in gens)

    n = len(keep)
    grid = [sorted({g[i] - 1 for g in gens if g[i]}) for i in range(n)]
    witnesses = [
        u
        for u in itertools.product(*grid)
        if not inside(u)
        and all(inside(u[:i] + (u[i] + 1,) + u[i + 1 :]) for i in range(n))
    ]
    if not witnesses:
        return 0, ()
    sub = ideal.ring.subring(keep)
    return len(witnesses), tuple(Monomial(u, sub) for u in witnesses)


def ass_by_colon_scan(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Brute-force route: the primes of the form (I : u) for monomials u.

    (I : u) is generated by the (g - u)+; it is prime exactly when its
    minimal generators are variables ((0) when I is zero).  The grid
    u_k in {g_k - 1 : g_k >= 1} | {d_k} finds every such prime.  Take u
    to u' by moving each u_k up to the next grid value (down to d_k above
    it).  Each test g_k <= u_k keeps its outcome, since g_k > u_k puts
    g_k - 1 >= u_k on the grid, so each (g - u')+ keeps the support of
    (g - u)+ and lies below it.  If (I : u) = P, then (I : u') contains
    P and its generators lie in P.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has no associated primes")
    gens = ideal.exponents
    grid = [
        sorted({g[k] - 1 for g in gens if g[k]} | {d})
        for k, d in enumerate(ideal.max_exponents())
    ]
    found = set()
    for u in itertools.product(*grid):
        quot = minimal_exponents(tuple(max(a - b, 0) for a, b in zip(g, u)) for g in gens)
        if all(sum(e) == 1 for e in quot):
            found.add(frozenset(e.index(1) for e in quot))
    return frozenset(MonomialPrime(s, ideal.ring) for s in found)


@dataclass(frozen=True)
class BassReport:
    """Socle dimensions by prime and the index they sum to."""

    ideal: MonomialIdeal
    entries: tuple[tuple[MonomialPrime, int, tuple[Monomial, ...]], ...]
    index: int

    @property
    def socle_counts(self) -> dict[frozenset[int], int]:
        """Socle dimension by prime support."""
        return {prime.support: count for prime, count, _ in self.entries}


def reducibility_index_by_bass(ideal: MonomialIdeal) -> BassReport:
    """Sum of socle dimensions over all primes, found by subset scan.

    Never consults the splitting decomposition.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has index 0 by convention; not computed here")
    entries = []
    total = 0
    for r in range(ideal.ring.n + 1):
        for subset in itertools.combinations(range(ideal.ring.n), r):
            count, wits = bass0(ideal, subset)
            if count:
                prime = MonomialPrime(frozenset(subset), ideal.ring)
                entries.append((prime, count, wits))
                total += count
    entries.sort(key=lambda e: e[0].sort_key())
    return BassReport(ideal, tuple(entries), total)
