"""Associated primes and socle dimensions of monomial quotients.

Every associated prime of R/I for a monomial ideal I is generated by a
subset S of the variables, and is recorded as S, the frozenset of their
indices.  Localizing at that prime amounts to setting the variables
outside S to 1; the resulting ideal lives in the ring on the S
variables.  The socle dimension after localizing (the 0-th Bass number,
written mu0) counts monomials u in the S variables with u outside the
localized ideal but x_i * u inside it for every i in S.  The scans
return supports and exponent tuples; `render_prime` and the callers'
renderers turn them into text.

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
from .monomial import MonomialIdeal, RingContext, minimal_exponents


def render_prime(ring: RingContext, support) -> str:
    """The prime on the variables with indices in `support`, `(0)` when it is empty."""
    if not support:
        return "(0)"
    return "(" + ", ".join(ring.names[i] for i in sorted(support)) + ")"


def localized_ideal(ideal: MonomialIdeal, support) -> MonomialIdeal:
    """Image of the ideal after inverting the variables outside `support`.

    The result lives in the ring on the kept variables (a zero-variable
    ring, meaning the field, when support is empty).
    """
    keep = sorted(support)
    sub = ideal.ring.subring(keep)
    return MonomialIdeal.of(sub, (tuple(e[i] for i in keep) for e in ideal.exponents))


def bass0(ideal: MonomialIdeal, support) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Socle dimension at the prime on `support`, with witness exponents.

    Returns 0 (no witnesses) for primes that are not associated.  The
    witnesses are exponent tuples in lex order, over the variables of
    `support` in index order (the localized ring).  A witness u is
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
    return len(witnesses), tuple(witnesses)


def ass_by_colon_scan(ideal: MonomialIdeal) -> frozenset[frozenset[int]]:
    """Brute-force route: the supports of the primes (I : u) for monomials u.

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
    return frozenset(found)


@dataclass(frozen=True)
class BassReport:
    """Socle dimensions by prime support, in order of sorted support, and their sum."""

    ideal: MonomialIdeal
    entries: tuple[tuple[frozenset[int], int, tuple[tuple[int, ...], ...]], ...]
    index: int

    @property
    def socle_counts(self) -> dict[frozenset[int], int]:
        """Socle dimension by prime support."""
        return {support: count for support, count, _ in self.entries}


def reducibility_index_by_bass(ideal: MonomialIdeal) -> BassReport:
    """Sum of socle dimensions over all primes, found by subset scan.

    Never consults the splitting decomposition.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has index 0 by convention; not computed here")
    found = []
    for r in range(ideal.ring.n + 1):
        for subset in itertools.combinations(range(ideal.ring.n), r):
            count, wits = bass0(ideal, subset)
            if count:
                found.append((subset, count, wits))
    found.sort()
    entries = tuple((frozenset(s), count, wits) for s, count, wits in found)
    return BassReport(ideal, entries, sum(count for _, count, _ in entries))
