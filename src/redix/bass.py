"""Associated primes and socle dimensions of monomial quotients.

Every associated prime of R/I for a monomial ideal I is generated by a
subset S of the variables.  Localizing at that prime amounts to setting
the variables outside S to 1; the resulting ideal lives in the ring on
the S variables.  The socle dimension after localizing (the 0-th Bass
number, written mu0) counts monomials u in the S variables with u
outside the localized ideal but x_i * u inside it for every i in S.

Witness monomials are bounded: a witness exponent u_i never reaches the
maximum generator exponent d_i of the localized ideal, since any
generator certifying x_i * u inside would already certify u itself.
That makes the scan over the product of ranges [0, d_i) exhaustive.

The sum of mu0 over all primes equals the reducibility index; the code
here computes it without ever running the splitting decomposition, so
the two routes stay independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .decompose import decompose
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
        gens = []
        for i in sorted(self.support):
            exps = [0] * self.ring.n
            exps[i] = 1
            gens.append(Monomial(tuple(exps), self.ring))
        return MonomialIdeal.from_gens(self.ring, gens)

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
    gens = [Monomial(tuple(g.exponents[i] for i in keep), sub) for g in ideal.gens]
    return MonomialIdeal.from_gens(sub, gens)


def bass0(ideal: MonomialIdeal, support) -> tuple[int, tuple[Monomial, ...]]:
    """Socle dimension at the prime on `support`, with witness monomials.

    Returns 0 (no witnesses) for primes that are not associated.  The
    witnesses live in the localized ring.
    """
    keep = sorted(support)
    gens = minimal_exponents(tuple(g.exponents[i] for i in keep) for g in ideal.gens)
    if len(gens) == 1 and not any(gens[0]):
        return 0, ()  # localizes to the unit ideal
    n = len(keep)
    bounds = [max((g[i] for g in gens), default=0) for i in range(n)]
    witnesses = []
    for exps in itertools.product(*(range(d) for d in bounds)):
        if any(all(a <= b for a, b in zip(g, exps)) for g in gens):
            continue  # already inside
        ok = True
        for i in range(n):
            hit = False
            for g in gens:
                if g[i] <= exps[i] + 1 and all(
                    g[j] <= exps[j] for j in range(n) if j != i
                ):
                    hit = True
                    break
            if not hit:
                ok = False
                break
        if ok:
            witnesses.append(exps)
    sub = ideal.ring.subring(keep)
    return len(witnesses), tuple(Monomial(e, sub) for e in sorted(witnesses))


def associated_primes(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Supports of the irredundant decomposition components."""
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has no associated primes")
    dec = decompose(ideal)
    return frozenset(MonomialPrime(c.support(), ideal.ring) for c in dec.components)


def associated_primes_by_socle(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Primes with positive socle dimension, read off the subset scan.

    Independent of the decomposition route.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has no associated primes")
    return frozenset(prime for prime, _, _ in reducibility_index_by_bass(ideal).entries)


def ass_by_colon_scan(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Brute-force route: primes of the form (I : u) for bounded monomials u.

    Scans u with u_i <= d_i (the maximum generator exponents); beyond
    those bounds the colon stabilizes coordinatewise, so the scan finds
    every prime that occurs.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has no associated primes")
    n = ideal.ring.n
    gens = [g.exponents for g in ideal.gens]
    unit_vectors = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
    prime_forms = {}
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            prime_forms[minimal_exponents(unit_vectors[i] for i in subset)] = frozenset(subset)
    found = set()
    for exps in itertools.product(*(range(d + 1) for d in ideal.max_exponents())):
        quot = minimal_exponents(tuple(max(a - b, 0) for a, b in zip(g, exps)) for g in gens)
        hit = prime_forms.get(quot)
        if hit is not None:
            found.add(hit)
    return frozenset(MonomialPrime(s, ideal.ring) for s in found)


@dataclass(frozen=True)
class BassReport:
    """Socle dimensions by prime and the index they sum to."""

    ideal: MonomialIdeal
    entries: tuple[tuple[MonomialPrime, int, tuple[Monomial, ...]], ...]
    index: int


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
