"""Monomials and monomial ideals in a fixed polynomial ring.

A monomial is an exponent vector over the ring's variables; a monomial
ideal is stored canonically as the lex-sorted antichain of its minimal
generators.  The zero ideal is the empty generator list and the unit
ideal is the single all-zero monomial.  All values are immutable, so
they hash, compare, and can be shared freely.

A ring with zero variables is allowed: it models the coefficient field,
which shows up when every variable of a localization is inverted.  The
input grammar never produces it directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import le

from .errors import InfiniteColengthError, SizeCapError

MAX_EXPONENT = 10**6  # larger exponents are refused, not silently accepted
MAX_STANDARD_BOX = 100_000  # box points standard_monomials scans before refusing

_DEFAULT_NAMES = ("x", "y", "z", "w")


@dataclass(frozen=True)
class RingContext:
    """Variable names of the ambient polynomial ring over a field."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for nm in self.names:
            if not nm or not nm.replace("_", "a").isalnum() or nm[0].isdigit():
                raise ValueError(f"bad variable name: {nm!r}")

    @property
    def n(self) -> int:
        return len(self.names)

    @staticmethod
    def default(n: int) -> "RingContext":
        if n <= len(_DEFAULT_NAMES):
            return RingContext(_DEFAULT_NAMES[:n])
        return RingContext(tuple(f"x{i+1}" for i in range(n)))

    def monomial(self, *exponents: int) -> "Monomial":
        return Monomial(tuple(exponents), self)

    def subring(self, keep) -> "RingContext":
        """Ring on the variables whose indices are in `keep`, original order."""
        idx = sorted(keep)
        return RingContext(tuple(self.names[i] for i in idx))


@dataclass(frozen=True)
class Monomial:
    """Exponent vector; the unit monomial is all zeros."""

    exponents: tuple[int, ...]
    ring: RingContext

    def __post_init__(self):
        if len(self.exponents) != self.ring.n:
            raise ValueError("exponent vector length does not match ring")
        for e in self.exponents:
            if e < 0:
                raise ValueError("negative exponent")
            if e > MAX_EXPONENT:
                raise SizeCapError(f"exponent {e} exceeds cap {MAX_EXPONENT}")

    @property
    def is_unit(self) -> bool:
        return not any(self.exponents)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e)

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(max, self.exponents, other.exponents)), self.ring)

    def colon_by(self, u: "Monomial") -> "Monomial":
        """self / gcd(self, u), the generator image under the colon by u."""
        return Monomial(
            tuple(max(a - b, 0) for a, b in zip(self.exponents, u.exponents)), self.ring
        )

    def render(self) -> str:
        parts = []
        for name, e in zip(self.ring.names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.render()


def minimal_exponents(exps) -> tuple[tuple[int, ...], ...]:
    """Canonical generator exponents: the vectors divisible by no other one.

    Deduplicated and sorted lex descending.  Every generator set in the
    package is minimalized here, so all routes share one canonical form.
    """
    kept = []
    # sorting by total degree first makes each divisor appear before its multiples
    for e in sorted(set(exps), key=lambda t: (sum(t), t)):
        if not any(all(map(le, k, e)) for k in kept):
            kept.append(e)
    kept.sort(reverse=True)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """Canonical form: minimal generators, lex sorted.  Build via from_gens."""

    ring: RingContext
    gens: tuple[Monomial, ...]

    @staticmethod
    def from_gens(ring: RingContext, gens) -> "MonomialIdeal":
        by_exps = {}
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            by_exps[g.exponents] = g
        return MonomialIdeal(ring, tuple(by_exps[e] for e in minimal_exponents(by_exps)))

    @staticmethod
    def zero(ring: RingContext) -> "MonomialIdeal":
        return MonomialIdeal(ring, ())

    @staticmethod
    def unit(ring: RingContext) -> "MonomialIdeal":
        return MonomialIdeal(ring, (Monomial((0,) * ring.n, ring),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit

    def contains(self, u: Monomial) -> bool:
        """Monomial membership: some generator divides u."""
        return any(g.divides(u) for g in self.gens)

    def colon(self, u: Monomial) -> "MonomialIdeal":
        """(I : u) = (g / gcd(g, u) for g in gens)."""
        return MonomialIdeal.from_gens(self.ring, [g.colon_by(u) for g in self.gens])

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Pairwise lcms of generators, then minimalize."""
        if self.ring != other.ring:
            raise ValueError("ideals over different rings")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.ring)
        lcms = [a.lcm(b) for a in self.gens for b in other.gens]
        return MonomialIdeal.from_gens(self.ring, lcms)

    def max_exponents(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the generators (0 if absent)."""
        out = [0] * self.ring.n
        for g in self.gens:
            for i, e in enumerate(g.exponents):
                if e > out[i]:
                    out[i] = e
        return tuple(out)

    def is_finite_colength(self) -> bool:
        """True when every variable appears as a pure power among the gens."""
        if self.ring.n == 0:
            return True
        pure = [False] * self.ring.n
        for g in self.gens:
            supp = [i for i, e in enumerate(g.exponents) if e]
            if len(supp) == 1:
                pure[supp[0]] = True
            elif not supp:  # unit ideal
                return True
        return all(pure)

    def standard_monomials(self) -> frozenset[tuple[int, ...]]:
        """Exponent vectors outside the ideal, row by row in the pure-power box.

        Each row fixes the first n-1 coordinates; the row is standard
        below the least last exponent among the generators whose first
        n-1 coordinates divide the row's.  Requires finite colength and a
        box of at most MAX_STANDARD_BOX points.
        """
        if not self.is_finite_colength():
            raise InfiniteColengthError(f"{self.render()} does not have finite colength")
        if self.is_unit:
            return frozenset()
        gens = [g.exponents for g in self.gens]
        bounds = [
            min(e[i] for e in gens if e[i] and e[i] == sum(e)) for i in range(self.ring.n)
        ]
        points = math.prod(bounds)
        if points > MAX_STANDARD_BOX:
            raise SizeCapError(f"staircase box of {points} points exceeds cap {MAX_STANDARD_BOX}")
        if not bounds:  # no variables: the zero ideal leaves the one empty monomial
            return frozenset({()})
        rows = [(e[:-1], e[-1]) for e in gens]

        def cutoff(prefix):
            # the pure power of the last variable divides every row, so the min exists
            return min(last for head, last in rows if all(map(le, head, prefix)))

        return frozenset(
            prefix + (j,)
            for prefix in itertools.product(*(range(b) for b in bounds[:-1]))
            for j in range(cutoff(prefix))
        )

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(g.render() for g in self.gens)

    def __str__(self) -> str:
        return self.render()

