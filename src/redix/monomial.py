"""Monomials and monomial ideals in a fixed polynomial ring.

A monomial is an exponent vector over the ring's variables.  A monomial
ideal is stored as exponent tuples only: the lex-descending antichain of
its minimal generators, as `minimal_exponents` returns it.  The zero
ideal has no tuples and the unit ideal the single all-zero one.  Every
route builds and reads ideals through these tuples (`MonomialIdeal.of`);
`Monomial` objects appear only where input is parsed, output rendered,
or a caller asks for `gens`.  All values are immutable, so they hash,
compare, and can be shared freely.

A ring with zero variables is allowed: it models the coefficient field,
which shows up when every variable of a localization is inverted.  The
input grammar never produces it directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import le

from .errors import InfiniteColengthError, SizeCapError, shown

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
                raise SizeCapError(f"exponent {shown(e)} exceeds cap {MAX_EXPONENT}")

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e)

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

    One pass in lex-ascending order suffices.  A proper divisor k of e
    is below e where they first differ, so it comes first; a divisor
    that was dropped has a kept divisor of its own, which divides e too.
    So e is tested against the kept vectors only, and the kept list,
    reversed, is already lex descending.  With j the first nonzero
    coordinate of k, k[j] <= e[j] holds whenever k divides e, so
    rejecting on k[j] > e[j] is exact; it settles most non-divisors
    (pure powers in other variables, say) after one comparison.
    """
    kept = []  # (k, j): a kept vector and its first nonzero coordinate, 0 for the zero vector
    for e in sorted(set(exps)):
        for k, j in kept:
            if k[j] <= e[j] and all(map(le, k, e)):
                break
        else:
            for j, x in enumerate(e):
                if x:
                    break
            else:
                j = 0
            kept.append((e, j))
    kept.reverse()
    return tuple([k for k, _ in kept])


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generator exponents, in `minimal_exponents` order.  Build via `of`."""

    ring: RingContext
    exponents: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(ring: RingContext, exps) -> "MonomialIdeal":
        """The ideal generated by exponent tuples of the ring's length, minimalized."""
        kept = minimal_exponents(exps)
        if any(len(e) != ring.n for e in kept):
            raise ValueError("exponent vector length does not match ring")
        return MonomialIdeal(ring, kept)

    @staticmethod
    def from_gens(ring: RingContext, gens) -> "MonomialIdeal":
        exps = []
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            exps.append(g.exponents)
        return MonomialIdeal.of(ring, exps)

    @staticmethod
    def unit(ring: RingContext) -> "MonomialIdeal":
        return MonomialIdeal(ring, ((0,) * ring.n,))

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as monomials, built on first read."""
        return tuple(Monomial(e, self.ring) for e in self.exponents)

    @property
    def is_zero(self) -> bool:
        return not self.exponents

    @property
    def is_unit(self) -> bool:
        return len(self.exponents) == 1 and not any(self.exponents[0])

    def colon(self, u: Monomial) -> "MonomialIdeal":
        """(I : u) = (g / gcd(g, u) for g in gens)."""
        quot = (tuple(max(a - b, 0) for a, b in zip(g, u.exponents)) for g in self.exponents)
        return MonomialIdeal.of(self.ring, quot)

    def max_exponents(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the generators (0 if absent)."""
        if not self.exponents:
            return (0,) * self.ring.n
        return tuple(map(max, zip(*self.exponents)))

    def is_finite_colength(self) -> bool:
        """True when every variable appears as a pure power among the gens."""
        if self.ring.n == 0:
            return True
        pure = [False] * self.ring.n
        for e in self.exponents:
            supp = [i for i, v in enumerate(e) if v]
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
        gens = self.exponents
        bounds = [
            min(e[i] for e in gens if e[i] and e[i] == sum(e)) for i in range(self.ring.n)
        ]
        points = math.prod(bounds)
        if points > MAX_STANDARD_BOX:
            raise SizeCapError(
                f"staircase box of {shown(points)} points exceeds cap {MAX_STANDARD_BOX}"
            )
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

