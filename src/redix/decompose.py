"""Irreducible decomposition of monomial ideals by generator splitting.

An irreducible monomial ideal is generated by pure powers of a subset of
the variables; it is recorded as a bounds vector, entry 0 meaning the
variable is absent.  A monomial lies in the component when some bound is
met: u is inside exactly when u_i >= bounds_i for some i with bounds_i >= 1.

The decomposition recursion: choose a generator whose support has at
least two variables, write it as  x_i^a * w  with w coprime to x_i, and
use  I + (m) = (I + (x_i^a)) /\\ (I + (w))  for coprime splits.  The base
case (all generators pure powers) is a single component.  Which variable
is split first is a strategy choice; every strategy must reach the same
irredundant decomposition, and the test suites drive several.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidCandidatesError, UnitIdealError
from .monomial import Monomial, MonomialIdeal, RingContext, minimal_exponents


@dataclass(frozen=True)
class IrreducibleComponent:
    """Bounds vector of a pure-power ideal.  All zero only for the zero ideal."""

    bounds: tuple[int, ...]
    ring: RingContext

    def __post_init__(self):
        if len(self.bounds) != self.ring.n:
            raise ValueError("bounds length does not match ring")
        if any(b < 0 for b in self.bounds):
            raise ValueError("negative bound")

    def support(self) -> frozenset[int]:
        return frozenset(i for i, b in enumerate(self.bounds) if b)

    def as_ideal(self) -> MonomialIdeal:
        gens = []
        for i, b in enumerate(self.bounds):
            if b:
                exps = [0] * self.ring.n
                exps[i] = b
                gens.append(Monomial(tuple(exps), self.ring))
        return MonomialIdeal.from_gens(self.ring, gens)

    def render(self) -> str:
        ideal = self.as_ideal()
        return "0" if ideal.is_zero else f"({ideal.render()})"


@dataclass(frozen=True)
class Decomposition:
    """Irredundant irreducible decomposition, components sorted by bounds."""

    ideal: MonomialIdeal
    components: tuple[IrreducibleComponent, ...]

    def __post_init__(self):
        if len(set(c.bounds for c in self.components)) != len(self.components):
            raise ValueError("duplicate components")
        for c in self.components:
            if not any(c.bounds) and len(self.components) != 1:
                raise ValueError("all-zero component in a nontrivial decomposition")

    @property
    def count(self) -> int:
        return len(self.components)

    def counts_by_support(self) -> dict[frozenset[int], int]:
        """Number of components on each variable support, in component order."""
        out: dict[frozenset[int], int] = {}
        for comp in self.components:
            sup = comp.support()
            out[sup] = out.get(sup, 0) + 1
        return out


def normalize_strategy(strategy, seed: int | None = None):
    """Return a function picking the split variable from a sorted support list."""
    if strategy == "first":
        return lambda supp: supp[0]
    if strategy == "last":
        return lambda supp: supp[-1]
    if strategy == "random":
        rng = random.Random(0 if seed is None else seed)
        return lambda supp: rng.choice(supp)
    raise ValueError(f"unknown strategy {strategy!r}")


def split_decompose(
    ideal: MonomialIdeal, strategy: str = "first", seed: int | None = None
) -> tuple[IrreducibleComponent, ...]:
    """All irreducible components reached by splitting; may contain redundant ones.

    Deterministic for a fixed strategy and seed.  Sub-ideals repeat across
    branches, so results are memoized per call on the canonical generator
    exponents, which are also what the recursion carries.
    """
    if ideal.is_unit:
        raise UnitIdealError("cannot decompose the unit ideal")
    pick = normalize_strategy(strategy, seed)
    ring = ideal.ring
    memo: dict[tuple, tuple] = {}

    def go(gens: tuple) -> tuple:
        got = memo.get(gens)
        if got is not None:
            return got
        split_gen = next((g for g in gens if sum(1 for e in g if e) >= 2), None)
        if split_gen is None:
            bounds = [0] * ring.n
            for g in gens:
                for i, e in enumerate(g):
                    if e:
                        bounds[i] = e
            result = (tuple(bounds),)
        else:
            i = pick([j for j, e in enumerate(split_gen) if e])
            pure = tuple(e if j == i else 0 for j, e in enumerate(split_gen))
            rest = split_gen[:i] + (0,) + split_gen[i + 1 :]
            left = go(minimal_exponents(gens + (pure,)))
            right = go(minimal_exponents(gens + (rest,)))
            result = tuple(dict.fromkeys(left + right))
        memo[gens] = result
        return result

    return tuple(IrreducibleComponent(b, ring) for b in go(tuple(g.exponents for g in ideal.gens)))


def _contains_intersection(c: IrreducibleComponent, others) -> bool:
    """Does m^c contain the intersection of the other components?

    The largest monomial outside m^c has exponent bounds_i - 1 on the
    support of c and is unbounded elsewhere; membership of any monomial
    in a pure-power ideal is monotone in the exponents, so the
    intersection escapes m^c iff that single extremal monomial lies in
    every other component.  Unbounded coordinates are None here.
    """
    probe = [b - 1 if b else None for b in c.bounds]
    for o in others:
        if not any(
            b and (e is None or e >= b) for b, e in zip(o.bounds, probe)
        ):
            return True  # probe escapes o, so the intersection stays inside m^c
    return False


def irredundant(candidates, ideal: MonomialIdeal) -> Decomposition:
    """Prune candidates whose removal preserves the intersection.

    Raises InvalidCandidatesError unless the candidates intersect to the
    ideal.  Pruning never changes the intersection, so validity is
    checked once on the pruned set.
    """
    comps = list(dict.fromkeys(candidates))
    # One pass suffices: dropping a component only enlarges the
    # intersection of the rest, so a component kept once (it does not
    # contain the intersection of the others) is never redundant later.
    k = 0
    while k < len(comps):
        others = comps[:k] + comps[k + 1 :]
        if others and _contains_intersection(comps[k], others):
            comps = others
        else:
            k += 1
    ring = ideal.ring
    inter = _intersect_components(comps, ring.n)
    if inter != tuple(g.exponents for g in ideal.gens):
        shown = MonomialIdeal.from_gens(ring, [Monomial(e, ring) for e in inter])
        raise InvalidCandidatesError(
            f"candidates intersect to ({shown.render()}), not ({ideal.render()})"
        )
    return Decomposition(ideal, tuple(sorted(comps, key=lambda c: c.bounds, reverse=True)))


def _intersect_components(comps, n: int) -> tuple[tuple[int, ...], ...]:
    """Generator exponents of the intersection; the unit ideal when comps is empty."""
    out = ((0,) * n,)
    for c in comps:
        pure = [(0,) * i + (b,) + (0,) * (n - i - 1) for i, b in enumerate(c.bounds) if b]
        out = minimal_exponents(tuple(map(max, a, p)) for a in out for p in pure)
    return out


def decompose(
    ideal: MonomialIdeal, strategy: str = "first", seed: int | None = None
) -> Decomposition:
    """Irredundant irreducible decomposition of the ideal."""
    return irredundant(split_decompose(ideal, strategy, seed), ideal)


def reducibility_index_by_decomposition(
    ideal: MonomialIdeal, strategy: str = "first", seed: int | None = None
) -> int:
    """Component count of the irredundant decomposition.

    The zero ideal decomposes as itself (the quotient is the whole ring,
    a domain), giving index 1.
    """
    return decompose(ideal, strategy, seed).count
