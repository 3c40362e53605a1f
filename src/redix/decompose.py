"""Irreducible decomposition of monomial ideals by splitting one generator at a time.

An irreducible monomial ideal is generated by pure powers of a subset of
the variables; a component is its bounds tuple, entry 0 meaning the
variable is absent.  A monomial lies in the component when some bound is
met: u is inside exactly when u_i >= bounds_i for some i with bounds_i >= 1.
The tuples are all the routes read; `component_ideal` and
`render_component` turn one into an ideal or text at the boundary.

The splitter starts from the zero ideal and adds the generators one at a
time, keeping the irredundant components of the ideal generated so far.
Two facts (Miller-Sturmfels, GTM 227, ch. 5), proved where they are used,
make this work:

- monomial ideals form a distributive lattice, so I + (m) is the
  intersection of the C + (m) over the components C of I
  (split_decompose);
- an irreducible monomial ideal that contains an intersection contains
  one of its members, so a component is redundant exactly when it
  contains another one (_containing_none).

The strategy only orders the generators; every strategy must reach the
same irredundant decomposition, and the test suites drive several.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidCandidatesError, UnitIdealError
from .monomial import MonomialIdeal, RingContext, minimal_exponents


@dataclass(frozen=True)
class Decomposition:
    """Irredundant irreducible decomposition, bounds tuples sorted descending."""

    ideal: MonomialIdeal
    components: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.components)) != len(self.components):
            raise ValueError("duplicate components")
        for c in self.components:
            if not any(c) and len(self.components) != 1:
                raise ValueError("all-zero component in a nontrivial decomposition")

    @property
    def count(self) -> int:
        return len(self.components)

    def counts_by_support(self) -> dict[frozenset[int], int]:
        """Number of components on each variable support, in component order."""
        out: dict[frozenset[int], int] = {}
        for bounds in self.components:
            sup = frozenset(i for i, b in enumerate(bounds) if b)
            out[sup] = out.get(sup, 0) + 1
        return out


def component_ideal(ring: RingContext, bounds) -> MonomialIdeal:
    """The ideal generated by the pure powers x_i^b_i, b_i >= 1, of a component."""
    return MonomialIdeal.of(ring, _pure_powers(bounds))


def render_component(ring: RingContext, bounds) -> str:
    """A component as text: its generators in parentheses, `0` for the zero ideal."""
    ideal = component_ideal(ring, bounds)
    return "0" if ideal.is_zero else f"({ideal.render()})"


def split_decompose(
    ideal: MonomialIdeal, strategy: str = "first", seed: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Irreducible components, as bounds tuples, reached by adding the generators one at a time.

    Starts from the zero ideal, whose one component has all bounds 0.
    For each generator m, a component containing m is kept, and any
    other C is replaced by C + (x_i^m_i) for each i in the support of m,
    which sets bound i to m_i (m lies outside C, so m_i is below each
    bound of C).  This is right because I + (m) is the intersection of
    the C + (m) by distributivity, and each C + (m) is the intersection
    of the C + (x_i^m_i), since (m) is the intersection of the (x_i^m_i).
    Only the candidates containing no other one are kept after each step
    (see _containing_none), so every component returned is irredundant.

    The strategy orders the generators: "first" keeps the canonical
    order, "last" reverses it and "random" shuffles it with the seed.
    """
    if ideal.is_unit:
        raise UnitIdealError("cannot decompose the unit ideal")
    gens = list(ideal.exponents)
    if strategy == "last":
        gens.reverse()
    elif strategy == "random":
        random.Random(seed or 0).shuffle(gens)
    elif strategy != "first":
        raise ValueError(f"unknown strategy {strategy!r}")
    comps = [(0,) * ideal.ring.n]
    for m in gens:
        grown = []
        for c in comps:
            if any(b and e >= b for b, e in zip(c, m)):
                grown.append(c)
            else:
                grown.extend(c[:i] + (e,) + c[i + 1 :] for i, e in enumerate(m) if e)
        comps = _containing_none(grown)
    return tuple(comps)


def _containing_none(bounds) -> list[tuple[int, ...]]:
    """The distinct bounds vectors whose components contain no other one.

    An irreducible Q that contains J_1 /\\ J_2 contains J_1 or J_2:
    otherwise take monomials u in J_1 and v in J_2 outside Q; each misses
    every bound of Q, so lcm(u, v) does too, and it lies in J_1 /\\ J_2
    but outside Q.  So a component contains the intersection of the
    others exactly when it contains one of them, and the components kept
    here, the containment-minimal ones, are irredundant and intersect to
    the same ideal as all of them.  C contains D when C holds each
    generator x_i^d_i of D: for each i with d_i >= 1, 1 <= c_i <= d_i.
    """
    cands = list(dict.fromkeys(bounds))
    return [
        c
        for c in cands
        if not any(
            d != c and all(not e or 0 < b <= e for b, e in zip(c, d)) for d in cands
        )
    ]


def irredundant(candidates, ideal: MonomialIdeal) -> Decomposition:
    """Prune candidate bounds tuples whose removal preserves the intersection.

    Raises ValueError for a tuple that is not a component of the ideal's
    ring (wrong length or a negative bound), and InvalidCandidatesError
    unless the candidates intersect to the ideal.  Pruning never changes
    the intersection, so validity is checked once on the pruned set.
    """
    n = ideal.ring.n
    cands = tuple(candidates)
    for c in cands:
        if len(c) != n:
            raise ValueError("bounds length does not match ring")
        if any(b < 0 for b in c):
            raise ValueError("negative bound")
    comps = _containing_none(cands)
    inter = _intersect_components(comps, n)
    if inter != ideal.exponents:
        shown = MonomialIdeal.of(ideal.ring, inter)
        raise InvalidCandidatesError(
            f"candidates intersect to ({shown.render()}), not ({ideal.render()})"
        )
    return Decomposition(ideal, tuple(sorted(comps, reverse=True)))


def _pure_powers(bounds) -> list[tuple[int, ...]]:
    """Exponents of the generators x_i^b_i, b_i >= 1, of a component."""
    n = len(bounds)
    return [(0,) * i + (b,) + (0,) * (n - i - 1) for i, b in enumerate(bounds) if b]


def _intersect_components(comps, n: int) -> tuple[tuple[int, ...], ...]:
    """Generator exponents of the intersection; the unit ideal when comps is empty."""
    out = ((0,) * n,)
    for c in comps:
        pure = _pure_powers(c)
        out = minimal_exponents(tuple(map(max, a, p)) for a in out for p in pure)
    return out


def decompose(
    ideal: MonomialIdeal, strategy: str = "first", seed: int | None = None
) -> Decomposition:
    """Irredundant irreducible decomposition of the ideal."""
    return irredundant(split_decompose(ideal, strategy, seed), ideal)

