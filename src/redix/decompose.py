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

Checks once.  `decompose` checks the split's components once, by
intersecting them back to the ideal (`_validated`); `irredundant` prunes
arbitrary candidates first and checks them the same way.  The
intersection applies the split's lemma dualized, so it runs no full
minimalization, and it shares no code with the split.  Components that
equal a validated set need no check of their own, since equal sets
intersect alike: the decomposition-uniqueness suite validates the
canonical order and compares the other orders' splits with it.

The strategy only orders the generators; every strategy must reach the
same irredundant decomposition, and the test suites drive several.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import le

from .errors import InvalidCandidatesError, UnitIdealError
from .monomial import MonomialIdeal, RingContext


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
    other C is replaced by C[i<-m_i] = C + (x_i^m_i) for each i in the
    support of m, which sets bound i to m_i (m lies outside C, so m_i is
    below each bound of C).  This is right because I + (m) is the
    intersection of the C + (m) by distributivity, and each C + (m) is
    the intersection of the C + (x_i^m_i), since (m) is the intersection
    of the (x_i^m_i).  A candidate containing another one is redundant
    (see _containing_none) and dropped, so the components kept after
    each step are the containment-minimal ones: irredundant, and none
    contains another.

    Not every pair needs a containment test.  Let K be the old
    components that contain m.

    - No member D of K contains a candidate: D contains C[i<-m_i], which
      contains C, would make D contain the old component C.  So K is
      kept without a test.
    - C[i<-m_i] contains C'[j<-m_j] only when i = j: for j != i,
      x_j^m_j lies in C[i<-m_i] only when 1 <= c_j <= m_j, which would
      put m in C.
    - C[i<-m_i] contains D in K only when d_i = 0 or d_i >= m_i, since
      x_i^d_i must lie in it when d_i >= 1.

    So each candidate is compared only with the same-i candidates and
    with the members of K that pass the d_i filter.  The same facts show
    the output has no duplicates: two old components that agree off i
    would contain one another, and a candidate equal to a D in K would
    be contained in D.

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
    # an absent variable's bound is held as `top`, above every exponent
    # of the ideal: m lies in C when any(map(le, c, m)), and C contains D
    # when all(map(le, c, d))
    top = 1 + max(map(max, gens), default=0)
    comps = [(top,) * ideal.ring.n]
    for m in gens:
        kept, missed = [], []
        for c in comps:
            (kept if any(map(le, c, m)) else missed).append(c)
        if not missed:
            continue
        comps = kept[:]
        for i, e in enumerate(m):
            if e:
                cands = [c[:i] + (e,) + c[i + 1 :] for c in missed]
                rivals = [d for d in kept if d[i] >= e] + cands
                comps += [
                    c for c in cands if not any(d is not c and all(map(le, c, d)) for d in rivals)
                ]
    return tuple([tuple([b if b != top else 0 for b in c]) for c in comps])


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
    return _validated(_containing_none(cands), ideal)


def _validated(comps, ideal: MonomialIdeal) -> Decomposition:
    """Comps as the ideal's Decomposition; InvalidCandidatesError unless they intersect to it."""
    inter = _intersect_components(comps, ideal.ring.n)
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
    """Generator exponents of the intersection; the unit ideal when comps is empty.

    J /\\ C is generated by the lcm(a, x_i^c_i) over the generators a of J
    and the pure powers of C.  A generator a that already lies in C has
    a_i >= c_i >= 1 for some i, so lcm(a, x_i^c_i) = a and every other
    lcm is a multiple of a: a is kept as it is.  Only the generators
    outside C are expanded, one grown lcm a[i<-c_i] per pure power,
    which raises a_i to c_i since a_i < c_i there.

    The inside generators and the grown lcms generate J /\\ C, and three
    facts (split_decompose's lemma, dualized) say which ones are minimal
    without a full divisibility pass.  J's generators form an antichain.

    - No inside a' is divisible by a grown lcm: a <= a[i<-c_i] <= a'
      would make a, which lies outside C, divide a'.  So the inside
      generators are kept without a test.
    - a[i<-c_i] is divisible by a''[j<-c_j] only when i = j: for j != i
      the lcm needs c_j <= a_j, which would put a inside C.
    - a[i<-c_i] is divisible by an inside a' only when a'_i <= c_i, the
      i-th exponent of the lcm.

    So each grown lcm is compared only with the other lcms of the same
    i and with the inside generators that pass the a'_i filter.  No two
    grown lcms coincide: for the same i, a and a'' would agree off i, so
    one would divide the other; for i != j the second fact rules it out.
    The result is sorted lex descending, the `minimal_exponents` order
    that `_validated` compares against.  This is the check on
    split_decompose, so it shares no code with it, though the two loops
    look alike.
    """
    out = ((0,) * n,)
    for c in comps:
        pure = [(i, b) for i, b in enumerate(c) if b]
        inside, outside = [], []
        for a in out:
            for i, b in pure:
                if a[i] >= b:
                    inside.append(a)
                    break
            else:
                outside.append(a)
        if not outside:
            continue
        kept = inside[:]
        for i, b in pure:
            grown = [a[:i] + (b,) + a[i + 1 :] for a in outside]
            rivals = [d for d in inside if d[i] <= b] + grown
            kept += [g for g in grown if not any(d is not g and all(map(le, d, g)) for d in rivals)]
        out = tuple(sorted(kept, reverse=True))
    return out


def decompose(
    ideal: MonomialIdeal, strategy: str = "first", seed: int | None = None
) -> Decomposition:
    """Irredundant irreducible decomposition of the ideal.

    The split's components are irredundant by construction, so they are
    not pruned again; they are only checked to intersect to the ideal.
    """
    return _validated(split_decompose(ideal, strategy, seed), ideal)
