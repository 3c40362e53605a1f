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

The socle side is one depth-first walk over the breakpoint grid of the
generators, the exponents g_i - 1 (Miller-Sturmfels, GTM 227, ch. 5),
with one more choice per coordinate, "inverted", so a single walk finds
the socle of every prime at once; `_socle_walk` proves its grid, its
prunes and its order.  The colon scan tests its definition on the grid
extended by the largest exponents, and its docstring proves that grid.
No loop depends on exponent size.

The sum of mu0 over all primes equals the reducibility index; the code
here computes it without ever running the splitting decomposition, so
the two routes stay independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

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


def _socle_walk(ideal: MonomialIdeal, keep=None) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Socle witnesses of every prime, or of the prime on `keep` alone, by support.

    The walk decides the coordinates 0..n-1 in order, depth first, over
    the minimal generators g.  Coordinate k either takes a value u_k on
    its grid {g_k - 1 : g_k >= 1}, ascending, or is inverted: k is
    outside the support S, and x_k becomes 1.  A leaf's finite
    coordinates form a monomial u of the ring on S.  With `keep` given,
    exactly the coordinates in `keep` are finite.  Two generator
    bitmasks are carried:

    - `below`: the g with g_l <= u_l on every decided finite l (an
      inverted coordinate passes every generator);
    - `cands[k]`, for each finite k: the g with g_k = u_k + 1 and
      g_l <= u_l on the other decided finite l.

    Once all n coordinates are decided, u is outside the localized ideal
    exactly when `below` is empty.  Then u + e_k is inside exactly when
    `cands[k]` is not: a generator below u + e_k and not below u has
    g_k = u_k + 1.  So the witnesses at S are the leaves with finite
    coordinates S, an empty `below` and no empty `cands[k]`.

    Grid: if u is a witness at S, each k in S has a generator of the
    localized ideal below u + e_k but not below u.  It is the image of
    some g with g_k = u_k + 1 >= 1, so u_k is on the grid.

    Prune (a): when `below` holds a generator that is zero on every
    undecided coordinate, that generator lies below every completion,
    finite or inverted, so no leaf under the node is outside the ideal.
    `fits[d]` holds the generators zero on the coordinates d and above;
    at depth n it holds them all, and the prune is the test `below`
    empty.  Prune (b): deciding a later coordinate ANDs its mask into
    every `cands[k]` (inverting changes none), so an empty `cands[k]`
    stays empty at every leaf under the node.

    Order: the children of a node are visited inverted first, then by
    ascending value, each subtree before the next child.  Two leaves at
    the same S first differ at some k in S, and the one with the smaller
    u_k is visited first, so the witnesses of each support come in lex
    order.  The stack is explicit, so the depth is not bound by the
    recursion limit.
    """
    gens = ideal.exponents
    n = ideal.ring.n
    found: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    if ideal.is_unit:
        return found
    full = (1 << len(gens)) - 1
    cols = [[] for _ in range(n)]  # cols[k]: (g_k, bit of g) for g_k >= 1
    fits = [0] * (n + 1)
    for j, g in enumerate(gens):
        last = 0
        for k, e in enumerate(g):
            if e:
                cols[k].append((e, 1 << j))
                last = k + 1
        fits[last] |= 1 << j
    for d in range(n):
        fits[d + 1] |= fits[d]
    # grid[k]: (u_k, the g with g_k <= u_k, the g with g_k == u_k + 1), ascending
    grid = []
    for col in cols:
        le = full ^ sum(bit for _, bit in col)
        row = []
        for e, group in itertools.groupby(sorted(col), key=itemgetter(0)):
            eq = sum(bit for _, bit in group)
            row.append((e - 1, le, eq))
            le |= eq
        grid.append(row)
    stack = [(0, full, (), (), ())]
    while stack:
        d, below, cands, u, support = stack.pop()
        if d == n:
            found.setdefault(support, []).append(u)
            continue
        end = fits[d + 1]
        kids = []
        if keep is None or d not in keep:
            if not below & end:
                kids.append((d + 1, below, cands, u, support))
        if keep is None or d in keep:
            for v, le, eq in grid[d]:
                inner = below & le
                if inner & end:
                    break  # prune (a), for this value and every larger one
                cand = below & eq
                if not cand:
                    continue  # prune (b) at k = d
                shrunk = tuple([c & le for c in cands])
                if 0 in shrunk:
                    continue  # prune (b) at an earlier k
                kids.append((d + 1, inner, shrunk + (cand,), u + (v,), support + (d,)))
        stack.extend(reversed(kids))
    return found


def bass0(ideal: MonomialIdeal, support) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Socle dimension at the prime on `support`, with witness exponents.

    Returns 0 (no witnesses) for primes that are not associated.  The
    witnesses are exponent tuples in lex order, over the variables of
    `support` in index order (the localized ring).  An index out of
    range or repeated in `support` raises ValueError.
    """
    keep = sorted(support)
    n = ideal.ring.n
    for pos, i in enumerate(keep):
        if not 0 <= i < n:
            raise ValueError(f"support index {i} out of range for {n} variables")
        if pos and keep[pos - 1] == i:
            raise ValueError(f"support index {i} repeated")
    witnesses = _socle_walk(ideal, frozenset(keep)).get(tuple(keep), [])
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
    """Sum of socle dimensions over all primes, found by one socle walk.

    Never consults the splitting decomposition.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has index 0 by convention; not computed here")
    entries = tuple(
        (frozenset(support), len(witnesses), tuple(witnesses))
        for support, witnesses in sorted(_socle_walk(ideal).items())
    )
    return BassReport(ideal, entries, sum(count for _, count, _ in entries))
