"""Census of progressive families: every cover of a lattice's top, by depth.

The exhaustive index oracles (sums of subgroups, unions of staircase
downsets, meets of submodules) ask one question: which families of
atoms carry a start node to the top, and do all irredundant ones have
the same length?  `step(node, i)` combines a node with atom i and
returns the node itself when the atom does not escape it.

A family is progressive when its atoms come in increasing index order
and each escapes the combination of the earlier ones.  Every
irredundant cover is progressive (a member inside the combination of
the others is inside that of the earlier ones) and is visited once, so
the least depth of a progressive cover is the index and the count there
is the number of minimum covers.  Combinations depend only on the
running node, so the counting pass memoizes on (node, last index).

One depth-first walk then takes the first `sample_cap` minimum covers
and, only when deeper covers exist, checks that each is redundant.  It
carries, for each prefix member, the combination of the other members,
so redundancy costs one lookup per member.

Lemma (monotone redundancy): if F - s combines to the same node as F,
and F lies in G, then G - s combines to that of F - s with G - F, which
is that of G.  So a redundant prefix is pruned with its subtree, and
the deep covers under it are read off the counting memo.

Every prefix of a minimum cover is irredundant: dropping a redundant
member would leave a shorter cover, holding an irredundant, hence
progressive, one below the minimum.  So pruning drops no sample, every
deep cover is counted once, as a leaf or under its shortest redundant
prefix, and the count must match the counting pass.  A deep leaf has an
irredundant prefix, so its own redundancy is the check.  No irredundant
deep cover is the executable form of the claim that every irredundant
cover has the same length (the bookkeeping is the "crit/uncov" idea of
Murakami-Uno, Discrete Appl. Math. 170, 2014).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import VerificationError


class Census(NamedTuple):
    histogram: dict[int, int]  # depth -> progressive covers of that depth
    samples: tuple[tuple[int, ...], ...]  # first minimum covers, DFS order
    deferred: int  # covers deeper than the minimum, all checked
    irredundant_deep: frozenset[int]  # depths of irredundant deep covers


def census(
    start: int, top: int, m: int, max_depth: int, step: Callable[[int, int], int], sample_cap: int
) -> Census:
    """Progressive covers of top from start by atoms 0..m-1 (see module doc).

    Nodes are ints (lattice indices or bitmasks), start is not top, and
    no progressive chain from start is longer than max_depth.
    """
    rows: dict[int, list[int]] = {}
    avails: dict[int, int] = {}

    def ensure(j: int) -> None:
        if j not in rows:
            rows[j] = row = [step(j, i) for i in range(m)]
            avails[j] = sum(1 << i for i, child in enumerate(row) if child != j)

    memo: dict[int, tuple[int, ...]] = {}

    def counts_below(j: int, last: int) -> tuple[int, ...]:
        """counts_below(j, last)[d] = progressive covers using d more atoms."""
        key = j * (m + 1) + last + 1
        got = memo.get(key)
        if got is not None:
            return got
        counts = [0] * (max_depth + 1)
        row = rows[j]
        av = avails[j] >> (last + 1)
        base = last + 1
        while av:
            lsb = av & -av
            av ^= lsb
            i = base + lsb.bit_length() - 1
            child = row[i]
            if child == top:
                counts[1] += 1
            else:
                ensure(child)
                for d, c in enumerate(counts_below(child, i)):
                    if c:
                        counts[d + 1] += c
        out = tuple(counts)
        memo[key] = out
        return out

    ensure(start)
    hist = {d: c for d, c in enumerate(counts_below(start, -1)) if c and d >= 1}
    if not hist:
        return Census(hist, (), 0, frozenset())
    r0 = min(hist)
    deep = max(hist) > r0
    samples: list[tuple[int, ...]] = []
    deferred = 0
    irredundant_deep: set[int] = set()

    def walk(j: int, last: int, chain: tuple[int, ...], others: tuple[int, ...]) -> None:
        """Sample minimum covers in DFS order; check deep covers if any exist.

        others[k] is the combination of every chain member but the k-th;
        adding atom i maps it to rows[others[k]][i], and the new member's
        own entry is j.  The family is redundant exactly when the child is
        among those nodes.  counts_below has built every row read here:
        dropping a member from a progressive chain leaves one, since an
        atom escaping a family's combination escapes any subfamily's.
        """
        nonlocal deferred
        row = rows[j]
        av = avails[j] >> (last + 1)
        base = last + 1
        depth = len(chain) + 1
        while av:
            if not deep and len(samples) >= sample_cap:
                return
            lsb = av & -av
            av ^= lsb
            i = base + lsb.bit_length() - 1
            child = row[i]
            without = [rows[o][i] for o in others]
            if child == top:
                if depth > r0:
                    deferred += 1
                    if child not in without:
                        irredundant_deep.add(depth)
                elif len(samples) < sample_cap:  # depth == r0: none is shallower
                    samples.append(chain + (i,))
            elif child in without:
                below = counts_below(child, i)
                deferred += sum(c for d, c in enumerate(below) if depth + d > r0)
            elif deep or depth < r0:
                without.append(j)
                walk(child, i, chain + (i,), tuple(without))

    walk(start, -1, (), ())
    expected = sum(c for d, c in hist.items() if d > r0)
    if deferred != expected:
        raise VerificationError(
            f"deferred walk accounts for {deferred} deep covers, the counting pass for {expected}"
        )
    return Census(hist, tuple(samples), deferred, frozenset(irredundant_deep))
