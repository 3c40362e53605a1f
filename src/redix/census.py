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
and decides redundancy once per node, for all children at once: with
same(o, j) the bitmask of atoms i on which rows[o][i] == rows[j][i]
(memoized per pair), the children of node j that make the family
redundant are red = OR of same(o, j) over those others o.  That is the
per-child test "child in [rows[o][i] for o in others]" unchanged,
because the child is rows[j][i].  Children that reach the top are
settled in bulk from a per-node mask tops[j]: deeper than the minimum,
each is one deep cover, counted by a popcount, and it is irredundant
exactly when its bit is outside red; at the minimum depth they are the
samples, taken in index order until `sample_cap` are held.

Lemma (monotone redundancy): if F - s combines to the same node as F,
and F lies in G, then G - s combines to that of F - s with G - F, which
is that of G.  So a redundant prefix is pruned with its subtree, and
the deep covers under it are read off the counting memo.

Every prefix of a minimum cover is irredundant: dropping a redundant
member would leave a shorter cover, holding an irredundant, hence
progressive, one below the minimum.  So pruning drops no sample, every
deep cover is counted once, as a leaf or under its shortest redundant
prefix, and the count must match the counting pass.  Every cover under
a redundant prefix is itself redundant, hence deeper than the minimum,
so the walk adds the memoized total of the prefix's counting row.  A
deep leaf has an irredundant prefix, so its own redundancy is the
check.  No irredundant deep cover is the executable form of the claim
that every irredundant cover has the same length (the bookkeeping is
the "crit/uncov" idea of Murakami-Uno, Discrete Appl. Math. 170, 2014).
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
    tops: dict[int, int] = {}

    def ensure(j: int) -> None:
        if j not in rows:
            rows[j] = row = [step(j, i) for i in range(m)]
            avail = ends = 0
            for i, child in enumerate(row):
                if child != j:
                    avail |= 1 << i
                    if child == top:
                        ends |= 1 << i
            avails[j], tops[j] = avail, ends

    memo: dict[int, tuple[int, ...]] = {}

    def counts_below(j: int, last: int) -> tuple[int, ...]:
        """counts_below(j, last)[d] = progressive covers using d more atoms."""
        key = j * (m + 1) + last + 1
        got = memo.get(key)
        if got is not None:
            return got
        counts = [0] * (max_depth + 1)
        row = rows[j]
        ends = tops[j] >> (last + 1)
        if ends:
            counts[1] = ends.bit_count()
        av = (avails[j] >> (last + 1)) ^ ends
        base = last + 1
        while av:
            lsb = av & -av
            av ^= lsb
            i = base + lsb.bit_length() - 1
            child = row[i]
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
    same: dict[int, dict[int, int]] = {}
    totals: dict[int, int] = {}

    def walk(j: int, last: int, chain: tuple[int, ...], others: tuple[int, ...]) -> None:
        """Sample minimum covers in DFS order; check deep covers if any exist.

        others[k] is the combination of every chain member but the k-th;
        adding atom i maps it to rows[others[k]][i], and the new member's
        own entry is j.  The atoms making the family redundant are the OR
        over others o of same[j][o], the atoms on which rows o and j agree.
        counts_below has built every row read here: dropping a member from
        a progressive chain leaves one, since an atom escaping a family's
        combination escapes any subfamily's.
        """
        nonlocal deferred
        if not deep and len(samples) >= sample_cap:
            return
        row = rows[j]
        av = avails[j] >> (last + 1) << (last + 1)
        depth = len(chain) + 1
        red = 0
        agree = same.get(j)
        if agree is None:
            agree = same[j] = {}
        for o in others:
            got = agree.get(o)
            if got is None:
                ro = rows[o]
                got = agree[o] = sum(1 << i for i, child in enumerate(row) if ro[i] == child)
            red |= got
        ends = av & tops[j]
        if ends:
            av ^= ends
            if depth > r0:
                deferred += ends.bit_count()
                if ends & ~red:
                    irredundant_deep.add(depth)
            else:  # depth == r0: none is shallower
                while ends and len(samples) < sample_cap:
                    lsb = ends & -ends
                    ends ^= lsb
                    samples.append(chain + (lsb.bit_length() - 1,))
        pruned = av & red
        av ^= pruned
        while pruned:
            lsb = pruned & -pruned
            pruned ^= lsb
            i = lsb.bit_length() - 1
            key = row[i] * (m + 1) + i + 1  # counts_below(row[i], i), built by the counting pass
            total = totals.get(key)
            if total is None:
                total = totals[key] = sum(memo[key])
            deferred += total
        if not deep and depth >= r0:
            return
        while av:
            if not deep and len(samples) >= sample_cap:
                return
            lsb = av & -av
            av ^= lsb
            i = lsb.bit_length() - 1
            walk(row[i], i, chain + (i,), tuple([rows[o][i] for o in others] + [j]))

    walk(start, -1, (), ())
    expected = sum(c for d, c in hist.items() if d > r0)
    if deferred != expected:
        raise VerificationError(
            f"deferred walk accounts for {deferred} deep covers, the counting pass for {expected}"
        )
    return Census(hist, tuple(samples), deferred, frozenset(irredundant_deep))
