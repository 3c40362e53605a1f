"""Census of progressive families: every cover of a lattice's top, by depth.

The exhaustive index oracles (sums of subgroups, unions of staircase
downsets, meets of submodules) ask one question: which families of
atoms carry a start node to the top, and do all irredundant ones have
the same length?  The caller hands over one row per node: `row_of(j)[i]`
combines node j with atom i, and is j itself when the atom does not
escape it.  The atoms are the m positions of the start node's row.

A family is progressive when its atoms come in increasing index order
and each escapes the combination of the earlier ones.  Every
irredundant cover is progressive (a member inside the combination of
the others is inside that of the earlier ones) and is visited once, so
the least depth of a progressive cover is the index and the count there
is the number of minimum covers.  Combinations depend only on the
running node, so the counting pass memoizes on (node, last index).

Lemma (packed counts): the counting row of (node, last) is one int
whose lane d, the m + 1 bits from bit d*(m + 1), counts the progressive
chains that carry the node to the top with d more atoms, all above
last.  A progressive chain is a set of atoms, so a lane holds at most
C(m, d) < 2^m chains and never carries into the next: a node's row is
the sum of its children's rows plus its count of top children, shifted
one lane up.  A sum of rows, and of counts in lane 0, whose chains are
distinct sets holds at most 2^m chains in a lane, which never carries
either, so the walk below adds the rows of the prefixes it settles and
its counts of deep top children into one packed int, read out once, at
the end.

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
each is one deep cover, counted by a popcount; at the minimum depth
they are the samples, taken in index order until `sample_cap` are held.

Lemma (top children): a child rows[j][i] that is the top is redundant
exactly when i is in tops[o] for some other o.  Row o agrees with row j
at i exactly when rows[o][i] is the top, and o is not the top itself
(it is the combination of part of a family that has not reached it), so
that is i in tops[o].  The deep covers among node j's top children are
thus checked by one AND with the complement of the OR of tops[o], and
the same(o, j) masks are built only when other children remain to be
pruned.

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
so the walk adds the prefix's counting row.  A prefix whose counting
row is 0 has no cover under it, so nothing to sample, count or check,
and the walk skips it.  Once the samples are in, it also skips a prefix
whose row has no lane past the minimum: every cover under it is a
minimum cover, with nothing left to take or check.  A deep leaf has an
irredundant prefix, so its own redundancy is the check.

Lemma (deep leaves): take a child c = rows[j][i] whose prefix (the
chain to j, then i) has length k >= r0, the minimum, and whose counting
row has lane 1 only: every cover under c is a top child of c, of length
k + 1 > r0.  Visiting c would count them (lane 1 is their number, so
the parent adds the row) and test them against the tops of c's others,
which are j and rows[o][i] for the others o of j; c's other children
have empty rows and would be skipped.  So the parent settles c in
place: the top children of c above i outside tops[j] |
OR(tops[rows[o][i]]) are its irredundant deep covers.

The two recursive passes call themselves through their closure cells,
a reference cycle that would keep every table alive after the census
returns, until a cycle collection happened to run.  The census deletes
each pass once it is done, so the tables are freed by reference
counting when it returns.

No irredundant deep cover is the executable form of the claim that
every irredundant cover has the same length (the bookkeeping is the
"crit/uncov" idea of Murakami-Uno, Discrete Appl. Math. 170, 2014).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .errors import VerificationError


class Census(NamedTuple):
    histogram: dict[int, int]  # depth -> progressive covers of that depth
    samples: tuple[tuple[int, ...], ...]  # first minimum covers, DFS order
    deferred: int  # covers deeper than the minimum, all checked
    irredundant_deep: frozenset[int]  # depths of irredundant deep covers


def _lanes(packed: int, width: int) -> list[int]:
    """The lanes of a packed count, lane d from bit d*width."""
    full = (1 << width) - 1
    lanes = []
    while packed:
        lanes.append(packed & full)
        packed >>= width
    return lanes


def census(
    start: int, top: int, row_of: Callable[[int], Sequence[int]], sample_cap: int
) -> Census:
    """Progressive covers of top from start by the atoms of row_of(start) (see module doc).

    Nodes are ints (lattice indices or bitmasks) and start is not top.
    """
    rows: dict[int, Sequence[int]] = {}
    avails: dict[int, int] = {}
    tops: dict[int, int] = {}

    def ensure(j: int) -> None:
        if j not in rows:
            rows[j] = row = row_of(j)
            avail = ends = 0
            for i, child in enumerate(row):
                if child != j:
                    avail |= 1 << i
                    if child == top:
                        ends |= 1 << i
            avails[j], tops[j] = avail, ends

    ensure(start)
    width = len(rows[start]) + 1
    memo: dict[int, int] = {}

    def counts_below(j: int, last: int) -> int:
        """Packed counting row of (j, last): lane d counts covers using d more atoms.

        The rows of children are memoized under child * width + i + 1.
        """
        row = rows[j]
        ends = tops[j] >> (last + 1)
        total = ends.bit_count()
        av = (avails[j] >> (last + 1)) ^ ends
        base = last + 1
        while av:
            lsb = av & -av
            av ^= lsb
            i = base + lsb.bit_length() - 1
            child = row[i]
            key = child * width + i + 1
            got = memo.get(key)
            if got is None:
                ensure(child)
                got = memo[key] = counts_below(child, i)
            total += got
        return total << width

    hist = {d: c for d, c in enumerate(_lanes(counts_below(start, -1), width)) if c}
    del counts_below  # it calls itself through its cell; see the module doc
    if not hist:
        return Census(hist, (), 0, frozenset())
    r0 = min(hist)
    deep = max(hist) > r0
    leaf = 1 << 2 * width  # counting rows below this hold lane 1 only
    samples: list[tuple[int, ...]] = []
    deferred = 0  # packed: deep top children in lane 0, settled prefixes' counting rows
    irredundant_deep: set[int] = set()
    same: dict[int, dict[int, int]] = {}

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
        row = rows[j]
        av = avails[j] >> (last + 1) << (last + 1)
        depth = len(chain) + 1
        ends = av & tops[j]
        if ends:
            av ^= ends
            if depth > r0:
                deferred += ends.bit_count()
                for o in others:
                    ends &= ~tops[o]
                if ends:
                    irredundant_deep.add(depth)
            else:  # depth == r0: none is shallower
                while ends and len(samples) < sample_cap:
                    lsb = ends & -ends
                    ends ^= lsb
                    samples.append(chain + (lsb.bit_length() - 1,))
        if deep and av and others:  # without deep covers, every redundant prefix is dead
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
            pruned = av & red
            av ^= pruned
            while pruned:
                lsb = pruned & -pruned
                pruned ^= lsb
                i = lsb.bit_length() - 1
                deferred += memo[row[i] * width + i + 1]
        shallow = 1 << max(r0 - depth + 1, 1) * width  # rows below this hold no deep cover
        while av:
            lsb = av & -av
            av ^= lsb
            i = lsb.bit_length() - 1
            child = row[i]
            total = memo[child * width + i + 1]
            if not total or total < shallow and len(samples) >= sample_cap:
                continue  # a dead prefix, or one holding only minimum covers with the samples in
            if depth >= r0 and total < leaf:  # a deep leaf, settled here
                deferred += total
                ends = tops[child] >> (i + 1) << (i + 1) & ~tops[j]
                for o in others:
                    ends &= ~tops[rows[o][i]]
                if ends:
                    irredundant_deep.add(depth + 1)
                continue
            walk(child, i, chain + (i,), tuple([rows[o][i] for o in others] + [j]))

    walk(start, -1, (), ())
    del walk
    deferred = sum(_lanes(deferred, width))
    expected = sum(c for d, c in hist.items() if d > r0)
    if deferred != expected:
        raise VerificationError(
            f"deferred walk accounts for {deferred} deep covers, the counting pass for {expected}"
        )
    return Census(hist, tuple(samples), deferred, frozenset(irredundant_deep))
