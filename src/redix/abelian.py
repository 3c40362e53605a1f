"""Finite abelian groups as the Artinian arena for the sum-side index.

A finite abelian group is Artinian as a module over the integers, so
zero-dimensional duality questions can be asked directly: write the
group as an irredundant sum of sum-irreducible subgroups and count the
summands.  Everything here is small enough (order capped at 64) to
settle by exhaustive lattice search, which is the point: the counts the
structure theory predicts are recomputed from the raw subgroup lattice
with no structure theory in the loop.

The brute-force index search is a census (`census`) of progressive
families of sum-irreducible subgroups under join.  Its counting pass
memoizes on (join, last index), so the rank-six elementary 2-group,
with twenty-eight million minimum representations, counts in seconds;
the report says whether every irredundant representation had one length.
Its only primitive is the join, read off the table the lattice build
already fills: the index of S + <a> for every subgroup S and element a.
Each subgroup is the sum of the cyclic subgroups of the elements that
first reached it, so a join is that table folded over those elements,
and the census reads one row of joins per subgroup it reaches.

Sum-irreducibility is read off the lattice of subgroups as bitmasks
over the elements: a subgroup is a sum of two strictly smaller ones
unless it has exactly one lower cover, which one OR over the masks of
its proper subgroups decides (Davey-Priestley, Introduction to
Lattices and Order, ch. 2).  That union is also the union of the proper
cyclic subgroups <a> for a in the subgroup, so the OR runs over the
subgroup's members, not over the lattice, and <a> is the zero
subgroup's row of the closure table.

Inside, a subgroup is its mask and its index in the lattice; the
lattice build checks each subgroup it finds closed under addition
before it keeps the mask.  `Subgroup` objects, with their member sets,
are built only where a report hands subgroups out: the samples of the
search, the mismatches of the characterization, the primary parts of
the secondary representation and the argument of `quotient_group`.

Each of these facts is computed once per isomorphism class: groups are
hashable by their factors, and the addition table (one `bytes` row per
element: every element index is below MAX_ORDER = 64), the subgroup
lattice (with its sum-irreducible subgroups) and the search report are
cached on that key.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from math import prod

from .census import census
from .errors import MAX_ORDER, SizeCapError, TrivialGroupError, VerificationError, shown

QUOTIENT_SCAN_CAP = 32
SAMPLE_CAP = 12


def _prime_power_split(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n, primes ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    """Primes dividing n, ascending."""
    return tuple(p for p, _ in _prime_power_split(n))


def _check_order(order: int) -> None:
    """Refuse a group above MAX_ORDER before any order is split into primes."""
    if order > MAX_ORDER:
        raise SizeCapError(f"group order {shown(order)} exceeds the hard ceiling {MAX_ORDER}")


def _partitions(n: int):
    """Partitions of n as weakly decreasing tuples."""

    def go(left, cap):
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in go(left - first, first):
                yield (first,) + rest

    yield from go(n, n)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum of cyclic groups of prime-power order.

    Factors are kept sorted by (prime, exponent), so equal tuples mean
    isomorphic groups and the tuple doubles as a cache key.  Elements
    are integers 0..order-1 in mixed radix over the factors.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        for q in self.factors:
            if q < 2:
                raise ValueError(f"factor {q} is not a prime power")
        _check_order(prod(self.factors))
        keys = []
        for q in self.factors:
            split = _prime_power_split(q)
            if len(split) != 1:
                raise ValueError(f"factor {q} is not a prime power")
            keys.append(split[0])
        if keys != sorted(keys):
            raise ValueError("factors must be sorted by (prime, exponent)")

    @staticmethod
    def from_orders(*orders: int) -> "FiniteAbelianGroup":
        """Canonical form of Z/n1 + Z/n2 + ..., any positive orders."""
        for n in orders:
            if n < 1:
                raise ValueError(f"order {n} is not positive")
        _check_order(prod(orders))
        pieces = []
        for n in orders:
            for p, e in _prime_power_split(n):
                pieces.append(p**e)
        pieces.sort(key=lambda q: _prime_power_split(q)[0])
        return FiniteAbelianGroup(tuple(pieces))

    @cached_property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        s = [1] * len(self.factors)
        for i in range(len(self.factors) - 2, -1, -1):
            s[i] = s[i + 1] * self.factors[i + 1]
        return tuple(s)

    def coords(self, idx: int) -> tuple[int, ...]:
        out = []
        for q, s in zip(self.factors, self._strides):
            out.append((idx // s) % q)
        return tuple(out)

    def index(self, coords) -> int:
        return sum(c * s for c, s in zip(coords, self._strides))

    @cached_property
    def add_table(self) -> list[bytes]:
        return _add_table(self)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    @cached_property
    def _multiples(self) -> list[list[int]]:
        """[0, a, 2a, ...] up to the first return to 0, for each element a."""
        table = self.add_table
        out = []
        for a in range(self.order):
            row, mults, cur = table[a], [0], a
            while cur:
                mults.append(cur)
                cur = row[cur]
            out.append(mults)
        return out

    def scalar(self, n: int, a: int) -> int:
        mults = self._multiples[a]
        return mults[n % len(mults)]

    def element_order(self, a: int) -> int:
        return len(self._multiples[a])

    @cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({_prime_power_split(q)[0][0] for q in self.factors}))

    def p_part_group(self, p: int) -> "FiniteAbelianGroup":
        """Standalone copy of the p-primary component."""
        return FiniteAbelianGroup(
            tuple(q for q in self.factors if _prime_power_split(q)[0][0] == p)
        )

    def render(self) -> str:
        if not self.factors:
            return "0"
        return " + ".join(f"Z/{q}" for q in self.factors)

    def __str__(self) -> str:
        return self.render()


@cache
def _add_table(group: FiniteAbelianGroup) -> list[bytes]:
    """Addition table, shared by every instance with the same factors.

    Row a starts as the identity row and adds a's digit factor by
    factor: for digit c of factor q at stride s, entry x with digit d
    there moves by s * ((d + c) % q - d), read off a per-digit shift list.
    Each row is kept as bytes, since no element index reaches 256.
    """
    n = group.order
    digits = [[(x // s) % q for x in range(n)] for q, s in zip(group.factors, group._strides)]
    table = []
    for a in range(n):
        row = list(range(n))
        for q, s, dig in zip(group.factors, group._strides, digits):
            c = dig[a]
            if c:
                shift = [s * ((d + c) % q - d) for d in range(q)]
                row = [x + shift[d] for x, d in zip(row, dig)]
        table.append(bytes(row))
    return table


def _members(mask: int) -> list[int]:
    """The set bits of mask, ascending: the elements of a subgroup's mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_closed(table: list[bytes], members, mask: int) -> None:
    """Raise unless every sum of two of members, whose mask is mask, is in mask."""
    for a in members:
        row = table[a]
        for b in members:
            if not mask >> row[b] & 1:
                raise ValueError("member set is not closed under addition")


@dataclass(frozen=True)
class Subgroup:
    """Subgroup given by its element set, checked closed on construction."""

    group: FiniteAbelianGroup
    members: frozenset[int]

    def __post_init__(self):
        if 0 not in self.members:
            raise ValueError("a subgroup contains zero")
        _check_closed(self.group.add_table, self.members, self.mask)

    @staticmethod
    def of_mask(group: FiniteAbelianGroup, mask: int) -> "Subgroup":
        return Subgroup(group, frozenset(_members(mask)))

    @cached_property
    def mask(self) -> int:
        m = 0
        for a in self.members:
            m |= 1 << a
        return m

    @property
    def size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def render(self) -> str:
        return "{" + ", ".join(str(a) for a in self.sorted_members()) + "}"


class SubgroupLattice:
    """Every subgroup as a bitmask, canonically ordered, with its coset-closure table.

    Built by coset closure from the zero subgroup: each subgroup S found
    is grown by one element g at a time.  S + <g> is the union of the
    cosets S + t*g for t = 0, 1, ... up to the first t*g in S, and it
    depends only on g mod S, so S is grown once per coset, the union is
    an OR of coset masks, and results are deduplicated by mask.  Every
    subgroup is a join of cyclic ones, hence reached from zero by such
    steps, so nothing is missed.  Each subgroup found is checked closed
    under addition, on its member list, before its mask is kept.

    The build numbers subgroups as it finds them and keeps, per subgroup
    S, its coset labels (element -> coset number, as `bytes`: the order
    is at most 64) and the number of S + <g> for one g per coset; it
    sorts once at the end and fills each closure row with one lookup per
    coset, not one per element.

    Subgroup i is masks[i] over the elements (sorted by size, then by
    members), and index_of maps a mask back to i.  The lattice holds no
    `Subgroup`: subgroup(i) builds one for a report to hand out, checked
    again by its constructor, and keeps it, so the reports of one group
    share it.

    The closure is kept: _closure[i][a] is the index of subgroup i + <a>,
    and _gens[j] lists the elements g1, ..., gk added along the path
    that first reached subgroup j, so it is <g1> + ... + <gk>.  Sums of
    subgroups are associative, so subgroup i + subgroup j is i + <g1>,
    then + <g2>, and so on: row i folded over _gens[j], for any j,
    cyclic or not.  join_row(i, hs) is that fold for each h in hs, the
    row the census of joins reads for node i, with hs its sum-irreducible
    atoms.  Closure rows are compact arrays, of bytes up to 256
    subgroups and of 16-bit entries above (the rank-six elementary
    2-group has 2,825).  Reading a 16-bit entry above 256 makes a new
    int, so join_row hands out the lattice's own int for each index,
    _ints[k], and returns an exact-size tuple: a census row then costs
    8 bytes per entry.
    """

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        table = group.add_table
        n = group.order
        _check_closed(table, [0], 1)  # the zero subgroup, checked like the rest
        masks = [1]  # subgroup t, numbered as found, is masks[t]
        members = [[0]]  # and members[t] its sorted member list, checked closed
        found = {1: 0}  # mask -> number
        gens: list[tuple[int, ...]] = [()]
        labels: list[bytes] = []  # labels[t][a]: the coset of subgroup t holding element a
        joins: list[list[int]] = []  # joins[t][k]: the number of subgroup t + <g>, g in coset k
        for t, s_mask in enumerate(masks):  # grows as subgroups are found: breadth first
            s_list = members[t]
            coset_of = bytearray(b"\xff") * n  # no element index or coset number reaches 255
            coset_masks: list[int] = []
            reps = []
            for g in range(n):
                if coset_of[g] == 255:
                    k = len(coset_masks)
                    row = table[g]
                    coset = [row[s] for s in s_list]
                    for a in coset:
                        coset_of[a] = k
                    coset_masks.append(sum(1 << a for a in coset))
                    reps.append(g)
            out = [t]  # reps[0] = 0 stands for S itself
            for g in reps[1:]:
                mask, cur = s_mask, g
                while coset_of[cur]:
                    mask |= coset_masks[coset_of[cur]]
                    cur = table[cur][g]
                u = found.get(mask)
                if u is None:
                    m_list = _members(mask)
                    _check_closed(table, m_list, mask)
                    u = found[mask] = len(masks)
                    masks.append(mask)
                    members.append(m_list)
                    gens.append(gens[t] + (g,))
                out.append(u)
            labels.append(bytes(coset_of))
            joins.append(out)
        order = sorted(range(len(masks)), key=lambda t: (len(members[t]), members[t]))
        rank = [0] * len(order)
        for i, t in enumerate(order):
            rank[t] = i
        code = "B" if len(order) <= 256 else "H"
        self.masks = [masks[t] for t in order]
        self.index_of = {m: i for i, m in enumerate(self.masks)}
        self._closure = []
        for t in order:
            at = [rank[u] for u in joins[t]]  # one lookup per coset
            self._closure.append(array(code, map(at.__getitem__, labels[t])))
        self._gens = [gens[t] for t in order]
        self._ints = list(range(len(order)))
        self.trivial_index = self.index_of[1]
        self.full_index = self.index_of[(1 << n) - 1]
        self._subgroups: dict[int, Subgroup] = {}

    def __len__(self) -> int:
        return len(self.masks)

    def subgroup(self, h: int) -> Subgroup:
        """Subgroup h as a `Subgroup`, built on first use and kept."""
        sub = self._subgroups.get(h)
        if sub is None:
            sub = self._subgroups[h] = Subgroup.of_mask(self.group, self.masks[h])
        return sub

    def join_row(self, i: int, hs) -> tuple[int, ...]:
        """Index of subgroup i + subgroup h for each h in hs: row i folded over h's generators.

        Each index is the lattice's own int object for it, so the rows a
        census keeps share their ints instead of holding one per entry.
        """
        closure, gens, ints = self._closure, self._gens, self._ints
        row = []
        for h in hs:
            k = i
            for g in gens[h]:
                k = closure[k][g]
            row.append(ints[k])
        return tuple(row)

    def is_sum_irreducible_index(self, h: int) -> bool:
        """No two strictly smaller subgroups join to subgroup h.

        That holds exactly when subgroup h has one lower cover, i.e. its
        proper subgroups have a greatest element M: two of them then join
        inside M, while two distinct maximal ones A, B join to h, since
        A < A + B.  And a greatest M exists exactly when the union of the
        proper subgroups is itself a proper subgroup (it is M).  Every
        element a of a proper subgroup K has <a> inside K, so <a> is not
        subgroup h; and each such <a> is itself a proper subgroup.  So
        the union is that of the cyclic <a> != h over the set bits a of
        masks[h], one OR per member; <a> is the zero subgroup's closure
        row at a.
        """
        if h == self.trivial_index:
            raise TrivialGroupError("the zero subgroup is excluded by convention")
        masks = self.masks
        cyclic = self._closure[self.trivial_index]
        union = 0
        for a in _members(masks[h]):
            if cyclic[a] != h:
                union |= masks[cyclic[a]]
        return union != masks[h] and union in self.index_of

    @cached_property
    def sum_irreducible_indices(self) -> tuple[int, ...]:
        return tuple(
            h
            for h in range(len(self.masks))
            if h != self.trivial_index and self.is_sum_irreducible_index(h)
        )


@cache
def subgroup_lattice(group: FiniteAbelianGroup) -> SubgroupLattice:
    return SubgroupLattice(group)


def sum_index_formula(group: FiniteAbelianGroup) -> int:
    """Number of cyclic prime-power summands in the canonical form."""
    return len(group.factors)


@dataclass(frozen=True)
class SumIndexReport:
    """Result of the exhaustive sum-representation search."""

    group: FiniteAbelianGroup
    index: int
    minimum_count: int
    samples: tuple[tuple[Subgroup, ...], ...]
    cover_histogram: dict[int, int]
    deferred_checked: int
    equicardinal: bool  # no irredundant cover is deeper than the minimum


@cache
def sum_reducibility_index_bruteforce(group: FiniteAbelianGroup) -> SumIndexReport:
    """Index by a census of joins (see module doc); a strict join at least doubles the order."""
    if group.is_trivial:
        return SumIndexReport(group, 0, 1, ((),), {0: 1}, 0, True)

    lat = subgroup_lattice(group)
    irr = lat.sum_irreducible_indices
    hist, samples, deferred, irredundant_deep = census(
        lat.trivial_index,
        lat.full_index,
        lambda j: lat.join_row(j, irr),
        SAMPLE_CAP,
    )
    if not hist:
        raise VerificationError("no sum-irreducible family covers the group")
    r0 = min(hist)
    sample_subs = tuple(tuple(lat.subgroup(irr[i]) for i in chain) for chain in samples)
    return SumIndexReport(group, r0, hist[r0], sample_subs, hist, deferred, not irredundant_deep)


@dataclass(frozen=True)
class SecondaryPart:
    """One primary piece of the group with its action checks."""

    prime: int
    attached: int
    subgroup: Subgroup
    prime_nilpotent: bool
    action_split: bool


@dataclass(frozen=True)
class SecondaryReport:
    group: FiniteAbelianGroup
    parts: tuple[SecondaryPart, ...]
    direct_sum_ok: bool

    @property
    def attached(self) -> tuple[int, ...]:
        return tuple(part.attached for part in self.parts)

    @property
    def passed(self) -> bool:
        return self.direct_sum_ok and all(
            part.prime_nilpotent and part.action_split for part in self.parts
        )


def _stable_image(group: FiniteAbelianGroup, n: int, members: frozenset[int]) -> frozenset[int]:
    """Limit of members, n*members, n^2*members, ...; {0} exactly when n acts nilpotently."""
    cur = members
    while True:
        nxt = frozenset(group.scalar(n, g) for g in cur)
        if nxt == cur:
            return cur
        cur = nxt


@cache
def secondary_representation(group: FiniteAbelianGroup) -> SecondaryReport:
    """Split into primary parts and verify each integer acts one-sidedly.

    The part for p holds the elements whose order is a power of p.  On
    each part, every integer must act either surjectively or
    nilpotently; the part's attached prime is read off that action as
    the least n >= 2 acting nilpotently, so nothing here assumes it is p.
    """
    if group.is_trivial:
        raise TrivialGroupError("the trivial group has no secondary representation")
    order = group.order
    element_orders = [group.element_order(g) for g in range(order)]
    parts = []
    sizes = []
    masks = []
    for p in group.primes:
        members = frozenset(
            g
            for g, k in enumerate(element_orders)
            if all(q == p for q, _ in _prime_power_split(k))
        )
        sub = Subgroup(group, members)
        nilpotent = []
        split = True
        for n_act in range(order + 1):
            stable = _stable_image(group, n_act, members)
            if stable == {0}:
                nilpotent.append(n_act)
            elif stable != members:
                split = False  # neither surjective nor nilpotent
        attached = min(n for n in nilpotent if n >= 2)
        parts.append(SecondaryPart(p, attached, sub, p in nilpotent, split))
        sizes.append(len(members))
        masks.append(sub.mask)
    pairwise = all(
        masks[i] & masks[j] == 1 for i in range(len(masks)) for j in range(i + 1, len(masks))
    )
    direct_sum_ok = pairwise and prod(sizes) == order if parts else order == 1
    return SecondaryReport(group, tuple(parts), direct_sum_ok)


def attached_primes(group: FiniteAbelianGroup) -> tuple[int, ...]:
    return secondary_representation(group).attached


@dataclass(frozen=True)
class AdditivityReport:
    """Index of the whole group against its primary parts and the formula."""

    group: FiniteAbelianGroup
    whole_index: int
    part_indices: tuple[tuple[int, int], ...]
    formula_index: int

    @property
    def passed(self) -> bool:
        return (
            self.whole_index
            == sum(ix for _, ix in self.part_indices)
            == self.formula_index
        )


def additivity_report(group: FiniteAbelianGroup) -> AdditivityReport:
    whole = sum_reducibility_index_bruteforce(group).index
    parts = tuple(
        (p, sum_reducibility_index_bruteforce(group.p_part_group(p)).index)
        for p in group.primes
    )
    return AdditivityReport(group, whole, parts, sum_index_formula(group))


def quotient_group(group: FiniteAbelianGroup, sub: Subgroup) -> FiniteAbelianGroup:
    """Isomorphism type of group/sub, recovered by order counting.

    For each prime p, counting solutions of p^k * x inside the subgroup
    pins down how many cyclic p-power factors of each size the quotient
    has; no coset arithmetic is needed.
    """
    if sub.group is not group and sub.group != group:
        raise ValueError("subgroup belongs to a different group")
    q_order = group.order // sub.size
    factors = []
    for p, _ in _prime_power_split(q_order):
        ranks = []
        prev_s = 0
        k = 1
        while True:
            cnt = sum(
                1 for g in range(group.order) if group.scalar(p**k, g) in sub.members
            )
            cnt //= sub.size
            s_k = 0
            while cnt > 1:
                cnt //= p
                s_k += 1
            r_k = s_k - prev_s
            if r_k == 0:
                break
            ranks.append(r_k)
            prev_s = s_k
            k += 1
        for depth in range(len(ranks)):
            exact = ranks[depth] - (ranks[depth + 1] if depth + 1 < len(ranks) else 0)
            factors.extend([p ** (depth + 1)] * exact)
    out = FiniteAbelianGroup.from_orders(*factors)
    if out.order != q_order:
        raise VerificationError("order counting failed to reconstruct the quotient")
    return out


@dataclass(frozen=True)
class QuotientMonotonicityReport:
    group: FiniteAbelianGroup
    whole_index: int
    quotients_checked: int
    max_quotient_index: int
    agreement_ok: bool
    irreducibility_inherited: bool

    @property
    def passed(self) -> bool:
        return (
            self.agreement_ok
            and self.irreducibility_inherited
            and self.max_quotient_index <= self.whole_index
        )


def quotient_monotonicity_report(group: FiniteAbelianGroup) -> QuotientMonotonicityReport:
    """Index of every quotient stays at or below the index of the group.

    Also checks the sharper edge: a sum-irreducible group only has
    sum-irreducible nontrivial quotients.
    """
    if group.order > QUOTIENT_SCAN_CAP:
        raise SizeCapError(
            f"order {group.order} exceeds quotient scan cap {QUOTIENT_SCAN_CAP}"
        )
    whole = sum_reducibility_index_bruteforce(group).index
    worst = 0
    agree = True
    inherited = True
    count = 0
    for mask in subgroup_lattice(group).masks:
        q = quotient_group(group, Subgroup.of_mask(group, mask))
        brute = sum_reducibility_index_bruteforce(q).index
        if brute != sum_index_formula(q):
            agree = False
        if whole == 1 and not q.is_trivial and brute != 1:
            inherited = False
        worst = max(worst, brute)
        count += 1
    return QuotientMonotonicityReport(group, whole, count, worst, agree, inherited)


@dataclass(frozen=True)
class CharacterizationReport:
    """Sum-irreducible subgroups vs nontrivial cyclic prime-power ones."""

    group: FiniteAbelianGroup
    subgroups_checked: int
    mismatches: tuple[Subgroup, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def characterization_report(group: FiniteAbelianGroup) -> CharacterizationReport:
    lat = subgroup_lattice(group)
    irreducible = set(lat.sum_irreducible_indices)
    bad = []
    count = 0
    for h, mask in enumerate(lat.masks):
        if h == lat.trivial_index:
            continue
        size = mask.bit_count()
        lattice_side = h in irreducible
        # cyclic of prime-power order: |S| is a prime power and some member has order |S|
        structure_side = len(_prime_power_split(size)) == 1 and any(
            group.element_order(a) == size for a in _members(mask)
        )
        count += 1
        if lattice_side != structure_side:
            bad.append(lat.subgroup(h))
    return CharacterizationReport(group, count, tuple(bad))


def abelian_group_classes(max_order: int):
    """All isomorphism classes of abelian groups of order 1..max_order."""
    for n in range(1, max_order + 1):
        split = _prime_power_split(n)
        per_prime = []
        for p, e in split:
            per_prime.append([tuple(p**part for part in lam) for lam in _partitions(e)])
        if not per_prime:
            yield FiniteAbelianGroup(())
            continue
        for choice in itertools.product(*per_prime):
            yield FiniteAbelianGroup.from_orders(*itertools.chain(*choice))
