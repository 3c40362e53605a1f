"""Finite-length duality through staircases of standard monomials.

For a finite-colength monomial ideal I the quotient ring has the finite
staircase G = standard monomials as a basis, kept here as a set of
exponent vectors (Monomial objects appear only when it is rendered).
The dual module lives on the same set with the divisibility order
reversed: a submodule of the dual is a subset of G closed under passing
to divisors (a downset), and the cyclic submodule generated by u is the
principal downset of its divisors.  Under this dictionary:

  * generators of the dual correspond to maximal elements of G,
  * sum-irreducible submodules are exactly principal downsets,
  * expressing the dual as an irredundant sum of sum-irreducible
    submodules is covering G irredundantly by principal downsets,
  * quotients of the dual by a downset B live on G minus B.

So the sum-reducibility index of the dual is the number of maximal
elements, which a separate minimum-cover search can confirm without
knowing anything about maximality, and a census of progressive covers
(`census`) checks that every irredundant cover has that size.  The ring
here is a finite dimensional graded algebra over the field, already
complete, so the index of the ideal and the index of its dual agree on
the nose; the reports state that equality and verify it numerically.

The checks on downsets of one staircase run thousands of times in a row
(every downset of every small staircase), so `DownsetSubmodule` reads a
table that the staircase builds on first read, `Staircase._neighbours`:
each member's immediate divisors inside the staircase.  Quotient indices
read downsets as bitmasks over the sorted members; `quotient_indices`
builds each member's bit and the mask of its x_i multiples in one pass
over those members, once per call, and keeps nothing on the staircase.
Building a staircase and finding its maximal elements stay on tuple
arithmetic, so a large staircase that is only rendered never builds
tables, and `maximal_elements` shares no table with the quotient count
it bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import le

from .bass import bass0, reducibility_index_by_bass
from .census import census
from .decompose import decompose
from .errors import EmptyStaircaseError, SizeCapError, VerificationError
from .monomial import Monomial, MonomialIdeal, RingContext

MIN_COVER_CAP = 25
ALL_COVERS_CAP = 12


def _check_downset(exps) -> None:
    """Raise unless every exponent vector's immediate divisors are in the set too."""
    for e in exps:
        for i, v in enumerate(e):
            if v and e[:i] + (v - 1,) + e[i + 1 :] not in exps:
                raise ValueError("not closed under divisors")


@dataclass(frozen=True)
class Staircase:
    """Finite downset of exponent vectors, the standard monomials of some ideal."""

    ring: RingContext
    exponents: frozenset[tuple[int, ...]]

    def __post_init__(self):
        _check_downset(self.exponents)

    @staticmethod
    def from_ideal(ideal: MonomialIdeal) -> "Staircase":
        return Staircase(ideal.ring, ideal.standard_monomials())

    @property
    def size(self) -> int:
        return len(self.exponents)

    def ideal(self) -> MonomialIdeal:
        """The ideal this is the staircase of: minimal monomials outside."""
        if not self.exponents:
            return MonomialIdeal.unit(self.ring)
        exps = self.exponents
        border = {e[:i] + (v + 1,) + e[i + 1 :] for e in exps for i, v in enumerate(e)}
        return MonomialIdeal.of(self.ring, border - exps)

    def sorted_monomials(self) -> list[Monomial]:
        """The staircase as monomials in lex order, for rendering."""
        return [Monomial(e, self.ring) for e in sorted(self.exponents)]

    @cached_property
    def _neighbours(self) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        """Each member's immediate divisors inside the staircase."""
        exps = self.exponents
        divisors = {e: [] for e in exps}
        for e in exps:
            for i, v in enumerate(e):
                up = e[:i] + (v + 1,) + e[i + 1 :]
                if up in exps:
                    divisors[up].append(e)
        return divisors


def maximal_elements(g: Staircase) -> frozenset[tuple[int, ...]]:
    """Exponent vectors with no multiple inside the staircase: the dual's generators."""
    exps = g.exponents
    return frozenset(
        e
        for e in exps
        if all(e[:i] + (v + 1,) + e[i + 1 :] not in exps for i, v in enumerate(e))
    )


@dataclass(frozen=True)
class DownsetSubmodule:
    """Submodule of the dual: a divisor-closed subset of the staircase."""

    staircase: Staircase
    members: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if not self.members <= self.staircase.exponents:
            raise ValueError("members must lie in the staircase")
        # the staircase is a downset, so its divisor table lists every
        # immediate divisor of a member: the test of _check_downset
        divisors = self.staircase._neighbours
        if not all(self.members.issuperset(divisors[e]) for e in self.members):
            raise ValueError("not closed under divisors")

    @property
    def size(self) -> int:
        return len(self.members)


def _principal_masks(g: Staircase) -> list[int]:
    """Bitmask of each principal downset over the staircase in sorted order."""
    order = sorted(g.exponents)
    masks = []
    for u in order:
        mask = 0
        for i, m in enumerate(order):
            if all(map(le, m, u)):
                mask |= 1 << i
        masks.append(mask)
    return masks


def min_cover_oracle(g: Staircase) -> int:
    """Minimum number of principal downsets covering the staircase.

    Depth-budgeted search over every principal downset with no use of
    maximality; the budget rises until a cover appears, so the first hit
    is the true minimum.  Pruned by the union of what is still
    selectable.  Capped at 25 monomials.
    """
    if not g.exponents:
        raise EmptyStaircaseError("the unit ideal leaves an empty staircase")
    if g.size > MIN_COVER_CAP:
        raise SizeCapError(f"staircase size {g.size} exceeds cap {MIN_COVER_CAP}")
    masks = _principal_masks(g)
    masks.sort(key=lambda m: -m.bit_count())
    want = (1 << g.size) - 1
    suffix = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]

    def reachable(budget: int, start: int, acc: int) -> bool:
        if acc == want:
            return True
        if budget == 0 or acc | suffix[start] != want:
            return False
        for i in range(start, len(masks)):
            # only additions that grow the union matter: any cover thins
            # to one of this shape without getting longer
            if masks[i] & ~acc and reachable(budget - 1, i + 1, acc | masks[i]):
                return True
        return False

    for r in range(1, g.size + 1):
        if reachable(r, 0, 0):
            return r
    raise VerificationError("staircase cannot be covered by its own downsets")


def irredundant_cover_sizes(g: Staircase) -> set[int]:
    """Sizes of all irredundant covers by principal downsets (cap 12).

    Used to confirm that every irredundant cover has the same size, by a
    census of unions (`census`); each strict union adds a monomial.
    """
    if not g.exponents:
        raise EmptyStaircaseError("the unit ideal leaves an empty staircase")
    if g.size > ALL_COVERS_CAP:
        raise SizeCapError(f"staircase size {g.size} exceeds cap {ALL_COVERS_CAP}")
    masks = _principal_masks(g)
    found = census(0, (1 << g.size) - 1, lambda a: [a | x for x in masks], 0)
    return {min(found.histogram)} | found.irredundant_deep


def sum_covers_iff_dual_disjoint(
    g: Staircase, b: DownsetSubmodule, c: DownsetSubmodule
) -> tuple[bool, bool]:
    """Two routes to one biconditional.

    Left: the duals of the quotients by B and C intersect in zero, which
    on basis monomials means no monomial escapes both B and C.  Right:
    B and C sum to the whole dual, checked member by member.  The lemma
    says the answers always agree.
    """
    left = not (g.exponents - (b.members | c.members))
    right = all((e in b.members) or (e in c.members) for e in g.exponents)
    return left, right


def quotient_indices(g: Staircase, masks) -> list[int]:
    """Sum-reducibility index of (dual module)/B for each downset mask b.

    Bit k of a mask stands for the k-th member of G in sorted order, the
    order `_downsets` uses.  The quotient by B has basis G minus B, the
    mask full ^ b, with the inherited action, and its generators are the
    members of that basis with no x_i multiple in it: those whose mask
    of x_i multiples inside G misses full ^ b.  They are counted on that
    basis alone.  Since B is a downset, G minus B is an upset of G: a
    multiple inside G of an element outside B is outside B too.  So
    these are exactly the corners of G that escaped B, which is what
    makes the count at most the index of the dual; the count never uses
    that, or the comparison with the corner count would prove nothing.
    For B = G the quotient is zero and the index is 0.  The masks are
    taken as given: a caller passes masks of downsets.
    """
    bit = {e: 1 << k for k, e in enumerate(sorted(g.exponents))}
    table = []
    for e, own in bit.items():
        up = 0
        for i, v in enumerate(e):
            up |= bit.get(e[:i] + (v + 1,) + e[i + 1 :], 0)
        table.append((own, up))
    full = (1 << len(table)) - 1
    out = []
    for b in masks:
        rest = full ^ b
        count = 0
        for k, up in table:
            if rest & k and not rest & up:
                count += 1
        out.append(count)
    return out


@dataclass(frozen=True)
class DualIndexReport:
    """The index of I and of its dual, by every route that applies."""

    ideal: MonomialIdeal
    staircase: Staircase
    corners: frozenset[tuple[int, ...]]
    ir_decomposition: int
    ir_socle_formula: int
    top_socle: int
    min_cover: int | None
    completion_note: str

    @property
    def staircase_size(self) -> int:
        return self.staircase.size

    @property
    def dual_generator_count(self) -> int:
        return len(self.corners)

    @property
    def all_equal(self) -> bool:
        vals = {self.ir_decomposition, self.ir_socle_formula, self.dual_generator_count}
        if self.min_cover is not None:
            vals.add(self.min_cover)
        return len(vals) == 1


def dual_index_report(ideal: MonomialIdeal) -> DualIndexReport:
    """Index of a finite-colength ideal against the dual-side counts.

    The socle dimension at the top prime (all variables), `top_socle`,
    is read from `bass0`, never from the corners.  It comes from the
    same socle walk (`bass._socle_walk`) as `ir_socle_formula`, and the
    top prime is the only associated prime of a finite-colength ideal,
    so it repeats that count rather than giving a route of its own.
    """
    g = Staircase.from_ideal(ideal)
    if not g.exponents:
        raise EmptyStaircaseError("the unit ideal leaves an empty staircase")
    ir_dec = decompose(ideal).count
    socle = reducibility_index_by_bass(ideal)
    cover = min_cover_oracle(g) if g.size <= MIN_COVER_CAP else None
    note = (
        "finite length over a field: the ring is already complete, so the"
        " dual index equals the index exactly, with no completion gap"
    )
    return DualIndexReport(
        ideal=ideal,
        staircase=g,
        corners=maximal_elements(g),
        ir_decomposition=ir_dec,
        ir_socle_formula=socle.index,
        top_socle=bass0(ideal, range(ideal.ring.n))[0],
        min_cover=cover,
        completion_note=note,
    )
