"""Univariate polynomials over small finite fields.

Coefficient lists are dense, lowest degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  Prime fields store
elements as ints mod p; extension fields store them as coefficient
tuples mod a monic irreducible modulus over the prime field.  Bounds
are hard errors: fields refuse p > 13 or size above 13^3, and factoring
and the irreducibility test refuse, before dividing, a degree-n
polynomial over GF(q) whose q + q^2 + ... + q^(n//2) trial divisors
exceed MAX_TRIAL_DIVISORS.

Factoring is trial division by monic candidates of increasing degree,
each tried once, which is deterministic and adequate within the cap.  A
divisor of minimal degree is automatically irreducible, so the factor
list is correct without a separate irreducibility pass.

Field fibers need no factoring upstairs: an irreducible g of degree d
over GF(q) splits over GF(q^k) into gcd(d, k) distinct irreducibles of
degree d / gcd(d, k) (Lidl-Niederreiter, Finite Fields, Thm. 3.46).

The module also carries an exhaustive oracle for the index of k[x]/(f):
it finds every submodule (each is generated by one element) as a
subspace of GF(p)^d, by row-reducing each element's x-orbit to a
canonical echelon basis, lists the points of each distinct submodule
once as a bitmask over the quotient's elements, keeps the
meet-irreducible ones (those with one upper cover, decided by one AND
over the submodules above), and counts every irredundant family meeting
in zero with the census of progressive families shared by the
exhaustive oracles.  That route never factors anything: it works on
element indices with its own addition and scaling tables and companion
shift, sharing no polynomial arithmetic with `factor`, so it can sit on
the other side of a cross-check from the factor-counting route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

from . import basechange
from .census import census
from .errors import DimensionMismatchError, SizeCapError, VerificationError

MAX_TRIAL_DIVISORS = 50_000
# degrees and exponents the polynomial grammar reads; above the degree 29
# that MAX_TRIAL_DIVISORS admits over GF(2), the most any field admits
MAX_POLY_DEGREE = 64
MAX_FIELD_SIZE = 13**3
MAX_PRIME = 13
MAX_LATTICE_SIZE = 512

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _poly_str(coeffs, var: str, render, one) -> str:
    """Shared renderer for dense low-first coefficient sequences."""
    if not coeffs:
        return "0"
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not _is_zero_like(c):
            if d == 0:
                parts.append(render(c))
            else:
                xpow = var if d == 1 else f"{var}^{d}"
                parts.append(xpow if c == one else f"{render(c)}*{xpow}")
    return "+".join(parts)


def _is_zero_like(c) -> bool:
    return c == 0 or (isinstance(c, tuple) and not any(c))


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p <= 13; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if self.p not in _SMALL_PRIMES:
            raise SizeCapError(f"prime field size must be a prime <= {MAX_PRIME}, got {self.p}")

    @property
    def size(self) -> int:
        return self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def elements(self):
        return range(self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def render_element(self, a) -> str:
        return str(a)

    def render(self) -> str:
        return f"GF({self.p})"


@dataclass(frozen=True)
class ExtField:
    """GF(p^k) as polynomials in a generator modulo a monic irreducible.

    Elements are coefficient tuples of length k over GF(p).  The modulus
    is given low-first including the leading 1, and is verified
    irreducible on construction.  Products and inverses are read off
    log tables, built once by multiplying polynomials mod the modulus.
    """

    base: PrimeField
    modulus: tuple[int, ...]
    gen_name: str = "t"

    def __post_init__(self):
        k = len(self.modulus) - 1
        if k < 2:
            raise ValueError("extension degree must be at least 2")
        if self.modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if self.base.p**k > MAX_FIELD_SIZE:
            raise SizeCapError(f"field size {self.base.p}^{k} exceeds cap {MAX_FIELD_SIZE}")
        mod_poly = UniPoly(self.base, self.modulus)
        if not is_irreducible(mod_poly):
            raise ValueError(f"modulus {mod_poly.render(self.gen_name)} is not irreducible")

    @property
    def k(self) -> int:
        return len(self.modulus) - 1

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def size(self) -> int:
        return self.base.p**self.k

    @property
    def zero(self):
        return (0,) * self.k

    @property
    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def embed(self, a: int):
        """Image of a prime-field element."""
        return (a % self.p,) + (0,) * (self.k - 1)

    def elements(self):
        for rev in itertools.product(range(self.p), repeat=self.k):
            yield tuple(reversed(rev))

    def add(self, a, b):
        p = self.base.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub(self, a, b):
        p = self.base.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    @cached_property
    def _logs(self):
        """Log and antilog tables along the first element of order q - 1."""
        mod, pad = UniPoly(self.base, self.modulus), (0,) * self.k
        for g in itertools.islice(self.elements(), 1, None):  # skip zero
            step = cur = UniPoly.make(self.base, g)
            exp = [self.one]
            while cur.coeffs != (1,):
                exp.append((cur.coeffs + pad)[: self.k])
                cur = cur.mul(step).mod(mod)
            if len(exp) == self.size - 1:
                return {e: i for i, e in enumerate(exp)}, exp

    def mul(self, a, b):
        if not (any(a) and any(b)):
            return self.zero
        log, exp = self._logs
        return exp[(log[a] + log[b]) % len(exp)]

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        log, exp = self._logs
        return exp[-log[a] % len(exp)]

    def render_element(self, a) -> str:
        return _poly_str(a, self.gen_name, str, 1)

    def render(self) -> str:
        return f"GF({self.size})"


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial over a PrimeField or ExtField."""

    field: object
    coeffs: tuple

    def __post_init__(self):
        if self.coeffs and _is_zero_like(self.coeffs[-1]):
            raise ValueError("trailing zero coefficient; normalize first")

    @staticmethod
    def make(field, coeffs) -> "UniPoly":
        cs = list(coeffs)
        while cs and _is_zero_like(cs[-1]):
            cs.pop()
        return UniPoly(field, tuple(cs))

    @staticmethod
    def zero(field) -> "UniPoly":
        return UniPoly(field, ())

    @staticmethod
    def one(field) -> "UniPoly":
        return UniPoly(field, (field.one,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _same_field(self, other: "UniPoly"):
        if self.field != other.field:
            raise DimensionMismatchError("polynomials over different fields")

    def mul(self, other: "UniPoly") -> "UniPoly":
        self._same_field(other)
        F = self.field
        if self.is_zero or other.is_zero:
            return UniPoly.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if _is_zero_like(x):
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
        return UniPoly.make(F, out)

    def scale(self, c) -> "UniPoly":
        F = self.field
        return UniPoly.make(F, [F.mul(c, a) for a in self.coeffs])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        F = self.field
        mul, sub, inv_lead = F.mul, F.sub, F.inv(other.lead())
        rem = list(self.coeffs)
        q = [F.zero] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        while len(rem) - 1 >= d and rem:
            c = mul(rem.pop(), inv_lead)  # the leading terms cancel
            shift = len(rem) - d
            q[shift] = c
            for j, b in enumerate(other.coeffs[:-1]):
                rem[shift + j] = sub(rem[shift + j], mul(c, b))
            while rem and _is_zero_like(rem[-1]):
                rem.pop()
        return UniPoly.make(F, q), UniPoly.make(F, rem)

    def mod(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def divides(self, other: "UniPoly") -> bool:
        return other.mod(self).is_zero

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lead()))

    def pow(self, e: int) -> "UniPoly":
        out = UniPoly.one(self.field)
        for _ in range(e):
            out = out.mul(self)
        return out

    def sort_key(self):
        return (self.degree, tuple(self.coeffs))

    def render(self, var: str = "x") -> str:
        F = self.field
        if isinstance(F, ExtField):
            def rend(c):
                s = F.render_element(c)
                return f"({s})" if ("+" in s or "*" in s or "^" in s) else s
        else:
            rend = F.render_element
        return _poly_str(self.coeffs, var, rend, F.one)

    def __str__(self) -> str:
        return self.render()


def monic_polys(field, degree: int):
    """All monic polynomials of the given degree, in a fixed canonical order."""
    elems = list(field.elements())
    for low in itertools.product(elems, repeat=degree):
        yield UniPoly(field, tuple(low) + (field.one,))


def _cap_trial_divisors(f: UniPoly) -> None:
    """Refuse f if trial division could try more than MAX_TRIAL_DIVISORS candidates."""
    total = 0
    for d in range(1, f.degree // 2 + 1):
        total += f.field.size**d
        if total > MAX_TRIAL_DIVISORS:
            cause = f"degree {f.degree} over {f.field.render()}"
            raise SizeCapError(f"{cause} needs over {MAX_TRIAL_DIVISORS} trial divisors")


def is_irreducible(f: UniPoly) -> bool:
    """Trial division test; constants and the zero polynomial are not irreducible."""
    if f.degree < 1:
        return False
    _cap_trial_divisors(f)
    for d in range(1, f.degree // 2 + 1):
        for cand in monic_polys(f.field, d):
            if cand.divides(f):
                return False
    return True


@dataclass(frozen=True)
class Factorization:
    """unit * product of monic irreducible factors with multiplicities."""

    field: object
    unit: object
    factors: tuple[tuple[UniPoly, int], ...]  # sorted by (degree, coeffs)

    @property
    def distinct_count(self) -> int:
        return len(self.factors)

    def reconstruct(self) -> UniPoly:
        out = UniPoly(self.field, (self.unit,))
        for g, m in self.factors:
            out = out.mul(g.pow(m))
        return out


def factor(f: UniPoly) -> Factorization:
    """Complete factorization into monic irreducibles by trial division."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    _cap_trial_divisors(f)
    unit = f.lead()
    g = f.monic()
    found: list[tuple[UniPoly, int]] = []
    for d in range(1, f.degree // 2 + 1):
        for cand in monic_polys(f.field, d):
            if 2 * d > g.degree:  # what is left of g is irreducible
                break
            mult = 0  # a candidate that missed g misses its later quotients too
            while cand.divides(g):
                g = g.divmod(cand)[0]
                mult += 1
            if mult:
                found.append((cand, mult))
    if g.degree >= 1:
        found.append((g, 1))
    found.sort(key=lambda t: t[0].sort_key())
    return Factorization(f.field, unit, tuple(found))


def hypersurface_index(f: UniPoly) -> int:
    """Index of k[x]/(f): the number of distinct irreducible factors.

    Zero in k[x]/(f) is the intersection of the primary pieces cut out
    by the distinct factors, one irreducible component each, and the sum
    of the socle dimensions matches because each localization is a
    quotient of a discrete valuation ring, whose socle is a line.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial does not define a hypersurface ring")
    if f.degree == 0:
        raise ValueError("a nonzero constant cuts out the zero ring")
    return factor(f).distinct_count


def irreducible_modulus(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over GF(p) in canonical order."""
    F = PrimeField(p)
    if p**k > MAX_FIELD_SIZE:
        raise SizeCapError(f"field size {p}^{k} exceeds cap {MAX_FIELD_SIZE}")
    for cand in monic_polys(F, k):
        if is_irreducible(cand):
            return cand.coeffs
    raise ArithmeticError("no irreducible polynomial found; impossible")


def embed_poly(f: UniPoly, ext: ExtField) -> UniPoly:
    """Coefficientwise embedding of a prime-field polynomial."""
    if not isinstance(f.field, PrimeField) or f.field.p != ext.p:
        raise DimensionMismatchError("polynomial is not over the base prime field")
    return UniPoly.make(ext, [ext.embed(c) for c in f.coeffs])


def field_extension_report(f: UniPoly, ext: ExtField):
    """Index of k[x]/(f) before vs after extending the coefficient field.

    Prediction: f is factored over the base field only, and a base
    factor of degree d has fiber gcd(d, k) (the closed form in the module
    docstring).  Direct: the embedded f is factored, first, so a size cap
    refuses before any other work.  Check 4 gives each direct factor to
    the base factor g whose embedding it divides, and holds when every g
    owns gcd(d, k) factors of degree d / gcd(d, k) and multiplicity
    mult(g) and every direct factor is owned.  Distinct base factors stay
    coprime over any extension, so no factor is owned twice; the factors
    g owns are distinct monic irreducibles with degrees summing to deg g,
    so their product is embed(g).  So check 4 pins the multiset of the
    product of the embed(g)^mult(g), and tests the closed form against
    the direct side.
    """
    if f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    direct_fact = factor(embed_poly(f, ext))
    base_fact = factor(f)
    r_before, direct = base_fact.distinct_count, direct_fact.distinct_count
    splits = [math.gcd(g.degree, ext.k) for g, _ in base_fact.factors]
    embedded = [embed_poly(g, ext) for g, _ in base_fact.factors]
    owned = [[(q, m) for q, m in direct_fact.factors if q.divides(h)] for h in embedded]
    owned_right = sum(map(len, owned)) == direct and all(
        len(mine) == s and all(q.degree * s == g.degree and m == mult for q, m in mine)
        for (g, mult), s, mine in zip(base_fact.factors, splits, owned)
    )
    formula, t = sum(splits), max(splits, default=1)
    checks = (
        ("prediction matches direct recomputation", formula == direct),
        ("index within [r, t*r]", r_before <= direct <= t * r_before),
        (
            "index preserved iff every factor stays irreducible",
            (direct == r_before) == all(s == 1 for s in splits),
        ),
        ("factor multiset matches across the two routes", owned_right),
    )
    return basechange.BaseChangeReport(
        kind="field",
        detail=f"{f.field.render()} -> {ext.render()}",
        ir_before=r_before,
        ir_after_formula=formula,
        ir_after_direct=direct,
        t_bound=t,
        faithfully_flat=True,
        fibers=tuple(
            basechange.PrimeFiber(g.render(), 1, s) for (g, _), s in zip(base_fact.factors, splits)
        ),
        checks=checks,
    )


def hypersurface_index_bruteforce(f: UniPoly) -> int:
    """Index of k[x]/(f) from the full submodule lattice; never factors.

    Finds every submodule (each is cyclic, the ring being a principal
    ideal ring) as the span of one element's x-orbit, deduplicated by
    its reduced echelon basis (`_submodules`), writes each distinct one
    as a bitmask over the quotient's elements, keeps the meet-irreducible
    ones, and runs a census (`census`) of their meets, each strict one
    dropping the dimension.  All irredundant families meeting in zero
    must share one cardinality; that shared size is returned.
    Multiplication by x is the companion shift on element indices, so no
    polynomial division is shared with `factor`.
    """
    if not isinstance(f.field, PrimeField):
        raise SizeCapError("lattice oracle works over prime fields only")
    if f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if f.field.p**f.degree > MAX_LATTICE_SIZE:
        raise SizeCapError(
            f"quotient size {f.field.p}^{f.degree} exceeds lattice cap {MAX_LATTICE_SIZE}"
        )
    irreducible, full = _meet_irreducible_submodules(f)
    # the zero submodule is the mask of element 0, the zero vector
    hist, _, _, deep = census(
        full, 1, len(irreducible), f.degree, lambda n, i: n & irreducible[i], 0
    )
    if not hist:
        raise VerificationError("no irreducible decomposition of zero found")
    sizes = {min(hist)} | deep
    if len(sizes) != 1:
        raise VerificationError(f"irredundant decompositions of unequal sizes: {sorted(sizes)}")
    return sizes.pop()


@cache
def _vector_tables(p: int, d: int):
    """Addition, scaling and leading-digit tables of GF(p)^d on element indices.

    Index i is the vector whose coefficient of x^j is digit d-1-j of i
    in base p, the order of itertools.product(range(p), repeat=d).
    add[a][b] and scale[c][a] are a + b and c*a; place[a] is the place
    value p^k of the leading (most significant nonzero) digit of a > 0,
    and monic[a] is a scaled so that digit is 1.  Digits add without
    carry, so the table for d digits is built from the one for d - 1:
    with a = ah*p + al, a + b = (ah + bh)*p + (al + bl) % p.
    """
    digit_sums = [[(al + bl) % p for bl in range(p)] for al in range(p)]
    add = [[0]]
    for _ in range(d):
        add = [[h * p + s for h in row for s in sums] for row in add for sums in digit_sums]
    n = p**d
    scale = [[0] * n]
    for _ in range(1, p):
        scale.append([add[a][b] for a, b in zip(scale[-1], range(n))])
    inv = [0] + [pow(c, p - 2, p) for c in range(1, p)]
    place = [0] * n
    monic = [0] * n
    q = 1
    while q < n:
        for a in range(q, q * p):
            place[a] = q
            monic[a] = scale[inv[a // q]][a]
        q *= p
    return add, scale, place, monic


def _submodules(f: UniPoly) -> tuple[list[int], int]:
    """Every submodule of k[x]/(f) as a bitmask over its elements, and the top.

    Each submodule is cyclic (the ring is a principal ideal ring), so it
    is the submodule generated by some element v, and that is a subspace
    found by linear algebra alone: span(v, xv, ..., x^(k-1) v) grows
    until the first k with x^k v inside it.  Then x maps every spanning
    vector into the span, so the span is x-stable, i.e. a submodule; it
    contains v and lies in every submodule that does, so it is the one v
    generates.  Its reduced row echelon basis (leading digit 1, zero in
    every other row's leading place) is unique to the subspace: the
    leading places are those of the subspace's nonzero vectors, a vector
    of the subspace is fixed by its digits there, so each row is the one
    vector with digit 1 at its own leading place and 0 at the others.
    That basis is the key that deduplicates elements generating the same
    submodule, and the points of each distinct submodule are listed once.  Scalar
    multiples c*v (c != 0) generate the same submodule, so only monic
    elements are row-reduced.  Multiplication by x is the companion
    shift on element indices; nothing here is polynomial arithmetic.
    """
    p = f.field.p
    d = f.degree
    n = p**d
    add, scale, place, monic = _vector_tables(p, d)
    inv_lead = f.field.inv(f.coeffs[-1])
    # x^d = -(tail[0] + tail[1]*x + ... + tail[d-1]*x^(d-1)) in k[x]/(f);
    # x * a shifts a's digits one place down (coefficient of x^(d-1),
    # the last digit, falls off) and subtracts that digit times tail
    tail = 0
    for c in f.coeffs[:-1]:
        tail = tail * p + c * inv_lead % p
    minus_tail = [scale[-c % p][tail] for c in range(p)]
    xmap = [add[a // p][minus_tail[a % p]] for a in range(n)]

    bases = {(): None}
    for v in range(1, n):
        if monic[v] != v:
            continue
        basis: dict[int, int] = {}  # leading place -> row
        cur = v
        while True:
            w = cur
            for q, row in basis.items():
                c = w // q % p
                if c:
                    w = add[w][scale[p - c][row]]
            if not w:
                break
            q, w = place[w], monic[w]
            for q2, row in basis.items():
                c = row // q % p
                if c:
                    basis[q2] = add[row][scale[p - c][w]]
            basis[q] = w
            cur = xmap[cur]
        bases[tuple(sorted(basis.values()))] = None

    submodules = []
    for rows in bases:
        points = [0]
        for row in rows:
            points = [add[a][s[row]] for s in scale for a in points]
        mask = 0
        for a in points:
            mask |= 1 << a
        submodules.append(mask)
    return submodules, (1 << n) - 1


def _meet_irreducible_submodules(f: UniPoly) -> tuple[list[int], int]:
    """Meet-irreducible submodules of k[x]/(f) as bitmasks over its elements, and the top."""
    submodules, full = _submodules(f)
    # N is meet-irreducible iff it has one upper cover M (then every
    # submodule strictly above N contains M), i.e. iff the meet of those
    # submodules is not N (two distinct covers already meet in N).  The
    # top has an empty family whose meet is the top, so it is left out;
    # it never enters an irredundant family anyway.
    irreducible = []
    for N in submodules:
        above = full
        for A in submodules:
            if A != N and not N & ~A:
                above &= A
        if above != N:
            irreducible.append(N)
    return irreducible, full
