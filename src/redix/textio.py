"""Plain-text input grammars and canonical renderings for the CLI.

Ideals:
    ring: x, y
    ideal: x^2*y, y^3

Lines split on newlines, ';' and '/'.  The ring line is optional; when
missing, variables are inferred from the generators in sorted order.
`1` as a generator means the unit ideal, an empty generator list the
zero ideal.  '#' starts a comment.

Groups:
    group: Z/4 + Z/2 + Z/9

Polynomials:
    f: x^2+x+1 over GF(2)

with field specs `GF(q)` or `GF(q)=t^2+t+1` fixing the modulus of an
extension field.  Base-change descriptors are single tokens:
`extend:2`, `invert:y,z`, `field:GF(2)->GF(4)` (the source side may be
left empty when the polynomial already pins it down).

Each parse has a matching render producing the canonical echo, and
parsing an echo reproduces the parsed object exactly.

Each grammar reads its arena as a module (`monomial`, `abelian`,
`gfpoly`), which the package registers to load lazily, so an arena's
code runs only when a parse or render first reads from it.
"""

from __future__ import annotations

import re

from . import abelian, gfpoly, monomial
from .errors import ParseError, SizeCapError

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_]\w*|\S")


class _Tokens:
    """Token stream over one logical line, tracking source position."""

    def __init__(self, text: str, line_no: int):
        self.line = line_no
        self.items = []
        for m in _TOKEN_RE.finditer(text):
            s = m.group()
            if s[0].isdigit():
                kind = "INT"
            elif s[0].isalpha() or s[0] == "_":
                kind = "NAME"
            else:
                kind = s
            self.items.append((kind, s, m.start() + 1))
        self.pos = 0
        self.end_col = len(text) + 1

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return (None, "", self.end_col)

    def take(self, kind=None, what=""):
        k, s, col = self.peek()
        if kind is not None and k != kind:
            want = what or kind
            got = repr(s) if k else "end of line"
            raise ParseError(f"expected {want}, got {got}", self.line, col)
        if k is None:
            raise ParseError(f"unexpected end of line{': ' + what if what else ''}", self.line, col)
        self.pos += 1
        return s, col

    @property
    def done(self) -> bool:
        return self.pos >= len(self.items)

    def fail(self, message: str):
        _, _, col = self.peek()
        raise ParseError(message, self.line, col)


def _logical_lines(text: str, extra_separators: str = ""):
    """(line_no, content) pairs; line_no counts physical lines from 1."""
    for no, physical in enumerate(text.splitlines() or [""], start=1):
        body = physical.split("#", 1)[0]
        for sep in ";" + extra_separators:
            body = body.replace(sep, "\n")
        for piece in body.split("\n"):
            if piece.strip():
                yield no, piece


def _keyword(ts: _Tokens):
    """Leading `name:` if present, consuming it; None for bare payload."""
    if (
        len(ts.items) >= 2
        and ts.items[0][0] == "NAME"
        and ts.items[1][0] == ":"
    ):
        word = ts.items[0][1]
        ts.pos = 2
        return word
    return None


# ---------------------------------------------------------------- ideals


def parse_ideal_text(text: str) -> monomial.MonomialIdeal:
    """Monomial ideal from the `ring:`/`ideal:` grammar."""
    ring_names = None
    sym_gens = []  # each generator: list of (name, exponent, line, col)
    for line_no, content in _logical_lines(text, extra_separators="/"):
        ts = _Tokens(content, line_no)
        word = _keyword(ts)
        if word == "ring":
            if ring_names is not None:
                raise ParseError("duplicate ring line", line_no, 1)
            ring_names = _parse_name_list(ts)
        elif word == "ideal" or word is None:
            sym_gens.extend(_parse_monomial_list(ts))
        else:
            raise ParseError(f"unknown section {word!r}", line_no, 1)
    if ring_names is None:
        seen = {name for gen in sym_gens for name, _, _, _ in gen}
        ring_names = tuple(sorted(seen))
        if not ring_names:
            raise ParseError("the ideal names no variable and there is no ring line", 1, 1)
    try:
        ring = monomial.RingContext(ring_names)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None
    index = {name: i for i, name in enumerate(ring_names)}
    gens = []
    for gen in sym_gens:
        exps = [0] * ring.n
        for name, e, line_no, col in gen:
            if name not in index:
                raise ParseError(f"variable {name!r} is not in the ring", line_no, col)
            exps[index[name]] += e
        try:
            gens.append(monomial.Monomial(tuple(exps), ring))
        except ValueError as exc:
            line_no, col = gen[0][2], gen[0][3]
            raise ParseError(str(exc), line_no, col) from None
    return monomial.MonomialIdeal.from_gens(ring, gens)


def _parse_name_list(ts: _Tokens) -> tuple[str, ...]:
    names = []
    while True:
        name, _ = ts.take("NAME", "a variable name")
        names.append(name)
        if ts.done:
            return tuple(names)
        ts.take(",", "a comma")


def _parse_monomial_list(ts: _Tokens):
    """Generators as symbolic factor lists; empty line body means none."""
    gens = []
    if ts.done:
        return gens
    while True:
        gens.append(_parse_monomial(ts))
        if ts.done:
            return gens
        ts.take(",", "a comma")


def _parse_monomial(ts: _Tokens):
    factors = []
    while True:
        kind, s, col = ts.peek()
        if kind == "INT":
            ts.take()
            if s != "1":
                raise ParseError(f"coefficient {s} is not allowed; use 1", ts.line, col)
            factors.append(("", 0, ts.line, col))
        elif kind == "NAME":
            ts.take()
            exp = 1
            if ts.peek()[0] == "^":
                ts.take()
                digits, dcol = ts.take("INT", "an exponent")
                exp = int(digits)
            factors.append((s, exp, ts.line, col))
        else:
            ts.fail("expected a variable or 1")
        if ts.peek()[0] != "*":
            break
        ts.take()
    return [(n, e, ln, c) for n, e, ln, c in factors if n]


def render_ideal_text(ideal: monomial.MonomialIdeal) -> str:
    ring_line = "ring: " + ", ".join(ideal.ring.names)
    gens = ", ".join(g.render() for g in ideal.gens)
    return f"{ring_line}\nideal: {gens}".rstrip()


# ---------------------------------------------------------------- groups


def parse_group_text(text: str):
    """Finite abelian group from `group: Z/4 + Z/2` style text.

    A group above the order ceiling is refused by its constructor, which
    checks the product of the orders before splitting any of them.
    """
    payload = None
    for line_no, content in _logical_lines(text):
        ts = _Tokens(content, line_no)
        word = _keyword(ts)
        if word not in (None, "group"):
            raise ParseError(f"unknown section {word!r}", line_no, 1)
        if payload is not None:
            raise ParseError("more than one group line", line_no, 1)
        payload = ts
    if payload is None:
        raise ParseError("no group given", 1, 1)
    orders = []
    while True:
        name, col = payload.take("NAME", "Z")
        if name != "Z":
            raise ParseError("cyclic factors are written Z/n", payload.line, col)
        payload.take("/", "a slash")
        digits, dcol = payload.take("INT", "a cyclic order")
        n = int(digits)
        if n < 1:
            raise ParseError("cyclic order must be positive", payload.line, dcol)
        orders.append(n)
        if payload.done:
            break
        payload.take("+", "a plus sign")
    return abelian.FiniteAbelianGroup.from_orders(*orders)


def render_group_text(group) -> str:
    if group.is_trivial:
        return "group: Z/1"
    return "group: " + group.render()


# ------------------------------------------------------------ field specs


def parse_field_spec(spec: str, line_no: int = 1):
    """`GF(q)` or `GF(q)=modulus` to a field object."""
    ts = _Tokens(spec, line_no)
    name, col = ts.take("NAME", "GF")
    if name != "GF":
        raise ParseError("field specs start with GF", line_no, col)
    ts.take("(", "an opening parenthesis")
    digits, dcol = ts.take("INT", "a field size")
    q = int(digits)
    ts.take(")", "a closing parenthesis")
    if q > gfpoly.MAX_FIELD_SIZE:
        # refused before factoring: trial division of a huge q would not return
        raise SizeCapError(f"field size {q} exceeds cap {gfpoly.MAX_FIELD_SIZE}")
    split = [(p, k) for p in gfpoly._SMALL_PRIMES for k in range(1, q.bit_length()) if p**k == q]
    if not split:
        raise ParseError(f"{q} is not a power of a prime up to 13", line_no, dcol)
    ((p, k),) = split
    if ts.done:
        if k == 1:
            return gfpoly.PrimeField(p)
        return gfpoly.ExtField(gfpoly.PrimeField(p), gfpoly.irreducible_modulus(p, k))
    ts.take("=", "an equals sign")
    if k == 1:
        ts.fail("a prime field takes no modulus")
    base = gfpoly.PrimeField(p)
    mod_poly, gen_name = _parse_poly_tokens(ts, base, var_hint=None)
    if mod_poly.degree != k:
        raise ParseError(
            f"modulus degree {mod_poly.degree} does not match GF({q})", line_no, dcol
        )
    try:
        return gfpoly.ExtField(base, mod_poly.coeffs, gen_name=gen_name or "t")
    except ValueError as exc:
        raise ParseError(str(exc), line_no, dcol) from None


def render_field_spec(field) -> str:
    if isinstance(field, gfpoly.PrimeField):
        return field.render()
    mod = gfpoly._poly_str(field.modulus, field.gen_name, str, 1)
    return f"{field.render()}={mod}"


# ------------------------------------------------------------ polynomials


def parse_poly_text(text: str):
    """`f: ... over GF(q)` text to its UniPoly."""
    poly = None
    for line_no, content in _logical_lines(text):
        ts = _Tokens(content, line_no)
        word = _keyword(ts)
        if word in (None, "f"):
            if poly is not None:
                raise ParseError("more than one polynomial line", line_no, 1)
            poly = _parse_poly_line(ts, line_no)
        else:
            raise ParseError(f"unknown section {word!r}", line_no, 1)
    if poly is None:
        raise ParseError("no polynomial given", 1, 1)
    return poly


def _parse_poly_line(ts: _Tokens, line_no: int):
    over_at = None
    for i, (kind, s, _) in enumerate(ts.items):
        if kind == "NAME" and s == "over" and i >= ts.pos:
            over_at = i
            break
    if over_at is None:
        ts.fail("missing `over GF(...)`")
    spec_items = ts.items[over_at + 1 :]
    if not spec_items:
        raise ParseError("missing field after `over`", line_no, ts.end_col)
    spec_col = spec_items[0][2]
    spec_text = " ".join(s for _, s, _ in spec_items)
    field = parse_field_spec(spec_text, line_no)
    body = _Tokens("", line_no)
    body.items = ts.items[ts.pos : over_at]
    body.pos = 0
    body.end_col = spec_col
    if not body.items:
        raise ParseError("empty polynomial", line_no, 1)
    poly, _ = _parse_poly_tokens(body, field, var_hint="x")
    return poly


def _parse_poly_tokens(ts: _Tokens, field, var_hint):
    """Sum-of-terms parser shared by polynomial bodies and moduli.

    Returns (UniPoly, variable name or None).  Over an extension field
    the generator name is reserved for coefficients; any other single
    name is accepted as the variable.
    """
    gen_name = field.gen_name if isinstance(field, gfpoly.ExtField) else None
    state = {"var": None}

    def is_var(name):
        if name == gen_name:
            return False
        if state["var"] is None:
            state["var"] = name
            return True
        return name == state["var"]

    def gen_power(e: int):
        out = field.one
        t = (0, 1) + (0,) * (field.k - 2)
        for _ in range(e):
            out = field.mul(out, t)
        return out

    def parse_coef_atom():
        kind, s, col = ts.peek()
        if kind == "INT":
            ts.take()
            if gen_name is None:
                return int(s) % field.p
            return field.embed(int(s))
        if kind == "NAME" and s == gen_name:
            ts.take()
            e = 1
            if ts.peek()[0] == "^":
                ts.take()
                digits, _ = ts.take("INT", "an exponent")
                e = int(digits)
            return gen_power(e)
        ts.fail("expected a coefficient")

    def parse_paren_coef():
        ts.take("(", "an opening parenthesis")
        acc = field.zero
        sign = 1
        kind, s, _ = ts.peek()
        if kind == "-":
            ts.take()
            sign = -1
        while True:
            c = parse_coef_atom()
            while ts.peek()[0] == "*":  # a product such as 2*t^2
                ts.take()
                c = field.mul(c, parse_coef_atom())
            acc = field.add(acc, c if sign == 1 else field.neg(c))
            kind, s, _ = ts.peek()
            if kind == "+":
                ts.take()
                sign = 1
            elif kind == "-":
                ts.take()
                sign = -1
            else:
                break
        ts.take(")", "a closing parenthesis")
        return acc

    def parse_term():
        """One term to (degree, coefficient)."""
        kind, s, col = ts.peek()
        coef = None
        if kind == "(":
            coef = parse_paren_coef()
        elif kind == "INT" or (kind == "NAME" and s == gen_name):
            coef = parse_coef_atom()
        if coef is not None:
            if ts.peek()[0] == "*":
                ts.take()
            else:
                return 0, coef
        kind, s, col = ts.peek()
        if kind != "NAME" or not is_var(s):
            ts.fail("expected the variable")
        ts.take()
        deg = 1
        if ts.peek()[0] == "^":
            ts.take()
            digits, _ = ts.take("INT", "an exponent")
            deg = int(digits)
        return deg, field.one if coef is None else coef

    acc: dict[int, object] = {}
    sign = 1
    if ts.peek()[0] == "-":
        ts.take()
        sign = -1
    while True:
        deg, coef = parse_term()
        if sign == -1:
            coef = field.neg(coef)
        acc[deg] = field.add(acc.get(deg, field.zero), coef)
        kind, _, _ = ts.peek()
        if kind == "+":
            ts.take()
            sign = 1
        elif kind == "-":
            ts.take()
            sign = -1
        elif kind is None:
            break
        else:
            ts.fail("expected + or - between terms")
    top = max(acc) if acc else 0
    coeffs = [acc.get(d, field.zero) for d in range(top + 1)]
    return gfpoly.UniPoly.make(field, coeffs), state["var"]


def render_poly_text(f) -> str:
    return f"f: {f.render()} over {render_field_spec(f.field)}"


# ------------------------------------------------------------ descriptors


def parse_change_descriptor(descriptor: str):
    """`extend:k`, `invert:vars`, or `field:SRC->DST` to a tagged tuple."""
    s = descriptor.strip()
    head, sep, rest = s.partition(":")
    head = head.strip()
    if not sep:
        raise ParseError("descriptors look like extend:k, invert:vars, field:...->...", 1, 1)
    if head == "extend":
        if not rest.strip().isdigit() or int(rest) < 1:
            raise ParseError("extend takes a positive variable count", 1, len(head) + 2)
        return ("extend", int(rest))
    if head == "invert":
        names = tuple(n.strip() for n in rest.split(",") if n.strip())
        for n in names:
            if not re.fullmatch(r"[A-Za-z_]\w*", n):
                raise ParseError(f"{n!r} is not a variable name", 1, 1)
        return ("invert", names)
    if head == "field":
        left, arrow, right = rest.partition("->")
        if not arrow or not right.strip():
            raise ParseError("field descriptors look like field:GF(p)->GF(p^k)", 1, 1)
        src = left.strip() or None
        return ("field", src, right.strip())
    raise ParseError(f"unknown descriptor {head!r}", 1, 1)


def render_change_descriptor(change) -> str:
    if change[0] == "extend":
        return f"extend:{change[1]}"
    if change[0] == "invert":
        return "invert:" + ",".join(change[1])
    src = change[1] or ""
    return f"field:{src}->{change[2]}"
