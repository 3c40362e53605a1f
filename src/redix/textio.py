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

A group or polynomial text is exactly one line (after ';' splits and
comments), its keyword optional; a second line is refused before the
first is parsed.  Each line is tokenized once, and every error column
is a column of the physical input line as typed, also past a ';' or
'/' and inside a polynomial's field spec.

A polynomial term's degree or a `t^e` exponent above
`gfpoly.MAX_POLY_DEGREE` is refused with SizeCapError before any
coefficient list is built or any product is taken.  A digit run over
MAX_DIGITS digits (an exponent, a cyclic order, a field size, a
coefficient, an `extend:` count) is a ParseError at its column before
any conversion, on every Python; under a lower int-string limit, a run
over that limit is refused the same way.

Each parse has a matching render producing the canonical echo, and
parsing an echo reproduces the parsed object exactly.

Each grammar reads its arena as a module (`monomial`, `abelian`,
`gfpoly`), which the package registers to load lazily, so an arena's
code runs only when a parse or render first reads from it.
"""

from __future__ import annotations

import re
import sys

from . import abelian, gfpoly, monomial
from .errors import ParseError, SizeCapError, shown

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_]\w*|\S")

# the longest digit run converted to an int when the running Python's
# own int-string limit (4300 digits by default since 3.11) is no lower
MAX_DIGITS = 4300


def _decimal(digits: str, line_no: int, col: int) -> int:
    """A run of decimal digits as an int; a run over the limit in force is a ParseError.

    The limit is MAX_DIGITS, or the interpreter's int-string limit when
    that is set lower (0 means none).
    """
    own = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    limit = min(own, MAX_DIGITS) if own else MAX_DIGITS
    if len(digits) > limit:
        raise ParseError(f"{len(digits)}-digit number exceeds {limit} digits", line_no, col)
    return int(digits)


class _Tokens:
    """Token stream over one logical line, tracking source position.

    The line starts `offset` characters into its physical line, so every
    column is a column of the physical line.  A grammar may narrow the
    stream to the tokens before index `end`; the end of the stream is
    then reported at column `end_col`.
    """

    def __init__(self, text: str, line_no: int, offset: int = 0):
        self.line = line_no
        self.items = []
        for m in _TOKEN_RE.finditer(text):
            s = m.group()
            # isdecimal is what \d+ and int() accept; isdigit would also take a lone '²'
            kind = "INT" if s[0].isdecimal() else "NAME" if s[0].isalpha() or s[0] == "_" else s
            self.items.append((kind, s, offset + m.start() + 1))
        self.pos = 0
        self.end = len(self.items)
        self.end_col = offset + len(text) + 1

    def peek(self):
        if self.pos < self.end:
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

    def take_int(self, what: str) -> tuple[int, int]:
        """An INT token's value and column."""
        digits, col = self.take("INT", what)
        return _decimal(digits, self.line, col), col

    @property
    def done(self) -> bool:
        return self.pos >= self.end

    def fail(self, message: str):
        _, _, col = self.peek()
        raise ParseError(message, self.line, col)


def _logical_lines(text: str, extra_separators: str = ""):
    """Tokens of each nonblank logical line; line numbers count physical lines from 1."""
    for no, physical in enumerate(text.splitlines() or [""], start=1):
        body = physical.split("#", 1)[0]
        for sep in ";" + extra_separators:
            body = body.replace(sep, "\n")
        offset = 0  # where the piece starts in the physical line
        for piece in body.split("\n"):
            if piece.strip():
                yield _Tokens(piece, no, offset)
            offset += len(piece) + 1


def _keyword(ts: _Tokens):
    """Leading `name:` if present, consuming it; None for bare payload."""
    if len(ts.items) >= 2 and ts.items[0][0] == "NAME" and ts.items[1][0] == ":":
        ts.pos = 2
        return ts.items[0][1]
    return None


def _payload_line(text: str, keyword: str, what: str) -> _Tokens:
    """The one line of a group or polynomial text, past its optional keyword."""
    payload = None
    for ts in _logical_lines(text):
        word = _keyword(ts)
        if word not in (None, keyword):
            raise ParseError(f"unknown section {word!r}", ts.line, ts.items[0][2])
        if payload is not None:
            raise ParseError(f"more than one {what} line", ts.line, ts.items[0][2])
        payload = ts
    if payload is None:
        raise ParseError(f"no {what} given", 1, 1)
    return payload


def _separated(ts: _Tokens, sep: str, what: str, item) -> list:
    """`item {sep item}` up to the end of the stream; item reads one from ts."""
    items = [item(ts)]
    while not ts.done:
        ts.take(sep, what)
        items.append(item(ts))
    return items


def _signed_sum(ts: _Tokens, item) -> list:
    """`[-] item {(+|-) item}` as (negated, item) pairs, stopping at any other token."""
    negated = ts.peek()[0] == "-"
    if negated:
        ts.take()
    terms = []
    while True:
        terms.append((negated, item()))
        kind = ts.peek()[0]
        if kind not in ("+", "-"):
            return terms
        ts.take()
        negated = kind == "-"


def _exponent(ts: _Tokens) -> int:
    """An optional `^ INT`; 1 when absent."""
    if ts.peek()[0] != "^":
        return 1
    ts.take()
    return ts.take_int("an exponent")[0]


# ---------------------------------------------------------------- ideals


def parse_ideal_text(text: str) -> monomial.MonomialIdeal:
    """Monomial ideal from the `ring:`/`ideal:` grammar."""
    ring_names = None
    sym_gens = []  # each generator: list of (name, exponent, line, col)
    for ts in _logical_lines(text, extra_separators="/"):
        word = _keyword(ts)
        if word == "ring":
            if ring_names is not None:
                raise ParseError("duplicate ring line", ts.line, ts.items[0][2])
            names = _separated(ts, ",", "a comma", lambda t: t.take("NAME", "a variable name"))
            seen = set()
            for name, col in names:  # a repeated name is refused at its own token
                if name in seen:
                    raise ParseError("variable names must be distinct", ts.line, col)
                seen.add(name)
            ring_names = tuple(name for name, _ in names)
        elif word == "ideal" or word is None:
            if not ts.done:  # an empty body means no generators
                sym_gens.extend(_separated(ts, ",", "a comma", _parse_monomial))
        else:
            raise ParseError(f"unknown section {word!r}", ts.line, ts.items[0][2])
    if ring_names is None:
        seen = {name for gen in sym_gens for name, _, _, _ in gen}
        ring_names = tuple(sorted(seen))
        if not ring_names:
            raise ParseError("the ideal names no variable and there is no ring line", 1, 1)
    # name tokens are valid names and the ring line's are distinct
    ring = monomial.RingContext(ring_names)
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


def _parse_monomial(ts: _Tokens):
    """One generator as its (name, exponent, line, col) factors; a `1` adds none."""
    factors = []
    while True:
        kind, s, col = ts.peek()
        if kind == "INT":
            ts.take()
            if s != "1":
                raise ParseError(f"coefficient {s} is not allowed; use 1", ts.line, col)
        elif kind == "NAME":
            ts.take()
            factors.append((s, _exponent(ts), ts.line, col))
        else:
            ts.fail("expected a variable or 1")
        if ts.peek()[0] != "*":
            return factors
        ts.take()


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
    ts = _payload_line(text, "group", "group")
    return abelian.FiniteAbelianGroup.from_orders(*_separated(ts, "+", "a plus sign", _cyclic_order))


def _cyclic_order(ts: _Tokens) -> int:
    name, col = ts.take("NAME", "Z")
    if name != "Z":
        raise ParseError("cyclic factors are written Z/n", ts.line, col)
    ts.take("/", "a slash")
    order, col = ts.take_int("a cyclic order")
    if order < 1:
        raise ParseError("cyclic order must be positive", ts.line, col)
    return order


def render_group_text(group) -> str:
    if group.is_trivial:
        return "group: Z/1"
    return "group: " + group.render()


# ------------------------------------------------------------ field specs


def parse_field_spec(spec: str):
    """`GF(q)` or `GF(q)=modulus` to a field object."""
    return _parse_field(_Tokens(spec, 1))


def _parse_field(ts: _Tokens):
    """A field spec filling the rest of the stream."""
    name, col = ts.take("NAME", "GF")
    if name != "GF":
        raise ParseError("field specs start with GF", ts.line, col)
    ts.take("(", "an opening parenthesis")
    q, dcol = ts.take_int("a field size")
    ts.take(")", "a closing parenthesis")
    if q > gfpoly.MAX_FIELD_SIZE:
        # refused before factoring: trial division of a huge q would not return
        raise SizeCapError(f"field size {shown(q)} exceeds cap {gfpoly.MAX_FIELD_SIZE}")
    split = [(p, k) for p in gfpoly._SMALL_PRIMES for k in range(1, q.bit_length()) if p**k == q]
    if not split:
        raise ParseError(f"{q} is not a power of a prime up to 13", ts.line, dcol)
    ((p, k),) = split
    base = gfpoly.PrimeField(p)
    if ts.done:
        return base if k == 1 else gfpoly.ExtField(base, gfpoly.irreducible_modulus(p, k))
    ts.take("=", "an equals sign")
    if k == 1:
        ts.fail("a prime field takes no modulus")
    mod_poly, gen_name = _parse_poly_tokens(ts, base)
    if mod_poly.degree != k:
        raise ParseError(f"modulus degree {mod_poly.degree} does not match GF({q})", ts.line, dcol)
    try:
        return gfpoly.ExtField(base, mod_poly.coeffs, gen_name=gen_name)
    except ValueError as exc:
        raise ParseError(str(exc), ts.line, dcol) from None


def render_field_spec(field) -> str:
    if isinstance(field, gfpoly.PrimeField):
        return field.render()
    return f"{field.render()}={field.render_element(field.modulus)}"


# ------------------------------------------------------------ polynomials


def parse_poly_text(text: str):
    """`f: ... over GF(q)` text to its UniPoly."""
    ts = _payload_line(text, "f", "polynomial")
    body = ts.pos
    over = next((i for i in range(body, ts.end) if ts.items[i][:2] == ("NAME", "over")), None)
    if over is None:
        ts.fail("missing `over GF(...)`")
    ts.pos = over + 1
    if ts.done:
        raise ParseError("missing field after `over`", ts.line, ts.end_col)
    spec_col = ts.peek()[2]
    field = _parse_field(ts)
    # the body is the stream narrowed to the tokens before `over`
    ts.pos, ts.end, ts.end_col = body, over, spec_col
    if ts.done:
        raise ParseError("empty polynomial", ts.line, 1)
    return _parse_poly_tokens(ts, field)[0]


def _parse_poly_tokens(ts: _Tokens, field):
    """Sum of terms filling the stream, shared by polynomial bodies and moduli.

    Returns (UniPoly, variable name or None).  Over an extension field
    the generator name is reserved for coefficients; the first other
    name in a variable's place is the variable, and no second is.
    """
    gen_name = field.gen_name if isinstance(field, gfpoly.ExtField) else None
    var = None

    def capped_exponent():
        # refused before a dense coefficient list or e multiplications are spent
        e = _exponent(ts)
        if e > gfpoly.MAX_POLY_DEGREE:
            raise SizeCapError(
                f"polynomial exponent {shown(e)} exceeds cap {gfpoly.MAX_POLY_DEGREE}"
            )
        return e

    def coef_atom():
        kind, s, _ = ts.peek()
        if kind == "INT":
            c = ts.take_int("a coefficient")[0]
            return c % field.p if gen_name is None else field.embed(c)
        if kind == "NAME" and s == gen_name:
            ts.take()
            out, t = field.one, (0, 1) + (0,) * (field.k - 2)
            for _ in range(capped_exponent()):
                out = field.mul(out, t)
            return out
        ts.fail("expected a coefficient")

    def coef_product():  # a product such as 2*t^2
        c = coef_atom()
        while ts.peek()[0] == "*":
            ts.take()
            c = field.mul(c, coef_atom())
        return c

    def paren_sum():
        ts.take()  # the opening parenthesis
        acc = field.zero
        for negated, c in _signed_sum(ts, coef_product):
            acc = field.add(acc, field.neg(c) if negated else c)
        ts.take(")", "a closing parenthesis")
        return acc

    def term():
        """One term to (degree, coefficient)."""
        nonlocal var
        kind, s, _ = ts.peek()
        coef = field.one
        if kind in ("(", "INT") or s == gen_name:
            coef = paren_sum() if kind == "(" else coef_atom()
            if ts.peek()[0] != "*":
                return 0, coef
            ts.take()
        kind, s, _ = ts.peek()
        if kind != "NAME" or s == gen_name or var not in (None, s):
            ts.fail("expected the variable")
        ts.take()
        var = s
        return capped_exponent(), coef

    acc: dict[int, object] = {}
    for negated, (deg, coef) in _signed_sum(ts, term):
        acc[deg] = field.add(acc.get(deg, field.zero), field.neg(coef) if negated else coef)
    if not ts.done:
        ts.fail("expected + or - between terms")
    coeffs = [acc.get(d, field.zero) for d in range(max(acc) + 1)]
    return gfpoly.UniPoly.make(field, coeffs), var


def render_poly_text(f) -> str:
    return f"f: {f.render()} over {render_field_spec(f.field)}"


# ------------------------------------------------------------ descriptors


def parse_change_descriptor(descriptor: str):
    """`extend:k`, `invert:vars`, or `field:SRC->DST` to a tagged tuple.

    An error column is a column of the descriptor as typed.
    """
    s = descriptor.strip()
    head, sep, rest = s.partition(":")
    head = head.strip()
    if not sep:
        raise ParseError(
            "descriptors look like extend:k, invert:vars, field:...->...", 1, _indent(descriptor) + 1
        )
    start = descriptor.index(":") + 2  # column of rest[0]
    if head == "extend":
        digits = rest.strip()
        col = start + _indent(rest)
        count = _decimal(digits, 1, col) if digits.isdecimal() else 0
        if count < 1:
            raise ParseError("extend takes a positive variable count", 1, col)
        return ("extend", count)
    if head == "invert":
        names = []
        for piece in rest.split(","):
            name = piece.strip()
            if name:
                if not re.fullmatch(r"[A-Za-z_]\w*", name):
                    raise ParseError(f"{name!r} is not a variable name", 1, start + _indent(piece))
                names.append(name)
            start += len(piece) + 1
        return ("invert", tuple(names))
    if head == "field":
        left, arrow, right = rest.partition("->")
        if not arrow or not right.strip():
            col = start + len(left) + 2 if arrow else start + _indent(rest)
            raise ParseError("field descriptors look like field:GF(p)->GF(p^k)", 1, col)
        src = left.strip() or None
        return ("field", src, right.strip())
    raise ParseError(f"unknown descriptor {head!r}", 1, _indent(descriptor) + 1)


def _indent(text: str) -> int:
    """Number of blanks text starts with."""
    return len(text) - len(text.lstrip())


def parse_field_change(descriptor: str, field):
    """The target field of a `field:SRC->DST` descriptor, for a polynomial over `field`.

    `descriptor` is one `parse_change_descriptor` reads as a field change.
    Both specs are parsed in place from the descriptor's one token stream,
    so an error column is a column of the descriptor as typed.  The
    source, when given, must be `field`; the target must be a proper
    extension field of the same characteristic.
    """
    ts = _Tokens(descriptor, 1)
    items = ts.items
    # `field` and `:` come first; the arrow is the first `-` with a `>` right after it
    arrow = next(
        k
        for k in range(2, ts.end - 1)
        if items[k][0] == "-" and items[k + 1][0] == ">" and items[k + 1][2] == items[k][2] + 1
    )
    if arrow > 2:
        ts.pos, ts.end, ts.end_col = 2, arrow, items[arrow][2]
        source = _parse_field(ts)
        if source.render() != field.render():
            raise ParseError(
                f"descriptor source {source.render()} does not match"
                f" the polynomial's field {field.render()}"
            )
    ts.pos, ts.end, ts.end_col = arrow + 2, len(items), len(descriptor) + 1
    target_text = descriptor[ts.peek()[2] - 1 :].strip()
    target = _parse_field(ts)
    if not isinstance(target, gfpoly.ExtField):
        raise ParseError(f"target {target_text} is not a proper extension field")
    if target.base.p != field.p:
        raise ParseError(f"target {target.render()} does not extend {field.render()}")
    return target


def render_change_descriptor(change) -> str:
    if change[0] == "extend":
        return f"extend:{change[1]}"
    if change[0] == "invert":
        return "invert:" + ",".join(change[1])
    src = change[1] or ""
    return f"field:{src}->{change[2]}"
