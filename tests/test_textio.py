"""Input grammars: parsing, canonical rendering, round trips, positions."""

import re
import sys
from math import prod

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from redix.abelian import MAX_ORDER
from redix.errors import ParseError, SizeCapError
from redix.gfpoly import MAX_POLY_DEGREE, ExtField, PrimeField, UniPoly, _cap_trial_divisors
from redix.textio import (
    MAX_DIGITS,
    parse_change_descriptor,
    parse_field_spec,
    parse_group_text,
    parse_ideal_text,
    parse_poly_text,
    render_change_descriptor,
    render_group_text,
    render_ideal_text,
    render_poly_text,
)


def test_ideal_basic_forms():
    I = parse_ideal_text("ring: x, y\nideal: x^2, x*y, y^3")
    assert I.ring.names == ("x", "y")
    assert sorted(g.exponents for g in I.gens) == [(0, 3), (1, 1), (2, 0)]
    # separators: semicolons and slashes both split lines
    assert parse_ideal_text("ring: x,y / ideal: x^2, x*y").gens == parse_ideal_text(
        "ring: x,y; ideal: x^2, x*y"
    ).gens


def test_ideal_ring_inference_sorts_names():
    I = parse_ideal_text("ideal: b*a^2, c")
    assert I.ring.names == ("a", "b", "c")


def test_ideal_exponent_accumulation():
    I = parse_ideal_text("ideal: x*x*y^2*x")
    assert I.gens[0].exponents == (3, 2)


def test_ideal_unit_zero_comments():
    assert parse_ideal_text("ring: x, y\nideal: 1").is_unit
    assert parse_ideal_text("ring: x, y\n# nothing\nideal:").is_zero
    assert parse_ideal_text("ring: x, y").is_zero


def test_ideal_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_ideal_text("ring: x\nideal: x^2, q")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_ideal_text("ring: x\nring: y")
    with pytest.raises(ParseError):
        parse_ideal_text("ideal: 2*x")  # coefficients are not monomials
    with pytest.raises(ParseError):
        parse_ideal_text("ideal: x^^2")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_ideal_text,
            "ring: x, y;  ideal: x, y; ideal: x*z",
            "variable 'z' is not in the ring (line 1, column 36)",
        ),
        (parse_ideal_text, "ring: x, y; ideal: x^²", "expected an exponent, got '²' (line 1, column 22)"),
        (parse_ideal_text, "ring: x, x; ideal: x", "variable names must be distinct (line 1, column 10)"),
        (parse_ideal_text, "ideal: x\nring: x, y, x", "variable names must be distinct (line 2, column 13)"),
        (parse_ideal_text, "ring: x; ring: y; ideal: x", "duplicate ring line (line 1, column 10)"),
        (parse_ideal_text, "ideal: x / foo: y", "unknown section 'foo' (line 1, column 12)"),
        (parse_group_text, "group: Z/2; group: Z/3", "more than one group line (line 1, column 13)"),
        (parse_group_text, ";group: Z/0", "cyclic order must be positive (line 1, column 11)"),
        (parse_poly_text, "f: x; g: y over GF(2)", "unknown section 'g' (line 1, column 7)"),
    ],
    ids=["ring", "symbol", "repeat", "repeat-line-2", "ring-twice", "section", "group-twice", "group", "poly"],
)
def test_error_columns_count_on_the_physical_line(parse, text, message):
    # columns past a ';' or '/' separator count from the start of the line as typed
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["", "ideal:", "ideal: 1", "# nothing\nideal: 1*1"])
def test_ideal_with_no_variables_refused(text):
    # no zero-variable ring comes out of the grammar, so every echo parses back
    with pytest.raises(ParseError) as err:
        parse_ideal_text(text)
    assert (err.value.line, err.value.column) == (1, 1)


def test_ideal_round_trip():
    for text in (
        "ring: x, y\nideal: x^2, x*y, y^3",
        "ring: z\nideal: z^5",
        "ring: x, y\nideal:",
    ):
        I = parse_ideal_text(text)
        canonical = render_ideal_text(I)
        again = parse_ideal_text(canonical)
        assert again.ring == I.ring and again.gens == I.gens
        assert render_ideal_text(again) == canonical


def test_group_parse_and_canonical_order():
    g = parse_group_text("group: Z/9 + Z/2 + Z/3")
    assert g.factors == (2, 3, 9)
    assert render_group_text(g) == "group: Z/2 + Z/3 + Z/9"
    assert parse_group_text(render_group_text(g)) == g
    assert parse_group_text("group: Z/6").factors == (2, 3)
    assert parse_group_text("group: Z/1").is_trivial


def test_group_errors():
    with pytest.raises(ParseError):
        parse_group_text("group: Z/0")
    with pytest.raises(SizeCapError, match="^group order 72 exceeds the hard ceiling 64$"):
        parse_group_text("group: Z/4 + Z/2 + Z/9")
    with pytest.raises(ParseError):
        parse_group_text("group: Z4")
    with pytest.raises(ParseError):
        parse_group_text("")


def test_poly_parse_prime_field():
    f = parse_poly_text("f: x^2+x+1 over GF(2)")
    assert f.field.p == 2 and f.degree == 2
    assert render_poly_text(f) == "f: x^2+x+1 over GF(2)"


def test_poly_parse_ext_field_coefficients():
    f = parse_poly_text("f: t*x^2+(t+1)*x+1 over GF(4)")
    assert isinstance(f.field, ExtField)
    assert f.degree == 2
    text = render_poly_text(f)
    again = parse_poly_text(text)
    assert again == f and render_poly_text(again) == text


def test_poly_signs_and_bare_input():
    f = parse_poly_text("x^3 - x over GF(5)")
    assert f.coeffs[1] == 4  # -1 mod 5
    g = parse_poly_text("f: -x + 2 over GF(5)")
    assert g.coeffs == (2, 4)


def test_poly_errors():
    with pytest.raises(ParseError):
        parse_poly_text("f: x^2+1")  # no field
    with pytest.raises(ParseError):
        parse_poly_text("f: x*y over GF(2)")  # two variables
    with pytest.raises(ParseError):
        parse_poly_text("f: t*x over GF(2)")  # t needs an extension field
    with pytest.raises(ParseError):
        parse_poly_text("f: x^2+x+1 over GF(2)\next: GF(4)")  # no ext section


@pytest.mark.parametrize(
    "text, message",
    [
        ("f: x^2+1 over GF(6)", "6 is not a power of a prime up to 13 (line 1, column 18)"),
        ("f: x^2+1 over GF(2) extra", "expected an equals sign, got 'extra' (line 1, column 21)"),
        ("f: x^2+1 over GF(4)=t^3+t+1", "modulus degree 3 does not match GF(4) (line 1, column 18)"),
        # the second line is refused before the first, which lacks its field, is parsed
        ("f: x\nf: y over GF(2)", "more than one polynomial line (line 2, column 1)"),
    ],
)
def test_poly_errors_point_into_the_input_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_poly_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, cls, method",
    [
        ("f: x^1000000 over GF(2)", UniPoly, "make"),
        ("f: x^65 + 1 over GF(3)", UniPoly, "make"),
        ("f: x over GF(9)=t^100+1", UniPoly, "make"),
        # building GF(4) itself makes polynomials; a t^e coefficient costs e products
        ("f: t^1000000*x over GF(4)", ExtField, "mul"),
    ],
)
def test_poly_degree_cap_refuses_before_building(monkeypatch, text, cls, method):
    def forbidden(*args):
        raise AssertionError("built before refusing")

    monkeypatch.setattr(cls, method, forbidden)
    with pytest.raises(SizeCapError, match=f"exceeds cap {MAX_POLY_DEGREE}$"):
        parse_poly_text(text)


def test_poly_degree_cap_admits_every_factorable_degree():
    # the largest degree any field lets factor() try is below the grammar's cap
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        field = parse_field_spec(f"GF({q})")
        admitted = 1
        while True:
            try:
                _cap_trial_divisors(UniPoly.make(field, [field.one] * (admitted + 2)))
            except SizeCapError:
                break
            admitted += 1
        assert admitted < MAX_POLY_DEGREE, q
    f = parse_poly_text(f"f: x^{MAX_POLY_DEGREE} + 1 over GF(2)")
    assert f.degree == MAX_POLY_DEGREE


def test_field_specs():
    assert isinstance(parse_field_spec("GF(5)"), PrimeField)
    gf4 = parse_field_spec("GF(4)")
    assert isinstance(gf4, ExtField) and gf4.size == 4
    explicit = parse_field_spec("GF(4)=t^2+t+1")
    assert explicit.modulus == gf4.modulus
    gf169 = parse_field_spec("GF(169)")
    assert gf169.size == 169
    for bad in ("GF(0)", "GF(1)", "GF(6)", "GF(17)", "GF(4)=t^2", "GF(8)=t^2+t+1"):
        with pytest.raises(ParseError):
            parse_field_spec(bad)
    for huge in ("GF(1162261467)", "GF(4913)", "GF(1000000000000000000000000000057)"):
        with pytest.raises(SizeCapError):
            parse_field_spec(huge)


@pytest.mark.parametrize(
    "q, error, text",
    [
        (0, ParseError, "0 is not a power of a prime up to 13 (line 1, column 4)"),
        (1, ParseError, "1 is not a power of a prime up to 13 (line 1, column 4)"),
        (6, ParseError, "6 is not a power of a prime up to 13 (line 1, column 4)"),
        (17, ParseError, "17 is not a power of a prime up to 13 (line 1, column 4)"),
        (2198, SizeCapError, "field size 2198 exceeds cap 2197"),
    ],
)
def test_field_size_refusal_texts(q, error, text):
    with pytest.raises(error) as info:
        parse_field_spec(f"GF({q})")
    assert str(info.value) == text


def test_largest_field_size_is_accepted():
    gf2197 = parse_field_spec("GF(2197)")
    assert (gf2197.base.p, gf2197.k, gf2197.size) == (13, 3, 2197)


def test_change_descriptors():
    assert parse_change_descriptor("extend:2") == ("extend", 2)
    assert parse_change_descriptor("invert:x,y") == ("invert", ("x", "y"))
    assert parse_change_descriptor("field:GF(2)->GF(4)") == ("field", "GF(2)", "GF(4)")
    assert parse_change_descriptor("field:->GF(4)") == ("field", None, "GF(4)")
    for d in ("extend:2", "invert:x,y", "field:GF(2)->GF(4)"):
        assert parse_change_descriptor(render_change_descriptor(parse_change_descriptor(d))) == parse_change_descriptor(d)
    with pytest.raises(ParseError):
        parse_change_descriptor("extend:0")
    with pytest.raises(ParseError, match=r"positive variable count \(line 1, column 8\)"):
        parse_change_descriptor("extend:²")
    with pytest.raises(ParseError):
        parse_change_descriptor("shrink:2")


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("invert:x,1y", "'1y' is not a variable name", 10),
        ("invert: x , 2z", "'2z' is not a variable name", 13),
        ("field:GF(2)=>GF(4)", "field descriptors look like field:GF(p)->GF(p^k)", 7),
        ("field:GF(2)->", "field descriptors look like field:GF(p)->GF(p^k)", 14),
        ("  extend: 0", "extend takes a positive variable count", 11),
        (" shrink:2", "unknown descriptor 'shrink'", 2),
    ],
    ids=["invert", "invert-blanks", "field-arrow", "field-target", "extend-blanks", "head"],
)
def test_descriptor_error_columns_are_columns_as_typed(text, message, col):
    with pytest.raises(ParseError) as info:
        parse_change_descriptor(text)
    assert str(info.value) == f"{message} (line 1, column {col})"


_LONG = "9" * (MAX_DIGITS + 1)


@pytest.fixture(params=[0, 4300], ids=["unlimited", "default"])
def int_str_limit(request):
    """Run under Python's int-string limit set to 0 (none) and to its default."""
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python with no limit at all
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "parse, text, col",
    [
        (parse_ideal_text, f"ideal: x^{_LONG}", 10),
        (parse_group_text, f"group: Z/{_LONG}", 10),
        (parse_poly_text, f"f: x^{_LONG} over GF(2)", 6),
        (parse_poly_text, f"f: {_LONG}*x over GF(2)", 4),
        (parse_poly_text, f"f: x over GF({_LONG})", 14),
        (parse_field_spec, f"GF({_LONG})", 4),
        (parse_change_descriptor, f"extend:{_LONG}", 8),
    ],
    ids=["exponent", "cyclic-order", "poly-exponent", "coefficient", "poly-field", "field", "extend"],
)
def test_over_long_digit_runs_are_positioned_parse_errors(int_str_limit, parse, text, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == (
        f"{MAX_DIGITS + 1}-digit number exceeds {MAX_DIGITS} digits (line 1, column {col})"
    )


def test_longest_digit_run_is_still_read(int_str_limit):
    padded = "0" * (MAX_DIGITS - 1)
    assert parse_group_text(f"group: Z/{padded}2").order == 2
    assert parse_change_descriptor(f"extend:{padded}2") == ("extend", 2)
    with pytest.raises(SizeCapError, match="exceeds cap"):
        parse_ideal_text(f"ideal: x^{'9' * MAX_DIGITS}")
    with pytest.raises(ParseError, match="digits"):
        parse_group_text(f"group: Z/0{padded}2")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int-string limit"
)
@pytest.mark.parametrize(
    "parse, text, col",
    [
        (parse_ideal_text, "ideal: x^{}", 10),
        (parse_group_text, "group: Z/{}", 10),
        (parse_poly_text, "f: {}*x over GF(2)", 4),
        (parse_field_spec, "GF({})", 4),
        (parse_change_descriptor, "extend:{}", 8),
    ],
    ids=["exponent", "cyclic-order", "coefficient", "field", "extend"],
)
def test_a_lower_int_string_limit_is_the_limit_in_force(parse, text, col):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        with pytest.raises(ParseError) as info:
            parse(text.format("9" * 2000))
        assert str(info.value) == f"2000-digit number exceeds 1000 digits (line 1, column {col})"
        assert parse_change_descriptor(f"extend:{'0' * 999}2") == ("extend", 2)
    finally:
        sys.set_int_max_str_digits(old)


# ------------------------------------------------ property: parse -> render -> parse

_NAMES = ("x", "y", "z", "w", "a", "b", "x1", "x2", "u_1")


def _factor_texts(name, e, draw):
    """Exponent e of one variable, written as a random split like x^2*x."""
    out = []
    while e:
        k = draw(st.integers(1, e))
        out.append(name if k == 1 else f"{name}^{k}")
        e -= k
    return out


@st.composite
def ideal_texts(draw):
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        factors = []
        for name in names:
            factors += _factor_texts(name, draw(st.integers(0, 5)), draw)
        gens.append("*".join(draw(st.permutations(factors))) or "1")
    return f"ring: {', '.join(names)}\nideal: {', '.join(gens)}"


@st.composite
def group_texts(draw):
    orders = draw(st.lists(st.integers(1, 60), min_size=1, max_size=4))
    return "group: " + " + ".join(f"Z/{n}" for n in orders)


_FIELD_SPECS = (
    "GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(11)", "GF(13)",
    "GF(4)", "GF(8)", "GF(9)", "GF(25)", "GF(27)", "GF(4)=a^2+a+1", "GF(9)=w^2+1",
)


@st.composite
def poly_texts(draw):
    field = parse_field_spec(draw(st.sampled_from(_FIELD_SPECS)))
    coeffs = draw(st.lists(st.sampled_from(list(field.elements())), max_size=6))
    return render_poly_text(UniPoly.make(field, coeffs))


@st.composite
def change_texts(draw):
    kind = draw(st.sampled_from(("extend", "invert", "field")))
    if kind == "extend":
        return f"extend: {draw(st.integers(1, 9))}"
    if kind == "invert":
        names = draw(st.lists(st.sampled_from(_NAMES), max_size=3, unique=True))
        return "invert:" + " , ".join(names)
    src = draw(st.sampled_from(("",) + _FIELD_SPECS))
    return f"field:{src} -> {draw(st.sampled_from(_FIELD_SPECS))}"


def _round_trip(parse, render, text):
    first = parse(text)
    canonical = render(first)
    again = parse(canonical)
    assert again == first
    assert render(again) == canonical


@settings(max_examples=150)
@given(ideal_texts())
def test_ideal_text_round_trip_property(text):
    _round_trip(parse_ideal_text, render_ideal_text, text)


@settings(max_examples=300)
@given(group_texts())
def test_group_text_round_trip_property(text):
    # a group above the order ceiling is refused, never half-built
    order = prod(int(n) for n in re.findall(r"Z/(\d+)", text))
    if order > MAX_ORDER:
        with pytest.raises(SizeCapError, match=f"^group order {order} exceeds the hard ceiling"):
            parse_group_text(text)
    else:
        _round_trip(parse_group_text, render_group_text, text)


@settings(max_examples=150)
@given(poly_texts())
def test_poly_text_round_trip_property(text):
    first = parse_poly_text(text)
    assert render_poly_text(first) == text
    _round_trip(parse_poly_text, render_poly_text, text)


@settings(max_examples=100)
@given(change_texts())
def test_change_descriptor_round_trip_property(text):
    _round_trip(parse_change_descriptor, render_change_descriptor, text)
