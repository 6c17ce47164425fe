"""Exact sparse polynomial arithmetic, canonical text, and parsing."""

import os
import pickle
import random
import re
import subprocess
import sys
from functools import cmp_to_key
from pathlib import Path

import pytest

import poly_reference
import qcalc
from poly_reference import items, leading_term, unbrace
from qcalc import poly
from qcalc.engine import sweep

from qcalc.poly import (
    HBAR,
    ParseError,
    Poly,
    format_poly,
    parse_poly,
    var_key,
    xvar,
)

a = Poly.var(xvar(0, 1))
b = Poly.var(xvar(1, 1))
c = Poly.var(xvar(1, 2))
h = Poly.hbar()


def test_constructors_and_equality():
    assert Poly.zero() == Poly.const(0)
    assert Poly.one() == Poly.const(1)
    assert Poly.var(HBAR) == h
    assert a != b
    assert a - a == Poly.zero()
    assert not Poly.zero()
    assert Poly.one()


def test_constants_hash_as_the_ints_they_equal():
    """Equal values hash equally, so a constant Poly and its int are one
    key of a set or dict."""
    for n in (0, 1, -1, 2, 7):
        assert Poly.const(n) == n
        assert hash(Poly.const(n)) == hash(n)
        assert Poly.const(n) in {n}
        assert n in {Poly.const(n)}
    assert Poly.one() in {1} and Poly.zero() in {0}
    assert {a: "x"}[Poly.var(xvar(0, 1))] == "x"
    assert (h - h) in {0}
    assert a - a + 3 in {3}


def test_ring_axioms_small():
    polys = [Poly.zero(), Poly.one(), a, b, a + b, a * b - h, 2 * a - 3]
    for p in polys:
        for q in polys:
            assert p + q == q + p
            assert p * q == q * p
            for r in polys:
                assert p * (q + r) == p * q + p * r
                assert (p * q) * r == p * (q * r)


def test_integer_coercion():
    assert a + 1 - 1 == a
    assert 1 - a == -(a - 1)
    assert 3 * a == a + a + a
    assert a**0 == Poly.one()
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b


def test_degree_and_leading_term():
    p = a * a * b + h**2 + 5
    assert p.degree() == 3
    mono, coeff = leading_term(a * b - 2 * b * b)
    assert coeff == 1  # a*b beats b^2 in graded lex with a > b
    assert mono == ((xvar(0, 1), 1), (xvar(1, 1), 1))
    assert Poly.zero().degree() == -1


def test_hbar_coefficient():
    p = a * h**2 + b * h**2 + c * h + 7
    assert p.hbar_coefficient(2) == a + b
    assert p.hbar_coefficient(1) == c
    assert p.hbar_coefficient(0) == Poly.const(7)
    assert p.hbar_coefficient(3) == Poly.zero()


class MissingAssignment(Exception):
    """substitute() was handed an assignment missing an occurring variable."""


def substitute(p: Poly, assignment: dict) -> Poly:
    """Evaluate p under a total assignment of its variables (Poly or int)."""
    out = Poly.zero()
    for mono, c in items(p):
        term = Poly.const(c)
        for v, e in mono:
            if v not in assignment:
                raise MissingAssignment(f"no value for variable {format_poly(Poly.var(v))}")
            term = term * assignment[v] ** e
        out = out + term
    return out


def test_substitute():
    p = a * b + h
    assert substitute(p, {xvar(0, 1): Poly.const(2), xvar(1, 1): c, HBAR: Poly.zero()}) == 2 * c
    with pytest.raises(MissingAssignment):
        substitute(p, {xvar(0, 1): c})


def test_format_canonical_order():
    p = b + a + h + 1
    assert format_poly(p) == "x0_1 + x1_1 + h + 1"
    assert format_poly(a * a - b) == "x0_1^2 - x1_1"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(-a) == "-x0_1"


def test_format_styles():
    p = a * b**2 - 2 * h
    assert format_poly(p, "latex") == r"x^{0}_{1} {x^{1}_{1}}^{2} - 2 \hbar"
    assert format_poly(h**2 - b**12, "latex") == r"-{x^{1}_{1}}^{12} + \hbar^{2}"
    assert format_poly(p, "letters") == "a1*b1^2 - 2*h"
    assert format_poly(p, "letters", (1, 2)) == "a*b1^2 - 2*h"


def test_format_matches_the_reference_printer():
    """format_poly against the printer of tests/poly_reference.py, byte
    for byte, in every style: both pd classes of every orbit of sweep(5),
    then the printer's edge cases.  Latex powers are compared unbraced."""
    classes = [
        (p, report.rank.dims.r)
        for report in sweep(5)
        for p in (report.polynomials["qpoly_pd"], report.polynomials["csm_pd"])
    ]
    top = Poly.var(xvar(0, 128))  # the last packed slot
    edge = [
        Poly.zero(),
        Poly.const(1),
        Poly.const(-1),
        Poly.const(12),
        Poly.const(-12),
        h,
        -h,
        -(a**2) * c + b - 1,  # a negative leading term
        a * b - c * h + h - 1,  # coefficients +-1
        5 * a - 7 * b * c + 2,
        a**10 * c**12 - 11 * b**10 * h**23 + h**100,
        a ** (2**15 - 1),
        -3 * top**2 + top * h - a,
    ]
    assert len(classes) == 428
    for p, sizes in classes + [(p, (1, 2)) for p in edge]:
        for style, blocks in (("ascii", None), ("letters", None), ("letters", sizes)):
            assert format_poly(p, style, blocks) == poly_reference.format_poly(p, style, blocks)
        assert unbrace(format_poly(p, "latex")) == poly_reference.format_poly(p, "latex")
    with pytest.raises(ValueError):  # letters name levels 0..25 only
        format_poly(Poly.var(xvar(26, 1)), "letters")


def test_parse_roundtrip():
    polys = [
        Poly.zero(),
        Poly.const(-7),
        a,
        -a + 2 * b,
        (a - b) * (b - c) + h**3,
        a**4 - 6 * a * b * c * h + 1,
    ]
    for p in polys:
        assert parse_poly(format_poly(p)) == p


def test_parse_errors():
    """Each ParseError message at its position: the position of the
    token at fault, or the length of the text where the text ends early."""
    cases = [
        ("", "empty input", 0),
        ("   ", "empty input", 0),
        ("x0_1 +", "dangling sign", 6),
        ("x0_1 - ", "dangling sign", 7),
        ("* x0_1", "expected factor, got '*'", 0),
        ("x0_1 + +h", "expected factor, got '+'", 7),
        ("x0_1 ^ x1_1", "expected exponent", 7),
        ("x0_1^", "expected exponent", 5),
        ("q", "unexpected character 'q'", 0),
        ("x0_1 @", "unexpected character ' '", 4),  # the character where no token starts
        ("2*x0_1 *  ", "dangling '*'", 10),
        (" -", "expected term", 2),
        ("x0_1 x1_1", "expected '+' or '-', got 'x1_1'", 5),
        ("x0_1^2^3", "expected '+' or '-', got '^'", 6),
    ]
    for text, message, position in cases:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert str(err.value) == f"{message} (at position {position})", text
        assert err.value.position == position, text
    # a variable outside the packed range is no parse error, and is named
    # as soon as its factor is read, before a missing exponent
    for text in ("x0_200", "x0_200^"):
        with pytest.raises(ValueError, match="variable x0_200 is outside the packed range") as err:
            parse_poly(text)
        assert not isinstance(err.value, ParseError)


def test_parsed_exponents_overflow_whatever_the_coefficient():
    """A variable's exponent reaching 2^15, in one factor or over a term,
    raises, wherever a zero factor stands in the term; just below, it
    parses."""
    for text in ("0*x0_1^20000*x0_1^20000", "x0_1^20000*0*x0_1^20000", "x0_1^20000*x0_1^20000*0", "0*h^32768"):
        with pytest.raises(OverflowError, match=r"^an exponent reached 2\^15$"):
            parse_poly(text)
    assert parse_poly("x0_1^32767") == a ** (2**15 - 1)
    assert parse_poly("h^32767*x0_1") == h ** (2**15 - 1) * a
    assert parse_poly("x0_1^20000*x1_1^20000") == a**20000 * b**20000  # two fields, no carry


def _grlex_cmp(a, b) -> int:
    """The reference graded-lex comparison on tuple-of-pairs monomials."""
    da = sum(e for _, e in a)
    db = sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        ka, kb = var_key(va), var_key(vb)
        if ka != kb:
            # the monomial holding the earlier variable is lex-larger
            return 1 if ka < kb else -1
        if ea != eb:
            return 1 if ea > eb else -1
        i += 1
        j += 1
    if i < len(a):
        return 1
    if j < len(b):
        return -1
    return 0


def test_order_matches_grlex_oracle():
    alphabet = [xvar(level, index) for level in range(10, 14) for index in (1, 2, 3)]
    # the diagonal slots run against the variable order: h, last in that
    # order, has the lowest slot, and x10_3 a higher one than x11_1
    assert poly._slot(HBAR) < poly._slot(xvar(11, 1)) < poly._slot(xvar(10, 3))
    variables = alphabet + [HBAR]
    rng = random.Random(1)
    for _ in range(40):
        p = Poly.zero()
        for _ in range(rng.randint(1, 12)):
            term = Poly.const(rng.choice([-3, -1, 1, 2, 5]))
            for v in rng.sample(variables, rng.randint(0, 4)):
                term = term * Poly.var(v) ** rng.randint(1, 3)
            p = p + term
        if not p:
            continue
        expected = sorted((m for m, _ in items(p)), key=cmp_to_key(_grlex_cmp), reverse=True)
        pieces = re.split(r" [+-] ", format_poly(p))
        shown = [leading_term(parse_poly(piece.lstrip("-")))[0] for piece in pieces]
        assert shown == expected
        assert leading_term(p) == (expected[0], dict(items(p))[expected[0]])


_CHILD = """
import pickle, sys
from qcalc.poly import HBAR, Poly, format_poly, xvar
for v in [xvar(7, 3), HBAR, xvar(1, 2), xvar(1, 1), xvar(0, 1)]:
    Poly.var(v)
p, top = pickle.loads(sys.stdin.buffer.read())
unbounded = p._bound is None and top._bound is None
try:
    top * Poly.var(xvar(0, 1))
    guarded = False
except OverflowError:
    guarded = True
fits = format_poly(top * Poly.var(xvar(1, 1)))
sys.stdout.buffer.write(pickle.dumps((format_poly(p), p * p - Poly.hbar(), unbounded, guarded, fits)))
"""


def test_pickle_across_processes():
    """A Poly pickles as its packed dict, which means the same in every
    process, whatever variables the loading process has seen before.
    The degree bound stays behind, and the loading process reads its own
    before a product's overflow guard needs it."""
    p = (a - b) * (c + h) ** 2 + 3 * a * c
    top = a ** (2**15 - 1)
    assert top._bound == 2**15 - 1
    for q in (p, top, Poly.zero(), Poly.one()):
        assert q.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2] is q.terms
        copy = pickle.loads(pickle.dumps(q))
        assert copy == q and copy._bound is None
    src = str(Path(qcalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=pickle.dumps((p, top)),
        capture_output=True,
        env=env,
        timeout=60,
        check=True,
    )
    seen, answer, unbounded, guarded, fits = pickle.loads(done.stdout)
    assert seen == format_poly(p)
    assert format_poly(answer) == format_poly(p * p - h)
    assert answer == p * p - h
    assert unbounded and guarded
    assert fits == format_poly(top * b)


def _packed(*fields) -> int:
    """The packed monomial with exponent e in the slot of v, for each
    (v, e) of fields, built from the layout alone."""
    return sum(e << poly._WIDTH * poly._slot(v) for v, e in fields)


def test_exponent_overflow_raises():
    top = a ** (2**15 - 1)
    assert top.degree() == 2**15 - 1
    with pytest.raises(OverflowError):
        top * a
    with pytest.raises(OverflowError):
        top * (b + a * c)
    # the neighbouring fields are untouched by a product that fits
    assert leading_term(top * b) == (((xvar(0, 1), 2**15 - 1), (xvar(1, 1), 1)), 1)
    assert (top * b).terms == {_packed((xvar(0, 1), 2**15 - 1), (xvar(1, 1), 1)): 1}
    # an overflowing product whose coefficient cancels is still caught
    with pytest.raises(OverflowError):
        Poly.sum_of_products([(top, a), (-top, a)])
    # parsed text overflows too, by the parser's own guard
    for text in ("x0_1^32768", "x0_1^20000*x0_1^20000"):
        with pytest.raises(OverflowError):
            parse_poly(text)


def test_a_large_degree_with_small_exponents_is_no_overflow():
    """The degree bounds only spare the exact guard: a product whose
    degree bound reaches 2^15 is tested field by field, and returned
    when every exponent fits."""
    left, right = a ** (2**14), b ** (2**14)
    product = left * right
    assert product._bound >= 2**15
    assert product.degree() == 2**15
    assert list(items(product)) == [(((xvar(0, 1), 2**14), (xvar(1, 1), 2**14)), 1)]
    assert Poly.sum_of_products([(left, right), (-left, right)]) == 0


def test_the_degree_bound_covers_the_degree():
    """Every product, sum, constant and variable carries a bound, and no
    key of any result, a product's, a sum's, a negation's, an
    h-coefficient's or a parsed one's, has a degree above it."""
    variables = [xvar(level, index) for level in range(3) for index in (1, 2)] + [HBAR]
    rng = random.Random(11)

    def random_poly() -> Poly:
        out = Poly.zero()
        for _ in range(rng.randint(0, 6)):
            term = Poly.const(rng.choice([-2, -1, 1, 3]))
            for v in rng.sample(variables, rng.randint(0, 3)):
                term = term * Poly.var(v) ** rng.randint(1, 3)
            out = out + term
        return out

    for _ in range(60):
        p, q, s = random_poly(), random_poly(), random_poly()
        u, v = rng.sample(variables, 2)
        products = [p * q, Poly.sum_of_products([(p, q), (-p, q), (s, p)]), p * (q - q), p + q, p - p]
        products += [Poly.const(rng.randint(-2, 2)), Poly.var(u), Poly.var_diff(u, v), Poly.var_diff(u, u)]
        others = [-(p * q), -p, (p * h).hbar_coefficient(1), parse_poly(format_poly(p * s))]
        for r in products:
            assert r._bound is not None and r._bound >= r.degree()
        for r in others:
            assert r._degree_bound() >= r.degree()
        assert (p * q)._bound <= p._degree_bound() + q._degree_bound()


def test_slots_are_a_function_of_the_variable():
    variables = [HBAR] + [xvar(level, index) for level in range(41) for index in range(1, 41)]
    assert len({poly._slot(v) for v in variables}) == len(variables)
    # one monomial holding every variable, each with its own exponent
    exponents = {v: 1 + i % 7 for i, v in enumerate(variables)}
    everything = Poly.const(3)
    for v, e in exponents.items():
        everything = everything * Poly.var(v) ** e
    assert poly_reference.variables(everything) == set(variables)
    assert list(items(everything)) == [(tuple(sorted(exponents.items(), key=lambda p: var_key(p[0]))), 3)]
    for v in variables[::40]:
        assert poly_reference.variables(-Poly.var(v)) == {v}
        assert list(items(-Poly.var(v))) == [(((v, 1),), -1)]
    # the guard covers the far fields too
    far = Poly.var(xvar(40, 40))
    top = (far ** 2**7) ** (2**8 - 1) * far ** (2**7 - 1)
    assert top.degree() == 2**15 - 1
    with pytest.raises(OverflowError):
        top * far
    with pytest.raises(OverflowError):
        top * (a + far)
    assert (top * a).terms == {_packed((xvar(40, 40), 2**15 - 1), (xvar(0, 1), 1)): 1}
    # the ends of the packed range, then past it: a ValueError naming the
    # variable, never a field that wraps
    assert poly_reference.variables(Poly.var(xvar(0, 128))) == {xvar(0, 128)}
    assert poly_reference.variables(Poly.var(xvar(127, 1))) == {xvar(127, 1)}
    # fields on the last diagonal are read back whole, next to slot 0
    last = Poly.var(xvar(0, 128)) ** 3 * Poly.var(xvar(127, 1)) * Poly.hbar() - Poly.var(xvar(127, 1))
    assert last.degree() == 5
    assert poly_reference.variables(last) == {xvar(0, 128), xvar(127, 1), HBAR}
    assert format_poly(last) == "x0_128^3*x127_1*h - x127_1"
    assert parse_poly(format_poly(last)) == last
    for v, name in [(xvar(0, 129), "x0_129"), (xvar(100, 29), "x100_29"), (xvar(-1, 1), "x-1_1"), (xvar(2, 0), "x2_0")]:
        with pytest.raises(ValueError, match=name):
            Poly.var(v)
        with pytest.raises(ValueError, match=name):
            Poly.var_diff(xvar(0, 1), v)


def test_sum_of_products_matches_sum_of_products_built_one_by_one():
    a, b, c = (Poly.var(xvar(0, q)) for q in (1, 2, 3))
    h = Poly.hbar()
    cancelling = [(a - b, a + b), (b, b), (-a, a)]
    cases = [
        [],
        [(a - b, Poly.zero())],
        [(Poly.zero(), a), (h, a + b)],
        [(h, a - b), (a - b, b - c)],
        cancelling,
        [(Poly.one(), a - b), (Poly.one(), b - a)],  # everything cancels
        [(a - b, a + c), (b, a)],  # a*b cancels
        [(a + h, (a - c) ** 2), (Poly.const(3), c), (a - b, h)],
    ]
    for pairs in cases:
        q = Poly.sum_of_products(pairs)
        assert q == Poly.sum(x * y for x, y in pairs), pairs
        assert 0 not in q.terms.values(), pairs
    assert Poly.sum_of_products(cancelling).terms == {}


def test_sum_of_products_copies_a_partner_of_one():
    """A first factor 1 starts the sum from a copy of its partner's terms,
    which the later products write into."""
    a, b = Poly.var(xvar(0, 1)), Poly.var(xvar(0, 2))
    p = a - b
    before = dict(p.terms)
    q = Poly.sum_of_products([(Poly.one(), p), (a, b)])
    assert p.terms == before and q.terms is not p.terms
    assert q == a - b + a * b
    q = Poly.sum_of_products([(p, Poly.one()), (Poly.one(), b)])
    assert p.terms == before and q == a
    # a first factor whose first key is the constant 1, then more terms, as
    # a cgpd blank weight is built; it has fewer terms than its partner, so
    # it runs the outer loop: the partner is copied, then written into
    blank = Poly({0: 1, **p.terms})
    partner = (a + b + Poly.one()) ** 2
    assert len(blank.terms) < len(partner.terms)
    kept = dict(partner.terms)
    q = Poly.sum_of_products([(blank, partner), (a, b)])
    assert partner.terms == kept and q.terms is not partner.terms
    expected = _schoolbook(blank, partner)
    for m, c in _schoolbook(a, b).items():
        expected[m] = expected.get(m, 0) + c
    assert dict(items(q)) == {m: c for m, c in expected.items() if c}
    # a sum is the sum of the products 1 * p, so its first summand is copied too
    q = Poly.sum([p, b])
    assert p.terms == before and q.terms is not p.terms
    assert q == a


def _schoolbook(p, q) -> dict:
    """p * q expanded term by term over the public (monomial, coefficient)
    form, with monomials multiplied by adding exponents."""
    out: dict = {}
    for m1, c1 in _coerce_items(p):
        for m2, c2 in _coerce_items(q):
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items(), key=lambda pair: var_key(pair[0])))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _coerce_items(x):
    return items(x) if isinstance(x, Poly) else ([((), x)] if x else [])


def test_products_match_a_schoolbook_expansion():
    variables = [xvar(level, index) for level in range(3) for index in (1, 2)] + [HBAR]
    rng = random.Random(7)

    def random_poly(terms: int) -> Poly:
        out = Poly.zero()
        while len(out.terms) < terms:
            term = Poly.const(rng.choice([-4, -1, 1, 2, 3]))
            for v in rng.sample(variables, rng.randint(0, 3)):
                term = term * Poly.var(v) ** rng.randint(1, 2)
            out = out + term
        return out

    pairs = []
    for _ in range(30):
        short, long = sorted(rng.sample(range(1, 13), 2))
        pairs.append((random_poly(short), random_poly(long)))
    pairs += [(a - b, a + b), (a - b, 0), (Poly.zero(), a + h), (a + h, -3), (a - h, 1)]
    for p, q in pairs:
        for left, right in ((p, q), (q, p)):
            product = left * right
            assert dict(items(product)) == _schoolbook(left, right), (left, right)
    assert (a - b) * (a + b) == a**2 - b**2  # the cross terms cancel
    assert (a - b) * 0 == 0 and 0 * (a - b) == 0 and Poly.zero() * (a + h) == 0
