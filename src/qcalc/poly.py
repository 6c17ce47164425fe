"""Exact sparse multivariate polynomials over the integers.

Variables come in two kinds: alphabet variables x^level_index (one
sub-alphabet per vector space in the dimension vector) and the single
homogenizing variable h.  A variable is encoded as a tuple:

    ("x", level, index)   the alphabet variable x^level_index
    ("h",)                the homogenizing variable h

Variables are totally ordered: alphabet variables lexicographically by
(level, index), with h strictly last.  The public form of a monomial is
a tuple of (variable, exponent) pairs sorted in that order with all
exponents positive.

Storage is packed (after Monagan and Pearce's packed exponent vectors).
Every variable has a fixed slot, a function of the variable alone, so
a packed monomial means the same in every process: h is slot 0, and
x^a_b is slot k(k+1)/2 + b on the diagonal k = a + b - 1, so the first
levels and indices take the first slots.  The packed range is level +
index <= 128; a variable outside it raises ValueError.  A monomial is
one int holding the exponent of the variable in slot s in the 16-bit
field at bit 16*s; multiplying two monomials is adding their ints.  The
top bit of every field is a guard bit: stored exponents stay below
2^15, so the sum of two fields stays below 2^16 and never carries into
the next field.  A field is at most its monomial's total degree, so a
product whose factors' degree bounds add up to less than 2^15 cannot
overflow; only a larger one takes one OR over the keys of its result,
then one AND against the guard bits of all slots, and raises
OverflowError for an exponent that reached 2^15.  Dividing subtracts
from the dividend with the guard bits of the operands' fields set; a
guard bit that comes out cleared marks a field that borrowed, so the
divisor does not divide.

A polynomial maps packed monomials to nonzero integer coefficients
(Poly.terms); the form is unique and the same in every process, so
equality is structural and a Poly pickles as its dict alone.
Graded-lex order is computed only where it is needed (format_poly,
leading_term, exact_divide): the key of a monomial is its degree
followed by its exponents over the polynomial's variables in the
variable order.
"""

from __future__ import annotations

import re
import sys
from functools import reduce
from heapq import heapify, heappop, heappush
from math import isqrt
from operator import or_
from struct import Struct
from typing import Iterable, Mapping

Variable = tuple
Monomial = tuple  # tuple[tuple[Variable, int], ...], sorted, exponents > 0

HBAR: Variable = ("h",)

_WIDTH = 16  # bits per exponent field
_FIELD = (1 << _WIDTH) - 1
_TOP = 1 << (_WIDTH - 1)  # guard bit of slot 0
_DIAGONALS = 128  # x^a_b is packed when a + b <= _DIAGONALS
_SLOTS = 1 + _DIAGONALS * (_DIAGONALS + 1) // 2
_GUARD = _TOP * (((1 << (_WIDTH * _SLOTS)) - 1) // _FIELD)  # guard bits of all slots


def xvar(level: int, index: int) -> Variable:
    """The alphabet variable x^level_index (index is 1-based)."""
    return ("x", level, index)


def var_key(v: Variable) -> tuple:
    """Sort key realizing the global variable order (h strictly last)."""
    if v[0] == "x":
        return (0, v[1], v[2])
    return (1, 0, 0)


class NotDivisible(Exception):
    """No exact quotient exists; usually signals a convention bug upstream."""


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _slot(v: Variable) -> int:
    """The fixed slot of v: 0 for h, k(k+1)/2 + b for x^a_b on the
    diagonal k = a + b - 1."""
    if v == HBAR:
        return 0
    _, a, b = v
    k = a + b - 1
    if a < 0 or b < 1 or k >= _DIAGONALS:
        raise ValueError(
            f"variable {_var_text(v, 'ascii')} is outside the packed range"
            f" (level >= 0, index >= 1, level + index <= {_DIAGONALS})"
        )
    return k * (k + 1) // 2 + b


def _variable(s: int) -> Variable:
    """The variable in slot s (the inverse of _slot)."""
    if s == 0:
        return HBAR
    k = (isqrt(8 * s - 7) - 1) // 2  # the diagonal: k(k+1)/2 < s <= (k+1)(k+2)/2
    b = s - k * (k + 1) // 2
    return xvar(k + 1 - b, b)


def _unit(v: Variable) -> int:
    """The packed monomial v^1."""
    return 1 << (_WIDTH * _slot(v))


def _fields(m: int) -> list[tuple[int, int]]:
    """(slot, exponent) for every nonzero field of a packed monomial, read
    in one pass as the 16-bit words of its bytes."""
    count = -(-m.bit_length() // _WIDTH)
    words = memoryview(m.to_bytes(2 * count, sys.byteorder)).cast("H")  # _WIDTH == 16
    if sys.byteorder == "big":  # the lowest field is the last word
        words = words[::-1]
    return [(s, e) for s, e in enumerate(words) if e]


def _unpack(m: int) -> Monomial:
    pairs = [(_variable(s), e) for s, e in _fields(m)]
    pairs.sort(key=lambda p: var_key(p[0]))
    return tuple(pairs)


def _mono_div(a: int, b: int) -> int | None:
    """a / b, or None when b does not divide a.  The guard covers the
    operands' fields only, so the subtraction is as long as they are."""
    g = _GUARD & ((1 << (max(a.bit_length(), b.bit_length()) + _WIDTH)) - 1)
    d = (a | g) - b
    return d ^ g if d & g == g else None


def _slots(variables: Iterable[Variable]) -> list[int]:
    """The variables' slots, in the variable order."""
    return [_slot(v) for v in sorted(variables, key=var_key)]


def _reader(slots: list[int]):
    """m -> every field of a packed monomial up to the last of slots, slot
    0 first, as one tuple: one to_bytes and one unpack, so reading is
    linear in the monomial's size.  m must have no field past slots."""
    count = max(slots, default=-1) + 1
    unpack = Struct(f"<{count}H").unpack  # _WIDTH == 16
    return lambda m: unpack(m.to_bytes(2 * count, "little"))


def _grlex_key(slots: list[int]):
    """Graded-lex key over the fields at slots, which hold every variable
    of the monomials keyed, as one int: the degree, then each exponent
    in the variable order, in 16-bit digits.  Each monomial is read once
    (_reader), not shifted once per variable."""
    read = _reader(slots)
    digits = Struct(f">{len(slots)}H").pack  # the first variable is the most significant
    top = _WIDTH * len(slots)

    def key(m: int) -> int:
        fields = read(m)
        return sum(fields) << top | int.from_bytes(digits(*[fields[s] for s in slots]), "big")

    return key


def _drop_zeros(out: dict[int, int]) -> dict[int, int]:
    """out without its zero coefficients, deleted in place."""
    if 0 in out.values():
        for m in [m for m, c in out.items() if not c]:
            del out[m]
    return out


class Poly:
    """Immutable sparse polynomial; all operations return new values.

    Poly.sum accumulates many polynomials into one dict in a single pass,
    where repeated + would copy the running total every time.

    _bound is an upper bound on the total degree of every key, h
    included.  The constant and variable constructors set it, a product
    carries the largest sum of its factors' bounds, so the kernel's
    overflow guard need not read its own result, and a negation keeps
    its operand's.  Any other Poly holds None until the kernel first
    needs it, and it is then read once as the sum of the fields of the
    OR of the keys.  The bound is not pickled.
    """

    __slots__ = ("terms", "_bound")

    def __init__(self, terms: Mapping[int, int] | None = None):
        self.terms: dict[int, int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }
        self._bound: int | None = None

    @classmethod
    def _wrap(cls, terms: dict[int, int], bound: int | None = None) -> "Poly":
        """Adopt terms (no zero coefficients) without copying."""
        p = object.__new__(cls)
        p.terms = terms
        p._bound = bound
        return p

    def __getstate__(self) -> dict[int, int]:
        return self.terms

    def __setstate__(self, terms: dict[int, int]) -> None:
        self.terms = terms
        self._bound = None

    def _degree_bound(self) -> int:
        """_bound, read from the keys the first time."""
        if self._bound is None:
            self._bound = sum(e for _, e in _fields(reduce(or_, self.terms, 0)))
        return self._bound

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls) -> "Poly":
        return cls._wrap({})

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls._wrap({0: c} if c else {}, 0)

    @classmethod
    def one(cls) -> "Poly":
        return cls.const(1)

    @classmethod
    def var(cls, v: Variable) -> "Poly":
        return cls._wrap({_unit(v): 1}, 1)

    @classmethod
    def var_diff(cls, a: Variable, b: Variable) -> "Poly":
        """The linear form a - b (a row label minus a column label)."""
        if a == b:
            return cls._wrap({}, 0)
        return cls._wrap({_unit(a): 1, _unit(b): -1}, 1)

    @classmethod
    def hbar(cls) -> "Poly":
        return cls.var(HBAR)

    @classmethod
    def sum(cls, polys: Iterable["Poly | int"]) -> "Poly":
        """The sum of polys, accumulated in place in one dict; + is this
        sum of one pair."""
        out: dict[int, int] = {}
        get = out.get
        for p in polys:
            for m, c in _coerce(p).terms.items():
                out[m] = get(m, 0) + c
        return cls._wrap(_drop_zeros(out))

    @classmethod
    def sum_of_products(cls, pairs: Iterable[tuple["Poly", "Poly"]]) -> "Poly":
        """The sum of a * b over the pairs (a, b), accumulated in one dict;
        no product is built on its own.  The factor with fewer terms runs
        the outer loop.  This is the only product loop of the module.
        Cancelled terms are deleted from that dict in place."""
        out: dict[int, int] = {}
        get = out.get
        top = 0  # the result's degree bound
        for a, b in pairs:
            if len(a.terms) > len(b.terms):
                a, b = b, a
            t = a._degree_bound() + b._degree_bound()
            if t > top:
                top = t
            right = b.terms.items()
            for m1, c1 in a.terms.items():
                if not out:  # the first term's products cannot collide
                    if m1 == 0 and c1 == 1:  # a factor 1: a copy, as the loop writes into out
                        out = b.terms.copy()
                    else:
                        out = {m1 + m2: c1 * c2 for m2, c2 in right}
                    get = out.get
                    continue
                for m2, c2 in right:
                    m = m1 + m2
                    out[m] = get(m, 0) + c1 * c2
        # no field exceeds its key's degree; cancelled products are keys too
        if top >= _TOP and reduce(or_, out, 0) & _GUARD:
            raise OverflowError(f"an exponent reached 2^{_WIDTH - 1}")
        return cls._wrap(_drop_zeros(out), top)

    # -- ring arithmetic -------------------------------------------------
    def __add__(self, other: "Poly | int") -> "Poly":
        return Poly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._wrap({m: -c for m, c in self.terms.items()}, self._bound)

    def __sub__(self, other: "Poly | int") -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "Poly":
        return _coerce(other) - self

    def __mul__(self, other: "Poly | int") -> "Poly":
        return Poly.sum_of_products([(self, _coerce(other))])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self.terms.keys() <= {0}:  # a constant hashes as the int it equals
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    # -- queries ---------------------------------------------------------
    def items(self):
        """(monomial, coefficient) pairs, monomials in the public
        tuple-of-pairs form."""
        for m, c in self.terms.items():
            yield _unpack(m), c

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e for _, e in _fields(m)) for m in self.terms)

    def variables(self) -> set[Variable]:
        seen = 0
        for m in self.terms:
            seen |= m
        return {_variable(s) for s, _ in _fields(seen)}

    def hbar_coefficient(self, k: int) -> "Poly":
        """The coefficient of h^k, as a polynomial free of h (h's field
        is slot 0, the lowest)."""
        return Poly._wrap({m - k: c for m, c in self.terms.items() if m & _FIELD == k})

    def leading_term(self) -> tuple[Monomial, int]:
        """Graded-lex leading term of a nonzero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_grlex_key(_slots(self.variables())))
        return _unpack(m), self.terms[m]


def _coerce(x: "Poly | int") -> Poly:
    return x if isinstance(x, Poly) else Poly.const(x)


def exact_divide(num: Poly, den: Poly) -> Poly:
    """The exact quotient q with q * den == num.

    Division is multivariate reduction against the single divisor under
    graded-lex order; any step that fails to cancel the leading term
    raises NotDivisible.  The remainder is updated in place, and a heap
    of grlex keys yields its leading monomial: every monomial a step adds
    is below the one it cancels, so the heap maximum is always current.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    key = _grlex_key(_slots(num.variables() | den.variables()))
    den_lm = max(den.terms, key=key)
    den_lc = den.terms[den_lm]
    den_rest = [(m, c) for m, c in den.terms.items() if m != den_lm]
    rem = dict(num.terms)
    heap = [(-key(m), m) for m in rem]
    heapify(heap)
    quot: dict[int, int] = {}
    while heap:
        lm = heappop(heap)[1]
        lc = rem.pop(lm, 0)
        if not lc:
            continue  # cancelled since it was queued
        mq = _mono_div(lm, den_lm)
        if mq is None or lc % den_lc != 0:
            raise NotDivisible(f"{format_poly(den)} does not divide {format_poly(num)}")
        c = lc // den_lc
        quot[mq] = c
        products = [m + mq for m, _ in den_rest]
        if reduce(or_, products, 0) & _GUARD:
            raise OverflowError(f"an exponent reached 2^{_WIDTH - 1}")
        for m, (_, dc) in zip(products, den_rest):
            old = rem.get(m, 0)
            new = old - c * dc
            if new:
                rem[m] = new
                if not old:
                    heappush(heap, (-key(m), m))
            else:
                del rem[m]
    return Poly._wrap(quot)


# -- formatting and parsing ----------------------------------------------

_LETTERS_MAX_LEVEL = 25


def _var_text(v: Variable, style: str, sizes: tuple[int, ...] | None = None) -> str:
    if v == HBAR:
        return r"\hbar" if style == "latex" else "h"
    _, level, index = v
    if style == "letters":
        if level > _LETTERS_MAX_LEVEL:
            raise ValueError(f"letters style supports levels 0..25, got {level}")
        if sizes is not None and level < len(sizes) and sizes[level] == 1:
            return chr(ord("a") + level)
        return f"{chr(ord('a') + level)}{index}"
    if style == "latex":
        return f"x^{{{level}}}_{{{index}}}"
    return f"x{level}_{index}"


def format_poly(
    p: Poly, style: str = "ascii", sizes: tuple[int, ...] | None = None
) -> str:
    """Canonical text: terms in descending graded-lex order.

    In letters style the optional block sizes suppress the subscript of
    any level with a single variable (a1 prints as a).
    """
    if not p.terms:
        return "0"
    variables = sorted(p.variables(), key=var_key)
    names = [_var_text(v, style, sizes) for v in variables]
    slots = _slots(variables)
    read = _reader(slots)
    sep = " " if style == "latex" else "*"
    pieces: list[str] = []
    for m in sorted(p.terms, key=_grlex_key(slots), reverse=True):
        c = p.terms[m]
        factors = []
        fields = read(m)
        for name, s in zip(names, slots):
            e = fields[s]
            if e == 0:
                continue
            if e == 1:
                factors.append(name)
            elif style == "latex":
                factors.append(f"{name}^{{{e}}}")
            else:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = sep.join(factors)
        else:
            body = sep.join([str(abs(c))] + factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


_TOKEN = re.compile(r"\s*(x(\d+)_(\d+)|h|\d+|[-+*^])")


def parse_poly(text: str) -> Poly:
    """Parse the canonical ascii grammar back into a polynomial."""
    pos = 0
    tokens: list[tuple[str, int]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()

    idx = 0

    def peek() -> str | None:
        return tokens[idx][0] if idx < len(tokens) else None

    def take() -> tuple[str, int]:
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_factor() -> tuple[Poly, bool]:
        """One factor; the bool flags a bare integer (a coefficient)."""
        tok, at = take()
        if tok.isdigit():
            base: Poly | None = None
            value = int(tok)
        elif tok == "h":
            base, value = Poly.hbar(), 0
        elif tok.startswith("x"):
            m = _TOKEN.match(tok)
            assert m is not None
            base, value = Poly.var(xvar(int(m.group(2)), int(m.group(3)))), 0
        else:
            raise ParseError(f"expected factor, got {tok!r}", at)
        if peek() == "^":
            take()
            tok, at = take() if idx < len(tokens) else (None, len(text))
            if tok is None or not tok.isdigit():
                raise ParseError("expected exponent", at)
            e = int(tok)
            if base is None:
                return Poly.const(value**e), True
            return base**e, False
        if base is None:
            return Poly.const(value), True
        return base, False

    def parse_term() -> Poly:
        p, _ = parse_factor()
        while peek() == "*":
            take()
            if peek() is None:
                raise ParseError("dangling '*'", len(text))
            q, _ = parse_factor()
            p = p * q
        return p

    if not tokens:
        raise ParseError("empty input", 0)
    sign = 1
    if peek() in ("+", "-"):
        tok, _ = take()
        sign = -1 if tok == "-" else 1
    if peek() is None:
        raise ParseError("expected term", len(text))
    total = sign * parse_term()
    while peek() is not None:
        tok, at = take()
        if tok not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {tok!r}", at)
        if peek() is None:
            raise ParseError("dangling sign", len(text))
        term = parse_term()
        total = total + term if tok == "+" else total - term
    return total
