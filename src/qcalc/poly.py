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
OverflowError for an exponent that reached 2^15.

A polynomial maps packed monomials to nonzero integer coefficients
(Poly.terms); the form is unique and the same in every process, so
equality is structural and a Poly pickles as its dict alone.  Every sum
and product of polynomials runs through the module's one accumulation
loop, Poly.sum_of_products; parse_poly takes none, as it reads each
term straight into one packed key.  Every exponent is read through one
reader per polynomial, built from the OR of its keys (_reader).
Graded-lex order is computed only where it is needed, in format_poly:
the key of a monomial is its degree followed by its exponents over the
polynomial's variables in the variable order.

Multiplying by h^k is a shift of every key by k (Poly.times_hbar).  The
CSM walks divide their weights by h that way (localization.subword_pairs
and cgpd._tile_weights), so a weight may be a Laurent polynomial: the
key of x * h^-1 is the x unit minus 1, which borrows from the fields
above h's.  Keys still multiply by adding, exactly, while h's exponent
stays within 2^15 either way, but such a key reads as nothing else; so
only sum_of_products takes one.  A divided weight carries bound 0, and
the walks multiply h^D back into the weights of the level they multiply
first, D the number of levels they divide, so every sum they build is a
polynomial of degree D.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import islice
from math import isqrt
from operator import getitem, itemgetter, or_
from struct import Struct
from typing import Iterable

Variable = tuple

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


class ParseError(ValueError):
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


@lru_cache(maxsize=None)
def _unit(v: Variable) -> int:
    """The packed monomial v^1, cached: the per-dims weight tables build
    one linear form per cell, two units each."""
    return 1 << (_WIDTH * _slot(v))


def _reader(keys: Iterable[int]):
    """(read, seen) for a set of packed monomials, built once from the OR
    of keys.  read maps any monomial over the variables of keys to its
    fields up to the last slot they use, slot 0 first, as one tuple: one
    to_bytes and one little-endian unpack, so reading is linear in the
    monomial's size.  seen is read of that OR: a field of seen is nonzero
    exactly where some key uses its variable, and at least every key's
    exponent there."""
    union = reduce(or_, keys, 0)
    count = -(-union.bit_length() // _WIDTH)
    unpack, size = Struct(f"<{count}H").unpack, 2 * count  # _WIDTH == 16
    read = lambda m: unpack(m.to_bytes(size, "little"))
    return read, read(union)


def _slots(seen: tuple[int, ...]) -> list[int]:
    """The slots of the nonzero fields of seen, in the variable order."""
    return sorted((s for s, e in enumerate(seen) if e), key=lambda s: var_key(_variable(s)))


def _picker(slots: list[int]):
    """The fields at slots, in that order, as a tuple, by one itemgetter
    (one of a slice where a single index would return a bare field)."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0))


def _grlex_key(read, slots: list[int]):
    """Graded-lex key over the fields at slots, which hold every variable
    of the monomials keyed, as one int: the degree, then each exponent
    in the variable order, in 16-bit digits.  Each monomial is read once
    (read, from _reader), not shifted once per variable."""
    pick = _picker(slots)
    digits = Struct(f">{len(slots)}H").pack  # the first variable is the most significant
    top = _WIDTH * len(slots)

    def key(m: int) -> int:
        exps = pick(read(m))
        return sum(exps) << top | int.from_bytes(digits(*exps), "big")

    return key


class Poly:
    """Immutable sparse polynomial; all operations return new values.

    Poly(terms, bound) adopts terms, which holds no zero coefficient,
    without copying it.  Every sum, product and sum of products runs
    through the one loop of sum_of_products, which accumulates into one
    dict, where repeated + would copy the running total every time.

    _bound is an upper bound on the total degree of every key, h
    included.  The constant and variable constructors set it, a sum of
    products carries the largest sum of its factors' bounds (a sum, the
    largest bound of its summands), so the kernel's overflow guard need
    not read its own result, and a negation keeps its operand's.  Any
    other Poly holds None until the kernel first needs it, and it is
    then read once as the sum of the fields of the OR of the keys.  The
    bound is not pickled.
    """

    __slots__ = ("terms", "_bound")

    def __init__(self, terms: dict[int, int], bound: int | None = None):
        self.terms = terms
        self._bound = bound

    def __getstate__(self) -> dict[int, int]:
        return self.terms

    def __setstate__(self, terms: dict[int, int]) -> None:
        self.terms = terms
        self._bound = None

    def _degree_bound(self) -> int:
        """_bound, read from the keys the first time."""
        if self._bound is None:
            self._bound = sum(_reader(self.terms)[1])
        return self._bound

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls) -> "Poly":
        return cls({}, 0)

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls({0: c} if c else {}, 0)

    @classmethod
    def one(cls) -> "Poly":
        """The constant 1: one shared object, so that states.state_sum
        can tell a weight 1 by identity.  Every weight 1 of the package
        is this object (an unpickled 1 is a copy that equals it).  Never
        write to its terms."""
        return _ONE

    @classmethod
    def var(cls, v: Variable) -> "Poly":
        return cls({_unit(v): 1}, 1)

    @classmethod
    def var_diff(cls, a: Variable, b: Variable) -> "Poly":
        """The linear form a - b (a row label minus a column label)."""
        if a == b:
            return cls({}, 0)
        return cls({_unit(a): 1, _unit(b): -1}, 1)

    @classmethod
    def hbar(cls) -> "Poly":
        return cls.var(HBAR)

    @classmethod
    def sum(cls, polys: Iterable["Poly | int"]) -> "Poly":
        """The sum of polys: the sum of the products 1 * p; + is this sum
        of one pair."""
        one = cls.one()
        return cls.sum_of_products((one, _coerce(p)) for p in polys)

    @classmethod
    def sum_of_products(cls, pairs: Iterable[tuple["Poly", "Poly"]]) -> "Poly":
        """The sum of a * b over the pairs (a, b), accumulated in one dict;
        no product is built on its own.  The factor with fewer terms runs
        the outer loop.  This is the only accumulation loop of the module:
        sums and products alike run through it.  A factor 1 in the first
        pair starts the dict as a copy of its partner's terms, so no
        operand is shared or written to.  Cancelled terms are deleted
        from the dict in place."""
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
        if 0 in out.values():
            for m in [m for m, c in out.items() if not c]:
                del out[m]
        return cls(out, top)

    # -- ring arithmetic -------------------------------------------------
    def __add__(self, other: "Poly | int") -> "Poly":
        return Poly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self._bound)

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
        if self is other:  # a shared class, without comparing every term
            return True
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
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, map(_reader(self.terms)[0], self.terms)))

    def times_hbar(self, k: int) -> "Poly":
        """self * h^k, each key shifted by k (h's field is slot 0, the
        lowest), with no product.  A negative k may leave a Laurent
        polynomial: a key whose h field is negative, which only
        sum_of_products may take, since keys multiply by adding (see
        the module docstring).  The bound is self's plus k, or 0."""
        return Poly({m + k: c for m, c in self.terms.items()}, max(self._degree_bound() + k, 0))

    def hbar_coefficient(self, k: int) -> "Poly":
        """The coefficient of h^k, as a polynomial free of h (h's field
        is slot 0, the lowest)."""
        return Poly({m - k: c for m, c in self.terms.items() if m & _FIELD == k})


_ONE = Poly({0: 1}, 0)


def _coerce(x: "Poly | int") -> Poly:
    return x if isinstance(x, Poly) else Poly.const(x)


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


def _factor_texts(
    v: Variable, style: str, sizes: tuple[int, ...] | None, top: int
) -> dict[int, str]:
    """The factor texts of one variable by exponent, 0 to top: "" for 0,
    the name for 1, and name^e above.  In latex a power of x^a_b braces
    its base, {x^{a}_{b}}^{e}, which is not a double superscript."""
    name = _var_text(v, style, sizes)
    if style != "latex":
        head, tail = f"{name}^", ""
    else:
        head, tail = (f"{name}^{{" if v == HBAR else f"{{{name}}}^{{"), "}"
    return {0: "", 1: name, **{e: f"{head}{e}{tail}" for e in range(2, top + 1)}}


def format_poly(
    p: Poly, style: str = "ascii", sizes: tuple[int, ...] | None = None
) -> str:
    """Canonical text: terms in descending graded-lex order.

    In letters style the optional block sizes suppress the subscript of
    any level with a single variable (a1 prints as a).

    The terms are sorted by graded-lex key (_grlex_key).  Each term is
    then read again, its exponents picked in the variable order by one
    itemgetter, and its factor texts looked up in one table per
    variable (_factor_texts, up to its field of seen, which is at least
    every exponent) and joined at C level, exponent 0's empty text
    filtered out.  Only the sorted monomials and the output's pieces
    are held per term: keeping each term's exponents from the sort
    would save the second read but raise the peak memory.
    """
    terms = p.terms
    if not terms:
        return "0"
    read, seen = _reader(terms)
    slots = _slots(seen)
    pick = _picker(slots)
    tables = [_factor_texts(_variable(s), style, sizes, seen[s]) for s in slots]
    sep = " " if style == "latex" else "*"
    join = sep.join
    pieces: list[str] = []
    append = pieces.append
    for m in sorted(terms, key=_grlex_key(read, slots), reverse=True):
        c = terms[m]
        sign = "+ "
        if c < 0:
            sign, c = "- ", -c
        body = join(filter(None, map(getitem, tables, pick(read(m)))))
        append(f"{sign}{c}{sep}{body}" if c != 1 and body else f"{sign}{body or c}")
    first = pieces[0]  # the leading sign has no space, and + none at all
    pieces[0] = first[2:] if first[0] == "+" else f"-{first[2:]}"
    return " ".join(pieces)


_GOOD = re.compile(r"x\d+_\d+|h|\d+|[-+*^]")  # a token
_TOKEN = re.compile(rf"\s*({_GOOD.pattern}|\S)")  # or any character where none starts


def parse_poly(text: str) -> Poly:
    """Parse the canonical ascii grammar back into a polynomial: terms
    joined by + or - (the first may be signed), each of factors n, h or
    xA_B with an optional ^E joined by *, read straight into one
    coefficient and one packed key.  A variable's exponent of 2^15 or
    more, in a factor or summed over a term, raises OverflowError
    whatever the coefficient: 0*x0_1^20000*x0_1^20000 raises too.
    One findall lists the tokens; a character where none starts raises
    before the grammar runs; positions are found again only for errors.
    """
    tokens = _TOKEN.findall(text)

    def at(i: int, group: int = 1) -> int:  # token i's start, or its space's (0)
        m = next(islice(_TOKEN.finditer(text), i, None), None)
        return len(text) if m is None else m.start(group)

    if bad := [tok for tok in set(tokens) if not _GOOD.fullmatch(tok)]:
        pos = at(min(map(tokens.index, bad)), 0)
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append("")  # the end, which no rule below accepts
    i = int(tokens[0] in ("+", "-"))  # past a leading sign
    if not tokens[i]:
        raise ParseError("expected term", len(text))
    terms: dict[int, int] = {}
    coef, key = (-1 if tokens[0] == "-" else 1), 0
    while True:  # one factor, then the '*', sign or end after it
        tok = tokens[i]
        unit = 0  # an integer factor
        if tok == "h":
            unit = _unit(HBAR)
        elif tok.startswith("x"):
            unit = _unit(xvar(*map(int, tok[1:].split("_"))))
        elif not tok.isdigit():
            raise ParseError(f"expected factor, got {tok!r}", at(i))
        e, i = 1, i + 1
        if tokens[i] == "^":
            exponent = tokens[i + 1]
            if not exponent.isdigit():
                raise ParseError("expected exponent", at(i + 1))
            e, i = int(exponent), i + 2
        if not unit:
            coef *= int(tok) ** e
        # fields below 2^15 add without a carry into the next field
        elif e >= _TOP or (key := key + e * unit) & _GUARD:
            raise OverflowError(f"an exponent reached 2^{_WIDTH - 1}")
        sep = tokens[i]
        if sep not in ("*", "+", "-", ""):
            raise ParseError(f"expected '+' or '-', got {sep!r}", at(i))
        if sep != "*":  # the term ends
            terms[key] = terms.get(key, 0) + coef
            if not sep:
                return Poly({m: c for m, c in terms.items() if c})
            coef, key = (-1 if sep == "-" else 1), 0
        i += 1
        if not tokens[i]:
            raise ParseError("dangling '*'" if sep == "*" else "dangling sign", len(text))
