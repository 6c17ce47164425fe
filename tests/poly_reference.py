"""The reference the tests check poly.format_poly against.

format_poly and _grlex_key are the printer as it stood before
format_poly picked each term's exponents by one itemgetter and looked
its factor texts up in tables, copied verbatim: a list comprehension per
key, and one branch and one f-string per factor.  _var_text is copied
too, so the reference names its variables itself.  From qcalc.poly it
uses only the storage decoding (_reader, _slots, _variable) and
constants.

One output differs on purpose: the reference prints a latex power as
x^{0}_{1}^{2}, which TeX rejects as a double superscript, where the
package prints {x^{0}_{1}}^{2}.  unbrace maps the package's form back.

leading_term, items and variables are queries only tests make, on the
same storage decoding (leading_term on the reference's _grlex_key).
"""

import re
from struct import Struct

from qcalc.poly import (
    _LETTERS_MAX_LEVEL,
    _WIDTH,
    HBAR,
    Poly,
    Variable,
    _reader,
    _slots,
    _variable,
)

_BRACED_POWER = re.compile(r"\{(x\^\{\d+\}_\{\d+\})\}\^")


def unbrace(latex: str) -> str:
    """{x^{a}_{b}}^{e} back to x^{a}_{b}^{e}, as the reference prints it."""
    return _BRACED_POWER.sub(r"\1^", latex)


def _grlex_key(read, slots: list[int]):
    """Graded-lex key over the fields at slots, which hold every variable
    of the monomials keyed, as one int: the degree, then each exponent
    in the variable order, in 16-bit digits.  Each monomial is read once
    (read, from _reader), not shifted once per variable."""
    digits = Struct(f">{len(slots)}H").pack  # the first variable is the most significant
    top = _WIDTH * len(slots)

    def key(m: int) -> int:
        fields = read(m)
        return sum(fields) << top | int.from_bytes(digits(*[fields[s] for s in slots]), "big")

    return key


def leading_term(p: Poly) -> tuple[tuple, int]:
    """Graded-lex leading term of a nonzero polynomial, its monomial in
    the public tuple-of-pairs form."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading term")
    read, seen = _reader(p.terms)
    slots = _slots(seen)
    m = max(p.terms, key=_grlex_key(read, slots))
    fields = read(m)
    return tuple((_variable(s), fields[s]) for s in slots if fields[s]), p.terms[m]


def items(p: Poly):
    """(monomial, coefficient) pairs, monomials in the public
    tuple-of-pairs form."""
    read, seen = _reader(p.terms)
    named = [(_variable(s), s) for s in _slots(seen)]
    for m, c in p.terms.items():
        fields = read(m)
        yield tuple((v, fields[s]) for v, s in named if fields[s]), c


def variables(p: Poly) -> set[Variable]:
    """The variables p uses."""
    return {_variable(s) for s, e in enumerate(_reader(p.terms)[1]) if e}


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
    read, seen = _reader(p.terms)
    slots = _slots(seen)
    names = [_var_text(_variable(s), style, sizes) for s in slots]
    sep = " " if style == "latex" else "*"
    pieces: list[str] = []
    for m in sorted(p.terms, key=_grlex_key(read, slots), reverse=True):
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
