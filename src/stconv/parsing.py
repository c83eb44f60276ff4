"""Small recursive-descent parsing helpers shared by the descriptor grammars.

Each grammar (index sets, elements, sequences, operators) builds on a
:class:`Cursor` that tracks a position into the source text so that errors
can point at the offending character.  Argument lists and delimited lists
are read by :meth:`Cursor.args` and :meth:`Cursor.items`, and a whole
descriptor by :func:`parse_whole`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_NUMBER = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Raised when a descriptor string cannot be parsed.

    Carries the zero-based ``position`` of the failure so callers (notably
    the command line) can annotate the message.
    """

    def __init__(self, text, position, message):
        self.text = text
        self.position = position
        self.message = message
        super().__init__(f"{message} at position {position}: {text!r}")


class Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(self.text, self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def try_eat(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def keyword(self, word):
        """Eat ``word`` only as a whole name, not as the prefix of a longer one."""
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if m is None or m.group(0) != word:
            return False
        self.pos = m.end()
        return True

    def expect(self, token):
        if not self.try_eat(token):
            self.error(f"expected {token!r}")

    def ident(self):
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if m is None:
            self.error("expected a name")
        self.pos = m.end()
        return m.group(0)

    def number(self):
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if m is None:
            self.error("expected a number")
        value = float(m.group(0))
        if not math.isfinite(value):
            self.error("expected a finite number")
        self.pos = m.end()
        return value

    def integer(self, least=1):
        """An integer literal no smaller than ``least``; errors point at it."""
        self.skip_ws()
        start = self.pos
        self.number()
        value = Fraction(self.text[start : self.pos])   # exact, where a float rounds past 2^53
        if value.denominator != 1:
            self.pos = start
            self.error("expected an integer")
        if value < least:
            self.pos = start
            self.error(f"expected an integer >= {least}")
        return int(value)

    def args(self, *parts):
        """Read ``( a , b , ... )``, reading argument ``i`` with ``parts[i](self)``."""
        self.expect("(")
        values = []
        for i, part in enumerate(parts):
            if i:
                self.expect(",")
            values.append(part(self))
        self.expect(")")
        return values

    def items(self, part, open, close, sep):
        """Read ``open item {sep item} close``: one or more items read by ``part(self)``."""
        self.expect(open)
        values = [part(self)]
        while self.try_eat(sep):
            values.append(part(self))
        self.expect(close)
        return values


def parse_whole(text, part, what):
    """Read all of ``text`` with ``part(cursor)``; trailing text is an error,
    and so is nesting deeper than the interpreter's recursion limit."""
    cur = Cursor(text)
    try:
        value = part(cur)
    except RecursionError:
        raise ParseError(text, cur.pos, "descriptor nests too deeply") from None
    cur.skip_ws()
    if cur.pos < len(text):
        cur.error(f"unexpected trailing text after {what}")
    return value


def whole_number(value, what):
    """``value`` as an ``int``; one with a fractional part is refused, not
    truncated (``5.0`` is 5, ``2.5`` a ``ValueError``)."""
    if value != int(value):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def format_float(x):
    """Render a float so that it round-trips and stays readable (``1`` not ``1.0``)."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))
