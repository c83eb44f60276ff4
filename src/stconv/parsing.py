"""Small recursive-descent parsing helpers shared by the descriptor grammars.

Each grammar (index sets, elements, sequences, operators) builds on a
:class:`Cursor` that tracks a position into the source text so that errors
can point at the offending character.
"""

from __future__ import annotations

import math
import re

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

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def try_eat(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

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

    def integer(self):
        self.skip_ws()
        start = self.pos
        value = self.number()
        if value != int(value):
            self.pos = start
            self.error("expected an integer")
        return int(value)

    def finish(self, what="expression"):
        if not self.at_end():
            self.error(f"unexpected trailing text after {what}")


def format_float(x):
    """Render a float so that it round-trips and stays readable (``1`` not ``1.0``)."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))
