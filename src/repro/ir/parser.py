"""Parser for the textual form of the baseline language.

The concrete syntax mirrors the paper's Fig. 4 closely::

    const global @sbox[4] = [6, 1, 3, 0]

    func @cmp(a: ptr, b: ptr, n: int) {
    entry:
      x = load a[0]
      y = load b[0]
      p = mov x == y
      br p, eq, ne
    eq:
      jmp done
    ne:
      jmp done
    done:
      r = phi [1, eq], [0, ne]
      ret r
    }

Layout: comments run from ``;`` or ``#`` to the end of the line,
whitespace between tokens is free, and a line may hold several
statements, but a statement never spans lines.  Every error is an
:class:`IRSyntaxError` naming its line.

One statement reader (:class:`_Reader`) knows the grammar, in the one
shape the printer in :mod:`repro.ir.printer` emits: one statement per
line, single spaces, no comments.  Cached artifacts are printer output,
so almost every line is read by splitting it at those fixed separators.
A line the reader does not accept is tokenised once, cut into statements
and re-rendered in printer shape (:func:`_pieces`), and each piece goes
through the same reader; a piece it still rejects is a syntax error.

Parses of texts that repeat one another can share a statement table
(``parse_module(..., statements=table)``): a body line read once is not
read again, and every module that holds it gets the same instruction
object.  The variants of one build record share a table this way
(:func:`repro.artifacts.build.parse_variant`).  Sharing is safe because
instructions, terminators and values are frozen dataclasses, and no code
keys on an instruction's identity.  Functions and blocks, which passes mutate, are never shared:
headers, labels, ``}`` and globals are read fresh every time.
"""

from __future__ import annotations

import re
import string
from functools import lru_cache
from typing import Optional, Union

from repro.ir.function import PARAM_KINDS, Function, Param
from repro.ir.instructions import (
    Alloc,
    BinExpr,
    Br,
    Call,
    CtSel,
    Expr,
    Instruction,
    Jmp,
    Load,
    Mov,
    Phi,
    Ret,
    Store,
    Terminator,
    UnaryExpr,
)
from repro.ir.module import GlobalArray, Module
from repro.ir.ops import BINARY_OPS
from repro.ir.values import Const, Value, Var


class IRSyntaxError(ValueError):
    """Raised on malformed textual IR."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# -- the statement reader ----------------------------------------------------
#
# Each helper takes the text of one printer-shaped construct and raises
# ValueError when the text is not in that shape; parse_module decides
# whether that means "re-render the line" or "report a syntax error".
# Nothing is added to the module until a whole statement has been read.

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")
_GLOBAL_RE = re.compile(
    r"(const )?global @([A-Za-z_][A-Za-z0-9_.]*)\[(\d+)\]"
    r"(?: = \[([^\]]*)\])?\Z"
)
_UNARY_OPS = ("-", "!", "~")


def _label(text: str) -> str:
    if _LABEL_RE.match(text) is None:
        raise ValueError(f"expected a name, found {text!r}")
    return text


@lru_cache(maxsize=65536)
def _value(tok: str) -> Value:
    # Values are frozen dataclasses, so memoised instances can be shared
    # freely between instructions, functions, and parses.
    if tok[:1].isdigit() or tok[:1] == "-":
        return Const(int(tok))
    return Var(_label(tok))


def _expr(text: str) -> Expr:
    parts = text.split(" ")
    count = len(parts)
    if count == 1:
        return _value(parts[0])
    if count == 2 and parts[0] in _UNARY_OPS:
        return UnaryExpr(parts[0], _value(parts[1]))
    if count == 3 and parts[1] in BINARY_OPS:
        return BinExpr(parts[1], _value(parts[0]), _value(parts[2]))
    raise ValueError(f"malformed expression {text!r}")


def _access(text: str) -> tuple[Var, Value]:
    """Split ``arr[idx]`` into its array variable and index value."""
    array, bracket, rest = text.partition("[")
    if not bracket or not rest.endswith("]"):
        raise ValueError(f"malformed array access {text!r}")
    return Var(_label(array)), _value(rest[:-1])


def _call(dest: Optional[str], text: str) -> Call:
    # text is "@callee(arg, arg)"
    callee, paren, rest = text[1:].partition("(")
    if text[:1] != "@" or not paren or not rest.endswith(")"):
        raise ValueError(f"malformed call {text!r}")
    inner = rest[:-1]
    args = tuple(_value(a) for a in inner.split(", ")) if inner else ()
    return Call(dest, _label(callee), args)


def _ctsel(dest: str, text: str) -> CtSel:
    parts = text.split(", ")
    guard = len(parts) == 4 and parts[3] == "guard"
    if guard:
        parts.pop()
    if len(parts) != 3:
        raise ValueError(f"malformed ctsel {text!r}")
    return CtSel(dest, *map(_value, parts), guard=guard)


def _phi(dest: str, text: str) -> Phi:
    if not text.startswith("[") or not text.endswith("]"):
        raise ValueError(f"malformed phi {text!r}")
    incomings = []
    for arm in text[1:-1].split("], ["):
        value, comma, label = arm.partition(", ")
        if not comma:
            raise ValueError(f"malformed phi arm {arm!r}")
        incomings.append((_value(value), _label(label)))
    return Phi(dest, tuple(incomings))


#: ``dest = OP operands``: the reader for each opcode word.
_ASSIGNMENTS = {
    "mov": lambda dest, text: Mov(dest, _expr(text)),
    "load": lambda dest, text: Load(dest, *_access(text)),
    "ctsel": _ctsel,
    "phi": _phi,
    "alloc": lambda dest, text: Alloc(dest, _expr(text)),
    "call": _call,
}


def _br(text: str) -> Br:
    parts = text.split(", ")
    if len(parts) != 3:
        raise ValueError(f"malformed br {text!r}")
    return Br(_value(parts[0]), _label(parts[1]), _label(parts[2]))


#: Statements led by a keyword that ends the block.
_TERMINATORS = {
    "jmp": lambda text: Jmp(_label(text)),
    "br": _br,
    "ret": lambda text: Ret(_expr(text)),
}


def _global(line: str) -> GlobalArray:
    match = _GLOBAL_RE.match(line)
    if match is None:
        raise ValueError(f"expected a global or a function, found {line!r}")
    const, name, size, init = match.groups()
    values = tuple(int(v) for v in init.split(", ")) if init else ()
    return GlobalArray(name, int(size), values, const is not None)


def _header(line: str) -> Function:
    # line is "func @name(a: int, b: secret ptr) {"
    name, paren, rest = line[6:].partition("(")
    if not paren or not rest.endswith(") {"):
        raise ValueError(f"malformed function header {line!r}")
    params: list[Param] = []
    secret: list[str] = []
    if rest != ") {":
        for part in rest[:-3].split(", "):
            param, colon, kind = part.partition(": ")
            if kind.startswith("secret "):
                secret.append(param)
                kind = kind[7:]
            if not colon or kind not in PARAM_KINDS:
                raise ValueError(f"malformed parameter {part!r}")
            params.append(Param(_label(param), kind))
    return Function(_label(name), params, sensitive_params=tuple(secret))


#: What one body line holds.
Statement = Optional[Union[Instruction, Terminator]]


class _Reader:
    """Builds a module from printer-shaped statements, one at a time."""

    __slots__ = ("module", "function", "block")

    def __init__(self, name: str) -> None:
        self.module = Module(name)
        self.function: Optional[Function] = None
        self.block = None

    def read(self, line: str) -> Statement:
        """Add one statement, or raise ValueError and add nothing.

        Returns the instruction or terminator the line held, or None for a
        global, a function header, a block label or a ``}``.
        """
        function = self.function
        if function is None:
            if line.startswith("func @"):
                self.function = _header(line)
            else:
                self.module.add_global(_global(line))
            return None
        block = self.block
        if line == "}":
            if block is not None:
                raise ValueError(f"block {block.label} lacks a terminator")
            self.module.add_function(function)
            self.function = None
            return None
        if block is None:
            if not line.endswith(":"):
                raise ValueError(f"expected a block label, found {line!r}")
            self.block = function.add_block(_label(line[:-1]))
            return None
        head, _, rest = line.partition(" ")
        terminator = _TERMINATORS.get(head)
        if terminator is not None:
            statement = block.terminator = terminator(rest)
            self.block = None
            return statement
        if head == "store":
            value, comma, access = rest.partition(", ")
            if not comma:
                raise ValueError(f"malformed store {line!r}")
            array, index = _access(access)
            return block.append(Store(_value(value), array, index))
        if rest[:2] == "= ":
            op, _, operands = rest[2:].partition(" ")
            assignment = _ASSIGNMENTS.get(op)
            if assignment is None:
                raise ValueError(f"unknown instruction {op!r}")
            return block.append(assignment(_label(head), operands))
        if head == "call":
            return block.append(_call(None, rest))
        raise ValueError(f"expected an instruction, found {line!r}")

    def reuse(self, statement: Statement) -> bool:
        """Add a statement read earlier to the open block.

        Returns False, and adds nothing, when no block is open.
        """
        block = self.block
        if block is None:
            return False
        if isinstance(statement, Terminator):
            block.terminator = statement
            self.block = None
        else:
            block.instructions.append(statement)
        return True


# -- free-form lines ---------------------------------------------------------

_TOKEN_RE = re.compile(
    r"[;#].*|[A-Za-z_][A-Za-z0-9_.]*|-?[0-9]+|<<|>>|[=!<>]=|[^ \t\r]"
)
_TOKEN_HEADS = frozenset(
    string.ascii_letters + string.digits + "_+-*/%&|^<>!~()[]{},:=@"
)
#: Words after which a ``-`` and digits are one negative literal.
_KEYWORDS = frozenset((
    "global", "const", "func", "mov", "alloc", "load", "store", "phi",
    "ctsel", "call", "jmp", "br", "ret", "int", "ptr", "secret",
))
_STATEMENT_WORDS = frozenset(
    ("store", "jmp", "br", "ret", "func", "global", "const")
)


def _tokens(line: str) -> list[str]:
    tokens: list[str] = []
    for tok in _TOKEN_RE.findall(line):
        head = tok[0]
        if head in ";#":
            break
        if head not in _TOKEN_HEADS:
            raise ValueError(f"unexpected character {head!r}")
        if head == "-" and len(tok) > 1 and tokens:
            # "-5" is a literal only where a value starts: not after a
            # value (a name, a number, or a closing bracket).
            prev = tokens[-1]
            if prev in (")", "]") or prev[-1].isdigit() or (
                    prev[0].isalpha() or prev[0] == "_") \
                    and prev not in _KEYWORDS:
                tokens.append("-")
                tok = tok[1:]
        tokens.append(tok)
    return tokens


def _starts_statement(tokens: list[str], i: int) -> bool:
    tok, prev = tokens[i], tokens[i - 1]
    if prev in ("{", "}") or tok == "}":
        return True
    if tok in _STATEMENT_WORDS:
        return not (tok == "global" and prev == "const")
    if tok == "call":
        return prev != "="
    following = tokens[i + 1] if i + 1 < len(tokens) else None
    return following in ("=", ":") and (tok[0].isalpha() or tok[0] == "_")


def _render(piece: list[str]) -> str:
    """Join one statement's tokens with the printer's spacing."""
    out = [piece[0]]
    for i in range(1, len(piece)):
        tok, prev = piece[i], piece[i - 1]
        if tok == "[":
            # Tight in ``a[i]`` and ``@g[4]``; spaced before a phi arm
            # and a global's initializer.
            tight = prev not in (",", "=") and not (
                i == 3 and prev == "phi" and piece[1] == "=")
        else:
            tight = tok in (",", ":", ")", "]", "(") or prev in ("@", "(", "[")
        out.append(tok if tight else " " + tok)
    return "".join(out)


def _pieces(line: str) -> list[str]:
    """Cut a free-form line into statements rendered in printer shape."""
    tokens = _tokens(line)
    pieces = []
    start = depth = 0
    for i, tok in enumerate(tokens):
        if tok in ("(", "["):
            depth += 1
        elif tok in (")", "]"):
            depth -= 1
        elif depth == 0 and i > start and _starts_statement(tokens, i):
            pieces.append(_render(tokens[start:i]))
            start = i
    if start < len(tokens):
        pieces.append(_render(tokens[start:]))
    return pieces


def _last_statement_line(lines: list[str]) -> int:
    for index in range(len(lines) - 1, -1, -1):
        if lines[index].split(";")[0].split("#")[0].strip():
            return index + 1
    return 0


def parse_module(
    text: str,
    name: str = "module",
    statements: Optional[dict] = None,
) -> Module:
    """Parse a whole module from its textual form.

    ``statements``, when given, maps a printed line to the instruction or
    terminator read from it.  A line found there inside an open block is
    not read again: the module gets the same object.  Each body line read
    in printer shape is added to it, so the table can be handed to the
    next parse of a text that repeats those lines.
    """
    reader = _Reader(name)
    read = reader.read
    reuse = reader.reuse
    lines = text.split("\n")
    for number, raw in enumerate(lines, 1):
        if statements is not None:
            statement = statements.get(raw)
            if statement is not None and reuse(statement):
                continue
        line = raw.strip()
        if not line:
            continue
        if ";" not in line and "#" not in line:
            try:
                statement = read(line)
            except ValueError:
                pass
            else:
                if statement is not None and statements is not None:
                    statements[raw] = statement
                continue
        try:
            for piece in _pieces(line):
                read(piece)
        except ValueError as error:
            raise IRSyntaxError(str(error), number) from None
    if reader.function is not None:
        raise IRSyntaxError(
            f"function @{reader.function.name} is not closed",
            _last_statement_line(lines),
        )
    return reader.module


def parse_function(text: str) -> Function:
    """Parse a single function definition."""
    module = parse_module(text)
    if len(module.functions) != 1:
        raise ValueError("expected exactly one function")
    return next(iter(module.functions.values()))
