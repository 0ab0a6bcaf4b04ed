"""Reference implementation for the differential tests of the reader.

primelog's reader tokenizes with one regular expression scan over the
whole text, interns ground subterms and reads nested terms with an
explicit stack. Before that, it matched one token at a time into
`Token` objects that carried their line and column, and read terms by
recursive descent, building every subterm afresh. That reader is kept
here, as it was, so the tests can compare the two: `_Reader(text,
filename).clauses()`, `.body()` and `.term()` give the raw clauses, goal
items and terms, or raise the same `ParseError`.

It recurses on nested terms, so it only serves shallow inputs.
"""

import re

from primelog.errors import ParseError
from primelog.terms import NIL, Term, Var, mk_list

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<neck>:-)"
    r"|(?P<num>\d+)"
    r"|(?P<atom>[a-z][A-Za-z0-9_]*)"
    r"|(?P<var>[A-Z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[()\[\],.|!?=/-])"
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _describe(tok):
    if tok.kind == "eof":
        return "end of input"
    return f"{tok.text!r}"


def _tokenize(text, filename):
    tokens = []
    pos = 0
    line = 1
    bol = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - bol + 1, filename
            )
        kind = m.lastgroup
        s = m.group()
        if kind in ("ws", "comment"):
            if "\n" in s:
                line += s.count("\n")
                bol = pos + s.rfind("\n") + 1
        else:
            if kind == "punct":
                kind = s
            tokens.append(Token(kind, s, line, pos - bol + 1))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - bol + 1))
    return tokens


class _RawClause:
    """One read clause before semantic checks: head term, body item list
    (None for a fact), and the token it started at."""

    __slots__ = ("head", "body", "tok")

    def __init__(self, head, body, tok):
        self.head = head
        self.body = body
        self.tok = tok


class _Reader:
    def __init__(self, text, filename):
        self.filename = filename
        self.toks = _tokenize(text, filename)
        self.i = 0
        self.anon = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def err(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col, self.filename)

    def expect(self, kind, where):
        tok = self.advance()
        if tok.kind != kind:
            self.err(f"expected {kind!r} in {where}, found {_describe(tok)}", tok)
        return tok

    def term(self):
        t = self.primary()
        nxt = self.peek()
        if nxt.kind == "/":
            self.advance()
            t = Term("/", (t, self.primary()))
        elif nxt.kind == "=":
            self.advance()
            t = Term("=", (t, self.term()))
        return t

    def primary(self):
        tok = self.advance()
        if tok.kind == "num":
            return Term(tok.text)
        if tok.kind == "var":
            if tok.text == "_":
                self.anon += 1
                return Var(f"_#{self.anon}")
            return Var(tok.text)
        if tok.kind == "atom":
            if self.peek().kind == "(":
                self.advance()
                args = [self.term()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.term())
                self.expect(")", "argument list")
                return Term(tok.text, tuple(args))
            return Term(tok.text)
        if tok.kind == "[":
            return self.list_term()
        if tok.kind == "-":
            return Term("-", (self.primary(),))
        self.err(f"unexpected {_describe(tok)} in term", tok)

    def list_term(self):
        if self.peek().kind == "]":
            self.advance()
            return NIL
        items = [self.term()]
        while self.peek().kind == ",":
            self.advance()
            items.append(self.term())
        tail = NIL
        if self.peek().kind == "|":
            self.advance()
            tail = self.term()
        self.expect("]", "list")
        return mk_list(items, tail)

    def body_item(self):
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return ("cut", None, tok)
        if tok.kind == "?":
            self.advance()
            self.expect("(", "query")
            arg = self.term()
            self.expect(")", "query")
            return ("query", arg, tok)
        return ("goal", self.term(), tok)

    def clause(self):
        self.anon = 0
        start = self.peek()
        head = self.term()
        if not isinstance(head, Term) or head.functor in ("-", "/", "=", "."):
            self.err("clause head must be an atom or compound term", start)
        if head.functor.isdigit():
            self.err("clause head cannot be a number", start)
        tok = self.advance()
        if tok.kind == ".":
            return _RawClause(head, None, start)
        if tok.kind != "neck":
            self.err(f"expected '.' or ':-' after clause head, found {_describe(tok)}", tok)
        body = [self.body_item()]
        while self.peek().kind == ",":
            self.advance()
            body.append(self.body_item())
        self.expect(".", "clause")
        return _RawClause(head, body, start)

    def clauses(self):
        out = []
        while self.peek().kind != "eof":
            out.append(self.clause())
        return out

    def body(self):
        """A bare goal sequence (for query strings), optional final period."""
        self.anon = 0
        items = [self.body_item()]
        while self.peek().kind == ",":
            self.advance()
            items.append(self.body_item())
        if self.peek().kind == ".":
            self.advance()
        if self.peek().kind != "eof":
            self.err(f"trailing input after query: {_describe(self.peek())}")
        return items
