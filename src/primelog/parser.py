"""Reader for domain (.alpd) and agent program (.alp) files.

The syntax is Prolog-like: clauses end with a period, `%` starts a line
comment, lowercase names are atoms, capitalized names are variables, and
`_` is a fresh anonymous variable at each occurrence. Integers are atoms
with numeric names. The only infix operators are `/` in arity
declarations and `=` between terms; `-` is the prefix sign of a negative
fluent literal. Clause bodies may additionally contain `!` (cut),
`do(Action)`, and `?(Query)`.

A domain file is a set of directives plus auxiliary clauses:

    fluents([at/2, conn/2]).         actions([go/1, grab/0]).
    sensors([breeze]).               objects(room, [1,2,3]).
    initial_state([at(gold,1), [at(gold,4),at(gold,5)], -conn(1,3)]).
    action(go(Y), Precondition, [case(Condition, Effects), ...]).
    sensor_axiom(breeze(_), [case(Result, Index, Meaning), ...]).
    adj(1,2).                        % anything else: aux clauses

A state property is a list of clauses; a clause is a literal or a list
of literals; a literal is a fluent atom, `-` before a fluent atom, or a
positive aux atom. `?(L)` with a bare literal L abbreviates `?([L])`,
and `?(s(X))` for a declared sensor s triggers sensing instead.

The reader tokenizes a text in one regular-expression pass, interns
ground subterms (a repeated `c(3,4)` is built once per read), and keeps
open terms on an explicit stack, so nesting depth is not limited. A flat
ground compound written without spaces, such as `c(3,4)` or `do(grab)`,
is one token, found by its text after its first occurrence.
"""

import gc
import re
import weakref
from collections import namedtuple

from .errors import ParseError
from .model import (
    CUT,
    ActionCase,
    ActionSpec,
    DomainFile,
    Program,
    ProgramClause,
    PropClause,
    SensorAxiom,
    SensorCase,
    StateProperty,
)
from .pi import prime_closure
from .sld import BUILTINS
from .terms import (
    NIL,
    Literal,
    Term,
    Var,
    list_parts,
    normalize_clause,
    variables,
)

# One match per token, so `findall` reads a whole text in one C-level pass.
# Whitespace and `%` comments are skipped inside the pattern, a character
# that starts no token is captured on its own (`_Reader.err` reports the
# first one), and `\Z` yields "", the end of input. A flat ground compound
# (a functor applied to atoms and numerals, no spaces) is one token.
_NAME = r"[a-z][A-Za-z0-9_]*"
_FLAT = rf"{_NAME}\((?:{_NAME}|\d+)(?:,(?:{_NAME}|\d+))*\)"
_TOKEN = rf":-|\d+|{_FLAT}|{_NAME}|[A-Z_][A-Za-z0-9_]*|[()\[\],.|!?=/-]|\Z"
_TOKEN_RE = re.compile(rf"(?:\s|%[^\n]*)*({_TOKEN}|.)")
_GOOD_TOKEN_RE = re.compile(_TOKEN)

_DIRECTIVES = {
    ("fluents", 1),
    ("actions", 1),
    ("sensors", 1),
    ("aux", 1),
    ("objects", 2),
    ("initial_state", 1),
    ("action", 3),
    ("sensor_axiom", 2),
}

_BUILTIN_NAMES = {name for name, _ in BUILTINS}

RESERVED_NAMES = (
    {name for name, _ in _DIRECTIVES}
    | _BUILTIN_NAMES
    | {"do", "case", "-", "=", "/", ".", "[]"}
)


# Frames of the term reader's stack: an argument list [_ARGS, args,
# functor], list items or tail [_ITEMS or _TAIL, items, tail], a `-` sign,
# and the left operands of `/` and `=` [_SLASH or _EQ, left]. A bottom
# frame [None] stands for the empty stack.
_ARGS, _ITEMS, _TAIL, _NEG, _SLASH, _EQ = range(6)


def _describe(tok):
    """A token as error texts show it: a flat compound by its functor."""
    return "end of input" if tok == "" else repr(tok.partition("(")[0] or tok)


# A clause as read: head, body items (None for a fact), its first token.
_RawClause = namedtuple("_RawClause", "head body tok")


class _Reader:
    """Reads a text's tokens, plain strings addressed by index. Ground
    terms are interned by functor and the identities of their arguments,
    and atoms and flat compound tokens also by their text."""

    def __init__(self, text, filename):
        self.text = text
        self.filename = filename
        self.toks = _TOKEN_RE.findall(text)
        self.i = 0
        self.anon = 0
        self.ground = {}
        self.starts = None

    def peek(self):
        return self.toks[self.i]

    def where(self, tok):
        """Line and column of token index `tok`, recovered by a second
        scan: only errors and warnings need positions."""
        if self.starts is None:
            self.starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        start = self.starts[tok]
        bol = self.text.rfind("\n", 0, start) + 1
        return self.text.count("\n", 0, bol) + 1, start - bol + 1

    def err(self, message, tok=None):
        """Raise a ParseError at token index `tok` (the next token by
        default). A character that starts no token anywhere in the text
        is reported instead: scanning precedes every other check."""
        for j, text in enumerate(self.toks):
            if _GOOD_TOKEN_RE.fullmatch(text) is None:
                message, tok = f"unexpected character {text!r}", j
                break
        raise ParseError(message, *self.where(self.i if tok is None else tok), self.filename)

    def expect(self, tok, where):
        found = self.toks[self.i]
        if found != tok:
            self.err(f"expected {tok!r} in {where}, found {_describe(found)}")
        self.i += 1

    def _make(self, functor, args):
        for a in args:
            if a.__class__ is Var or not a.ground:
                return Term(functor, args)
        key = (functor, *map(id, args))
        return self.ground.get(key) or self.ground.setdefault(key, Term(functor, args))

    def _intern(self, tok):
        """The term of an atom, numeral or flat compound token, built at its
        first occurrence; later ones find it by the token's text."""
        functor, _, args = tok.partition("(")
        if args:
            args = tuple(self.ground.get(a) or self._intern(a) for a in args[:-1].split(","))
        t = self.ground[tok] = self._make(functor, args) if args else Term(tok)
        return t

    def term(self):
        """Read one term. Open constructs wait on an explicit stack of
        frames, so nesting depth costs no Python recursion."""
        toks, ground, make = self.toks, self.ground, self._make
        i = self.i
        stack = [[None]]
        top = None  # the kind of stack[-1]
        t = None
        while True:
            if t is None:
                tok = toks[i]
                i += 1
                c = tok[:1]
                if "a" <= c <= "z" and toks[i] == "(" and tok[-1] != ")":
                    top = _ARGS
                    stack.append([top, [], tok])
                    i += 1
                    continue
                if tok == "-" or tok == "[" and toks[i] != "]":
                    top = _NEG if tok == "-" else _ITEMS
                    stack.append([top, [], NIL])
                    continue
                if "A" <= c <= "Z" or c == "_":
                    if tok == "_":
                        self.anon += 1
                        tok = f"_#{self.anon}"
                    t = Var(tok)
                elif tok == "[":
                    i += 1
                    t = NIL
                elif "a" <= c <= "z" or tok.isdecimal():
                    t = ground.get(tok) or self._intern(tok)
                else:
                    self.err(f"unexpected {_describe(tok)} in term", i - 1)
            # `t` is a complete primary: sign it, then close a `/` or open `/` or `=`.
            while top == _NEG:
                stack.pop()
                top = stack[-1][0]
                t = make("-", (t,))
            tok = toks[i]
            if top == _SLASH:
                t = make("/", (stack.pop()[1], t))
                top = stack[-1][0]
            elif tok == "/" or tok == "=":
                top = _SLASH if tok == "/" else _EQ
                stack.append([top, t])
                i += 1
                t = None
                continue
            # `t` is a complete term.
            while top == _EQ:
                t = make("=", (stack.pop()[1], t))
                top = stack[-1][0]
            if top is None:
                self.i = i
                return t
            frame = stack[-1]
            i += 1
            if top == _TAIL:
                frame[2] = t
            else:
                frame[1].append(t)
                if tok == "," or tok == "|" and top == _ITEMS:
                    if tok == "|":
                        frame[0] = top = _TAIL
                    t = None
                    continue
            close, where = (")", "argument list") if top == _ARGS else ("]", "list")
            if tok != close:
                self.err(f"expected {close!r} in {where}, found {_describe(tok)}", i - 1)
            stack.pop()
            if top == _ARGS:
                t = make(frame[2], tuple(frame[1]))
            else:
                t = frame[2]
                for item in reversed(frame[1]):
                    t = make(".", (item, t))
            top = stack[-1][0]

    def body_item(self):
        tok = self.peek()
        at = self.i
        if tok == "!":
            self.i += 1
            return ("cut", None, at)
        if tok == "?":
            self.i += 1
            self.expect("(", "query")
            arg = self.term()
            self.expect(")", "query")
            return ("query", arg, at)
        return ("goal", self.term(), at)

    def clause(self):
        self.anon = 0
        start = self.i
        head = self.term()
        if not isinstance(head, Term) or head.functor in ("-", "/", "=", "."):
            self.err("clause head must be an atom or compound term", start)
        if head.functor.isdigit():
            self.err("clause head cannot be a number", start)
        tok = self.peek()
        if tok != "." and tok != ":-":
            self.err(f"expected '.' or ':-' after clause head, found {_describe(tok)}")
        self.i += 1
        body = None
        if tok == ":-":
            body = self.goals()
            self.expect(".", "clause")
        return _RawClause(head, body, start)

    def clauses(self):
        out = []
        while self.peek() != "":
            out.append(self.clause())
        return out

    def goals(self):
        items = [self.body_item()]
        while self.peek() == ",":
            self.i += 1
            items.append(self.body_item())
        return items

    def body(self):
        """A bare goal sequence (for query strings), optional final period."""
        self.anon = 0
        items = self.goals()
        if self.peek() == ".":
            self.i += 1
        if self.peek() != "":
            self.err(f"trailing input after query: {_describe(self.peek())}")
        return items


def _as_list(term):
    """Python list of a proper list term's items, or None."""
    if isinstance(term, Var):
        return None
    items, tail = list_parts(term)
    if not (isinstance(tail, Term) and tail.functor == "[]" and not tail.args):
        return None
    return items


def _literals(term):
    """The items of a clause written as a literal or a list of literals
    (and of a `?` argument, a clause or a list of clauses)."""
    items = _as_list(term)
    return [term] if items is None else items


def _signed(term):
    if isinstance(term, Term) and term.functor == "-" and len(term.args) == 1:
        return False, term.args[0]
    return True, term


def _pred_str(functor, arity):
    return f"{functor}/{arity}"


def _list_items(rd, tok, term, message):
    """The items of a proper list term; `message` is the error otherwise."""
    items = _as_list(term)
    if items is None:
        rd.err(message, tok)
    return items


def _fluent_literal(rd, tok, fluent_arity, term, where, require_ground=False):
    positive, atom = _signed(term)
    if not isinstance(atom, Term) or atom.functor in ("-", "/", "=", "."):
        rd.err(f"expected a fluent literal in {where}", tok)
    arity = fluent_arity.get(atom.functor)
    if arity is None:
        rd.err(f"{atom.functor!r} is not a declared fluent ({where})", tok)
    if arity != len(atom.args):
        rd.err(
            f"fluent {atom.functor} has arity {arity}, "
            f"not {len(atom.args)} ({where})",
            tok,
        )
    if require_ground and not atom.ground:
        rd.err(f"literals must be ground in {where}", tok)
    return Literal(atom, positive)


def _prop_clause(rd, tok, fluent_arity, aux_preds, term, where):
    items = _literals(term)
    if not items:
        rd.err(f"empty clause in {where}", tok)
    fluents = []
    aux = []
    for el in items:
        positive, atom = _signed(el)
        if not isinstance(atom, Term) or atom.functor in ("-", "/", "."):
            rd.err(f"expected a literal in {where}", tok)
        pred = (atom.functor, len(atom.args))
        if pred in aux_preds or pred in BUILTINS:
            if not positive:
                rd.err(f"aux atoms cannot be negated ({where})", tok)
            aux.append(atom)
        elif atom.functor in fluent_arity:
            fluents.append(_fluent_literal(rd, tok, fluent_arity, el, where))
        else:
            rd.err(
                f"{_pred_str(*pred)} is neither a declared fluent nor "
                f"an aux predicate ({where})",
                tok,
            )
    return PropClause(tuple(fluents), tuple(aux))


def _property(rd, tok, fluent_arity, aux_preds, term, where):
    items = _list_items(rd, tok, term, f"{where} must be a list of clauses")
    return StateProperty(
        tuple(_prop_clause(rd, tok, fluent_arity, aux_preds, item, where) for item in items)
    )


def _declared_action(rd, tok, actions, term):
    """Reject `term` unless its functor is an action declared with its
    arity."""
    arity = actions.get(term.functor)
    if arity is None:
        rd.err(f"{term.functor!r} is not a declared action", tok)
    if arity != len(term.args):
        rd.err(f"action {term.functor} has arity {arity}, not {len(term.args)}", tok)


def _case_args(rd, tok, term, arity, where):
    if not (
        isinstance(term, Term) and term.functor == "case" and len(term.args) == arity
    ):
        rd.err(f"expected case/{arity} terms in {where}", tok)
    return term.args


def _declarations(rd, directives):
    """The names the `fluents`, `actions`, `sensors` and `aux` directives
    declare, a table by kind (sensors are bare names, the others
    name/arity). `objects` directives are validated and not kept."""
    decls = {"fluents": {}, "actions": {}, "sensors": {}, "aux": {}}
    sorts = set()
    for raw in directives:
        kind, args = raw.head.functor, raw.head.args
        if kind in decls:
            for item in _list_items(rd, raw.tok, args[0], f"{kind} takes a list"):
                if kind == "sensors":
                    if not (isinstance(item, Term) and not item.args):
                        rd.err("sensors items are bare names", raw.tok)
                    name, arity = item.functor, None
                else:
                    if not (
                        isinstance(item, Term)
                        and item.functor == "/"
                        and isinstance(item.args[0], Term)
                        and not item.args[0].args
                        and isinstance(item.args[1], Term)
                        and item.args[1].functor.isdigit()
                    ):
                        rd.err(f"{kind} items must look like name/arity", raw.tok)
                    if len(item.args[1].functor.lstrip("0")) > 9:
                        rd.err(f"{kind} arities must be below 1,000,000,000", raw.tok)
                    name, arity = item.args[0].functor, int(item.args[1].functor)
                if name in RESERVED_NAMES:
                    rd.err(f"{name!r} is reserved and cannot be declared", raw.tok)
                if any(name in table for table in decls.values()):
                    rd.err(f"{name!r} is declared twice", raw.tok)
                decls[kind][name] = arity
        elif kind == "objects":
            sort = args[0]
            if not (isinstance(sort, Term) and not sort.args):
                rd.err("object sort must be an atom", raw.tok)
            items = _list_items(rd, raw.tok, args[1], "objects takes a list of ground terms")
            for item in items:
                if isinstance(item, Var) or not item.ground:
                    rd.err("object terms must be ground", raw.tok)
            if sort.functor in sorts:
                rd.err(f"objects({sort.functor}, ...) appears twice", raw.tok)
            sorts.add(sort.functor)
    return decls


def parse_domain(text, filename="<domain>"):
    """Read and validate a domain file. Returns a DomainFile whose initial
    state is already in prime implicate form. Pauses the cyclic collector
    process-wide while it runs, and keeps it off the result until the
    DomainFile is dropped, which calls `gc.unfreeze()`."""
    # The package makes no reference cycles, so a collection would only
    # walk the objects the parse builds, and free none of them.
    enabled = gc.isenabled()
    gc.disable()
    try:
        domain = _read_domain(text, filename)
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    weakref.finalize(domain, gc.unfreeze)
    return domain


def _read_domain(text, filename):
    rd = _Reader(text, filename)
    warnings = []

    def warn(raw, message):
        warnings.append(f"{filename}:{rd.where(raw.tok)[0]}: {message}")

    directives = []
    aux_raws = []
    for raw in rd.clauses():
        key = (raw.head.functor, len(raw.head.args))
        if key in _DIRECTIVES:
            if raw.body is not None:
                rd.err(f"{_pred_str(*key)} directives cannot have bodies", raw.tok)
            directives.append(raw)
        else:
            aux_raws.append(raw)

    decls = _declarations(rd, directives)
    fluents, actions, sensors = decls["fluents"], decls["actions"], decls["sensors"]

    # Aux predicates may also be declared implicitly, by defining clauses.
    aux_arity = dict(decls["aux"])
    for raw in aux_raws:
        name = raw.head.functor
        if name in RESERVED_NAMES:
            rd.err(f"{name!r} is reserved and cannot be defined", raw.tok)
        if name in fluents or name in actions or name in sensors:
            rd.err(
                f"{name!r} is declared as a fluent, action, or sensor "
                "and cannot have clauses",
                raw.tok,
            )
        arity = len(raw.head.args)
        if aux_arity.setdefault(name, arity) != arity:
            rd.err(f"{name!r} is used with two different arities", raw.tok)
    aux_preds = set(aux_arity.items())

    def belief_clauses(raw, term, message, where, tautology, require_ground=False):
        """The initial state's or a sensor case meaning's clauses, each a
        literal or a list of literals; a tautology is dropped with a warning."""
        out = []
        for item in _list_items(rd, raw.tok, term, message):
            c = normalize_clause(
                [
                    _fluent_literal(rd, raw.tok, fluents, el, where, require_ground)
                    for el in _literals(item)
                ]
            )
            if c is None:
                warn(raw, tautology)
            else:
                out.append(c)
        return out

    initial_clauses = []
    action_specs = {}
    sensor_axioms = {}
    for raw in directives:
        kind, args = raw.head.functor, raw.head.args
        if kind == "initial_state":
            initial_clauses += belief_clauses(
                raw,
                args[0],
                "initial_state takes a list of clauses",
                "the initial state",
                "tautologous initial clause dropped",
                require_ground=True,
            )
        elif kind == "action":
            head, precond_t, cases_t = args
            if not isinstance(head, Term) or head.functor.isdigit():
                rd.err("action head must be an atom or compound term", raw.tok)
            _declared_action(rd, raw.tok, actions, head)
            akey = (head.functor, len(head.args))
            if akey in action_specs:
                rd.err(f"action {_pred_str(*akey)} is specified twice", raw.tok)
            name = head.functor
            precond = _property(
                rd, raw.tok, fluents, aux_preds, precond_t, f"{name} precondition"
            )
            # Executing a matched case can bind these names.
            covered = precond.variables(variables(head))
            cases = []
            for ct in _list_items(rd, raw.tok, cases_t, "action cases must be a list"):
                cond_t, eff_t = _case_args(rd, raw.tok, ct, 2, "action cases")
                cond = _property(
                    rd, raw.tok, fluents, aux_preds, cond_t, f"{name} case condition"
                )
                cond.variables(covered)
                eff_items = _list_items(
                    rd, raw.tok, eff_t, "case effects must be a list of literals"
                )
                effects = tuple(
                    _fluent_literal(rd, raw.tok, fluents, el, f"{name} effects")
                    for el in eff_items
                )
                cases.append(ActionCase(cond, effects))
            if not cases:
                warn(raw, f"action {name} has no effect cases; executing it will always fail")
            loose = variables([l.fluent for case in cases for l in case.effects]) - covered
            if loose:
                warn(
                    raw,
                    f"action {name} effect variables {', '.join(sorted(loose))} "
                    "are not bound by the head, precondition, or case condition",
                )
            action_specs[akey] = ActionSpec(head, precond, tuple(cases))
        elif kind == "sensor_axiom":
            head, cases_t = args
            if not (
                isinstance(head, Term)
                and len(head.args) == 1
                and isinstance(head.args[0], Var)
            ):
                rd.err("sensor axiom head must look like sensor(Var)", raw.tok)
            name = head.functor
            if name not in sensors:
                rd.err(f"{name!r} is not a declared sensor", raw.tok)
            if name in sensor_axioms:
                rd.err(f"sensor {name} has two axioms", raw.tok)
            cases = []
            for ct in _list_items(rd, raw.tok, cases_t, "sensor cases must be a list"):
                result_t, index_t, meaning_t = _case_args(
                    rd, raw.tok, ct, 3, "sensor cases"
                )
                if isinstance(result_t, Var) or not result_t.ground:
                    rd.err("sensor case results must be ground", raw.tok)
                index = _property(
                    rd, raw.tok, fluents, aux_preds, index_t, f"{name} index"
                )
                meaning = belief_clauses(
                    raw,
                    meaning_t,
                    "sensor case meaning must be a list of clauses",
                    f"{name} meaning",
                    f"tautologous meaning clause dropped from sensor {name}",
                )
                cases.append(SensorCase(result_t, index, tuple(meaning)))
            sensor_axioms[name] = SensorAxiom(name, cases)

    aux_clauses = []
    for raw in aux_raws:
        body = []
        for kind, payload, tok in raw.body or ():
            if kind == "cut":
                rd.err("cut is not available in domain clauses", tok)
            if kind == "query":
                rd.err("domain clauses cannot query or sense", tok)
            positive, atom = _signed(payload)
            if not positive or not isinstance(atom, Term) or atom.functor.isdigit():
                rd.err("domain clause bodies are conjunctions of aux atoms", tok)
            pred = (atom.functor, len(atom.args))
            if atom.functor == "do" or pred == ("?", 1):
                rd.err("domain clauses cannot act or query", tok)
            if pred not in aux_preds and pred not in BUILTINS:
                rd.err(
                    f"{_pred_str(*pred)} is not an aux predicate or builtin", tok
                )
            body.append(atom)
        aux_clauses.append(ProgramClause(raw.head, tuple(body)))

    for name, arity in actions.items():
        if (name, arity) not in action_specs:
            warnings.append(f"action {name}/{arity} has no specification")
    for name in sensors:
        if name not in sensor_axioms:
            warnings.append(f"sensor {name} has no axiom")

    initial = prime_closure(initial_clauses)
    if initial.inconsistent:
        raise ParseError("the initial state is inconsistent", filename=filename)

    return DomainFile(
        fluents=fluents,
        actions=actions,
        sensors=sensors,
        aux=aux_arity,
        initial=initial,
        action_specs=action_specs,
        sensor_axioms=sensor_axioms,
        aux_program=Program(tuple(aux_clauses)),
        warnings=warnings,
    )


def _classify_goal(rd, domain, aux_preds, kind, payload, tok):
    if kind == "cut":
        return CUT
    if kind == "query":
        if (
            isinstance(payload, Term)
            and payload.functor in domain.sensors
            and len(payload.args) == 1
        ):
            return Term("?", (payload,))
        return StateProperty(
            _prop_clause(rd, tok, domain.fluents, aux_preds, item, "query")
            for item in _literals(payload)
        )
    positive, atom = _signed(payload)
    if not positive:
        rd.err("goals cannot be negated", tok)
    if not isinstance(atom, Term) or atom.functor.isdigit():
        rd.err("goals must be atoms or compound terms", tok)
    if atom.functor == "do":
        if len(atom.args) != 1:
            rd.err("do takes exactly one action argument", tok)
        if isinstance(atom.args[0], Term):
            _declared_action(rd, tok, domain.actions, atom.args[0])
    return atom


def parse_program(text, domain, filename="<program>"):
    """Read and validate an agent program against a parsed domain."""
    rd = _Reader(text, filename)
    raws = rd.clauses()
    aux_preds = set(domain.aux.items())

    for raw in raws:
        pred = (raw.head.functor, len(raw.head.args))
        if raw.head.functor in RESERVED_NAMES:
            rd.err(
                f"{raw.head.functor!r} is reserved and cannot be defined", raw.tok
            )
        if pred in aux_preds:
            rd.err(
                f"{_pred_str(*pred)} is already defined in the domain", raw.tok
            )
        if raw.head.functor in domain.sensors:
            rd.err(f"{raw.head.functor!r} is a sensor, not a predicate", raw.tok)

    clauses = []
    for raw in raws:
        body = tuple(
            _classify_goal(rd, domain, aux_preds, kind, payload, tok)
            for kind, payload, tok in raw.body or ()
        )
        clauses.append(ProgramClause(raw.head, body))
    return Program(tuple(clauses))


def parse_query(text, domain, filename="<query>"):
    """Read a goal sequence (the CLI's --query string)."""
    rd = _Reader(text, filename)
    items = rd.body()
    aux_preds = set(domain.aux.items())
    return tuple(
        _classify_goal(rd, domain, aux_preds, kind, payload, tok)
        for kind, payload, tok in items
    )


def parse_ground_terms(text, filename="<terms>"):
    """Period-terminated ground terms, e.g. a replay script. Variables
    are rejected."""
    rd = _Reader(text, filename)
    out = []
    while rd.peek() != "":
        rd.anon = 0
        start = rd.i
        term = rd.term()
        if variables(term, set()):
            rd.err("ground term expected", start)
        rd.expect(".", "term list")
        out.append(term)
    return out
