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


class _Checker:
    """The validator of one text, one method per rule: the text's reader,
    the index of the token its errors and warnings point at, and the
    declaration tables (fluents, actions and aux predicates by name with
    their arity, sensor names, `aux_preds` as name/arity pairs). A domain
    fills the tables from its directives and files its action specs and
    sensor axioms here too; a program or a query is checked against its
    domain's tables."""

    def __init__(self, rd, domain=None):
        self.rd = rd
        self.tok = None
        self.warnings = []
        self.action_specs = {}
        self.sensor_axioms = {}
        if domain is not None:
            self.fluents, self.actions = domain.fluents, domain.actions
            self.sensors, self.aux_preds = domain.sensors, set(domain.aux.items())

    def err(self, message):
        self.rd.err(message, self.tok)

    def warn(self, message):
        self.warnings.append(f"{self.rd.filename}:{self.rd.where(self.tok)[0]}: {message}")

    def items(self, term, message):
        """The items of a proper list term; `message` is the error otherwise."""
        items = _as_list(term)
        if items is None:
            self.err(message)
        return items

    def fluent_literal(self, term, where, require_ground=False):
        positive, atom = _signed(term)
        if not isinstance(atom, Term) or atom.functor in ("-", "/", "=", "."):
            self.err(f"expected a fluent literal in {where}")
        arity = self.fluents.get(atom.functor)
        if arity is None:
            self.err(f"{atom.functor!r} is not a declared fluent ({where})")
        if arity != len(atom.args):
            self.err(f"fluent {atom.functor} has arity {arity}, not {len(atom.args)} ({where})")
        if require_ground and not atom.ground:
            self.err(f"literals must be ground in {where}")
        return Literal(atom, positive)

    def prop_clause(self, term, where):
        items = _literals(term)
        if not items:
            self.err(f"empty clause in {where}")
        fluents = []
        aux = []
        for el in items:
            positive, atom = _signed(el)
            if not isinstance(atom, Term) or atom.functor in ("-", "/", "."):
                self.err(f"expected a literal in {where}")
            pred = (atom.functor, len(atom.args))
            if pred in self.aux_preds or pred in BUILTINS:
                if not positive:
                    self.err(f"aux atoms cannot be negated ({where})")
                aux.append(atom)
            elif atom.functor in self.fluents:
                fluents.append(self.fluent_literal(el, where))
            else:
                self.err(
                    f"{_pred_str(*pred)} is neither a declared fluent nor "
                    f"an aux predicate ({where})"
                )
        return PropClause(tuple(fluents), tuple(aux))

    def property(self, term, where):
        items = self.items(term, f"{where} must be a list of clauses")
        return StateProperty(tuple(self.prop_clause(item, where) for item in items))

    def belief_clauses(self, term, message, where, tautology, require_ground=False):
        """The initial state's or a sensor case meaning's clauses, each a
        literal or a list of literals; a tautology is dropped with a warning."""
        out = []
        for item in self.items(term, message):
            c = normalize_clause(
                [self.fluent_literal(el, where, require_ground) for el in _literals(item)]
            )
            if c is None:
                self.warn(tautology)
            else:
                out.append(c)
        return out

    def declared_action(self, term):
        """Reject `term` unless its functor is an action declared with its
        arity."""
        arity = self.actions.get(term.functor)
        if arity is None:
            self.err(f"{term.functor!r} is not a declared action")
        if arity != len(term.args):
            self.err(f"action {term.functor} has arity {arity}, not {len(term.args)}")

    def case_args(self, term, arity, where):
        if not (isinstance(term, Term) and term.functor == "case" and len(term.args) == arity):
            self.err(f"expected case/{arity} terms in {where}")
        return term.args

    def declare(self, directives):
        """Fill the tables from the `fluents`, `actions`, `sensors` and
        `aux` directives (sensors are bare names, the others name/arity).
        `objects` directives are validated and not kept."""
        decls = {"fluents": {}, "actions": {}, "sensors": {}, "aux": {}}
        sorts = set()
        for raw in directives:
            self.tok = raw.tok
            kind, args = raw.head.functor, raw.head.args
            if kind in decls:
                for item in self.items(args[0], f"{kind} takes a list"):
                    if kind == "sensors":
                        if not (isinstance(item, Term) and not item.args):
                            self.err("sensors items are bare names")
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
                            self.err(f"{kind} items must look like name/arity")
                        if len(item.args[1].functor.lstrip("0")) > 9:
                            self.err(f"{kind} arities must be below 1,000,000,000")
                        name, arity = item.args[0].functor, int(item.args[1].functor)
                    if name in RESERVED_NAMES:
                        self.err(f"{name!r} is reserved and cannot be declared")
                    if any(name in table for table in decls.values()):
                        self.err(f"{name!r} is declared twice")
                    decls[kind][name] = arity
            elif kind == "objects":
                sort = args[0]
                if not (isinstance(sort, Term) and not sort.args):
                    self.err("object sort must be an atom")
                for item in self.items(args[1], "objects takes a list of ground terms"):
                    if isinstance(item, Var) or not item.ground:
                        self.err("object terms must be ground")
                if sort.functor in sorts:
                    self.err(f"objects({sort.functor}, ...) appears twice")
                sorts.add(sort.functor)
        self.fluents, self.actions, self.sensors, self.aux = decls.values()

    def aux_head(self, raw):
        """Check an aux clause's head, which declares its predicate when no
        directive did."""
        self.tok = raw.tok
        name = raw.head.functor
        if name in RESERVED_NAMES:
            self.err(f"{name!r} is reserved and cannot be defined")
        if name in self.fluents or name in self.actions or name in self.sensors:
            self.err(f"{name!r} is declared as a fluent, action, or sensor and cannot have clauses")
        arity = len(raw.head.args)
        if self.aux.setdefault(name, arity) != arity:
            self.err(f"{name!r} is used with two different arities")

    def action(self, head, precond_t, cases_t):
        """Check an `action` directive and file its specification."""
        if not isinstance(head, Term) or head.functor.isdigit():
            self.err("action head must be an atom or compound term")
        self.declared_action(head)
        key = (head.functor, len(head.args))
        if key in self.action_specs:
            self.err(f"action {_pred_str(*key)} is specified twice")
        name = head.functor
        precond = self.property(precond_t, f"{name} precondition")
        # Executing a matched case can bind these names.
        covered = precond.variables(variables(head))
        cases = []
        for ct in self.items(cases_t, "action cases must be a list"):
            cond_t, eff_t = self.case_args(ct, 2, "action cases")
            cond = self.property(cond_t, f"{name} case condition")
            cond.variables(covered)
            eff_items = self.items(eff_t, "case effects must be a list of literals")
            effects = tuple(self.fluent_literal(el, f"{name} effects") for el in eff_items)
            cases.append(ActionCase(cond, effects))
        if not cases:
            self.warn(f"action {name} has no effect cases; executing it will always fail")
        loose = variables([l.fluent for case in cases for l in case.effects]) - covered
        if loose:
            self.warn(
                f"action {name} effect variables {', '.join(sorted(loose))} "
                "are not bound by the head, precondition, or case condition"
            )
        self.action_specs[key] = ActionSpec(head, precond, tuple(cases))

    def sensor_axiom(self, head, cases_t):
        """Check a `sensor_axiom` directive and file the axiom."""
        if not (isinstance(head, Term) and len(head.args) == 1 and isinstance(head.args[0], Var)):
            self.err("sensor axiom head must look like sensor(Var)")
        name = head.functor
        if name not in self.sensors:
            self.err(f"{name!r} is not a declared sensor")
        if name in self.sensor_axioms:
            self.err(f"sensor {name} has two axioms")
        cases = []
        for ct in self.items(cases_t, "sensor cases must be a list"):
            result_t, index_t, meaning_t = self.case_args(ct, 3, "sensor cases")
            if isinstance(result_t, Var) or not result_t.ground:
                self.err("sensor case results must be ground")
            index = self.property(index_t, f"{name} index")
            meaning = self.belief_clauses(
                meaning_t,
                "sensor case meaning must be a list of clauses",
                f"{name} meaning",
                f"tautologous meaning clause dropped from sensor {name}",
            )
            cases.append(SensorCase(result_t, index, tuple(meaning)))
        self.sensor_axioms[name] = SensorAxiom(name, cases)

    def aux_body(self, items):
        """A domain clause's body: aux atoms and built-ins only."""
        body = []
        for kind, payload, tok in items:
            self.tok = tok
            if kind == "cut":
                self.err("cut is not available in domain clauses")
            if kind == "query":
                self.err("domain clauses cannot query or sense")
            positive, atom = _signed(payload)
            if not positive or not isinstance(atom, Term) or atom.functor.isdigit():
                self.err("domain clause bodies are conjunctions of aux atoms")
            if atom.functor == "do":
                self.err("domain clauses cannot act or query")
            pred = (atom.functor, len(atom.args))
            if pred not in self.aux_preds and pred not in BUILTINS:
                self.err(f"{_pred_str(*pred)} is not an aux predicate or builtin")
            body.append(atom)
        return body

    def program_head(self, raw):
        """Check a program clause's head against the domain."""
        self.tok = raw.tok
        name, arity = raw.head.functor, len(raw.head.args)
        if name in RESERVED_NAMES:
            self.err(f"{name!r} is reserved and cannot be defined")
        if (name, arity) in self.aux_preds:
            self.err(f"{_pred_str(name, arity)} is already defined in the domain")
        if name in self.sensors:
            self.err(f"{name!r} is a sensor, not a predicate")

    def goals(self, items):
        """A program clause's or a query's body items as the goals the
        machine runs."""
        goals = []
        for kind, payload, tok in items:
            self.tok = tok
            if kind == "cut":
                goals.append(CUT)
            elif kind == "query":
                if (
                    isinstance(payload, Term)
                    and payload.functor in self.sensors
                    and len(payload.args) == 1
                ):
                    goals.append(Term("?", (payload,)))
                else:
                    clauses = (self.prop_clause(item, "query") for item in _literals(payload))
                    goals.append(StateProperty(clauses))
            else:
                positive, atom = _signed(payload)
                if not positive:
                    self.err("goals cannot be negated")
                if not isinstance(atom, Term) or atom.functor.isdigit():
                    self.err("goals must be atoms or compound terms")
                if atom.functor == "do":
                    if len(atom.args) != 1:
                        self.err("do takes exactly one action argument")
                    if isinstance(atom.args[0], Term):
                        self.declared_action(atom.args[0])
                goals.append(atom)
        return tuple(goals)


_live_domains = 0  # DomainFiles that parse_domain returned and are not yet dropped


def _drop_domain():
    global _live_domains
    _live_domains -= 1
    gc.unfreeze()
    if _live_domains:
        # The last parse froze the caller's cyclic garbage along with the
        # domains: collect it once, then keep the collector off the rest.
        gc.collect()
        if _live_domains:  # the collection may have freed more domains
            gc.freeze()


def parse_domain(text, filename="<domain>"):
    """Read and validate a domain file. Returns a DomainFile whose initial
    state is already in prime implicate form. Pauses the cyclic collector
    process-wide while it runs, and keeps it off the result until the
    last DomainFile it returned is dropped, which calls `gc.unfreeze()`.
    Dropping a DomainFile while others are alive runs one full collection
    and freezes again."""
    global _live_domains
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
    _live_domains += 1
    weakref.finalize(domain, _drop_domain).atexit = False  # no collections at exit
    return domain


def _read_domain(text, filename):
    ck = _Checker(_Reader(text, filename))
    directives = []
    aux_raws = []
    for raw in ck.rd.clauses():
        key = (raw.head.functor, len(raw.head.args))
        if key in _DIRECTIVES:
            if raw.body is not None:
                ck.tok = raw.tok
                ck.err(f"{_pred_str(*key)} directives cannot have bodies")
            directives.append(raw)
        else:
            aux_raws.append(raw)
    ck.declare(directives)
    # Aux predicates may also be declared implicitly, by defining clauses.
    for raw in aux_raws:
        ck.aux_head(raw)
    ck.aux_preds = set(ck.aux.items())

    initial_clauses = []
    for raw in directives:
        ck.tok = raw.tok
        kind, args = raw.head.functor, raw.head.args
        if kind == "initial_state":
            initial_clauses += ck.belief_clauses(
                args[0],
                "initial_state takes a list of clauses",
                "the initial state",
                "tautologous initial clause dropped",
                require_ground=True,
            )
        elif kind == "action":
            ck.action(*args)
        elif kind == "sensor_axiom":
            ck.sensor_axiom(*args)
    aux_clauses = [ProgramClause(raw.head, ck.aux_body(raw.body or ())) for raw in aux_raws]

    for name, arity in ck.actions.items():
        if (name, arity) not in ck.action_specs:
            ck.warnings.append(f"action {name}/{arity} has no specification")
    for name in ck.sensors:
        if name not in ck.sensor_axioms:
            ck.warnings.append(f"sensor {name} has no axiom")

    initial = prime_closure(initial_clauses)
    if initial.inconsistent:
        raise ParseError("the initial state is inconsistent", filename=filename)

    return DomainFile(
        fluents=ck.fluents,
        actions=ck.actions,
        sensors=ck.sensors,
        aux=ck.aux,
        initial=initial,
        action_specs=ck.action_specs,
        sensor_axioms=ck.sensor_axioms,
        # A declared aux predicate with no clauses is defined, and fails.
        aux_program=Program(aux_clauses, ck.aux.items()),
        warnings=ck.warnings,
    )


def parse_program(text, domain, filename="<program>"):
    """Read and validate an agent program against a parsed domain."""
    ck = _Checker(_Reader(text, filename), domain)
    raws = ck.rd.clauses()
    for raw in raws:
        ck.program_head(raw)
    return Program(tuple(ProgramClause(raw.head, ck.goals(raw.body or ())) for raw in raws))


def parse_query(text, domain, filename="<query>"):
    """Read a goal sequence (the CLI's --query string)."""
    ck = _Checker(_Reader(text, filename), domain)
    return ck.goals(ck.rd.body())


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
