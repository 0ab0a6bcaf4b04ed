"""Term representation, unification, ordering, and clause normal form.

Terms are either variables or compounds (atoms are compounds of arity 0).
Atoms whose name is all digits denote integers and compare numerically;
everything else compares by name. Fluent literals wrap a term with a sign,
and a clause is a sorted, duplicate-free bundle of literals.

Substitutions are plain dicts mapping variable names to terms. The one
unifier, `unify_track`, binds in place and records the names on a trail
to undo; `unify` runs it on a copy and returns an idempotent result.
"""

from .errors import NonGroundError

_NUM = 0
_SYM = 1
_VAR = 2


class Var:
    """A logic variable, identified by name."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self):
        return hash(("var", self.name))

    def __repr__(self):
        return self.name


def _functor_class(functor):
    if functor.isdigit():
        return _NUM, int(functor)
    return _SYM, functor


def _term_key(term):
    cls, val = _functor_class(term.functor)
    return (cls, val, len(term.args), tuple(a.key for a in term.args))


class Term:
    """A compound term: functor plus argument tuple. Arity 0 is an atom.

    The sort key is cached at construction for ground terms, so ordering
    and clause operations on belief states stay cheap.
    """

    __slots__ = ("functor", "args", "ground", "key", "_hash")

    def __init__(self, functor, args=()):
        self.functor = functor
        self.args = args
        ground = True
        for a in args:
            if isinstance(a, Var) or not a.ground:
                ground = False
                break
        self.ground = ground
        self.key = _term_key(self) if ground else None
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return False
        if self.ground and other.ground:
            return self.key == other.key
        return self.functor == other.functor and self.args == other.args

    def __hash__(self):
        # Ground terms compare by key ("01" equals "1"), so they hash by it.
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key if self.ground else (self.functor, self.args))
        return h

    def __repr__(self):
        return format_term(self)


NIL = Term("[]")
TRUE = Term("true")
FALSE = Term("false")


def Num(value):
    """An integer as an atom with a numeric name."""
    return Term(str(int(value)), ())


def syntactic_key(term):
    """A total order key that also covers non-ground terms.

    Agrees with the ground key on ground terms; variables sort after all
    ground terms of the same nesting position, by name.
    """
    if isinstance(term, Var):
        return (_VAR, term.name, 0, ())
    if term.ground:
        return term.key
    cls, val = _functor_class(term.functor)
    return (cls, val, len(term.args), tuple(syntactic_key(a) for a in term.args))


def compare(t1, t2):
    """Three-way compare of two ground terms in the canonical order."""
    for t in (t1, t2):
        if isinstance(t, Var) or not t.ground:
            raise NonGroundError(f"cannot compare non-ground term {format_term(t)}")
    if t1.key < t2.key:
        return -1
    if t1.key > t2.key:
        return 1
    return 0


def variables(term, acc=None):
    """The set of variable names occurring in a term (or iterable of
    terms). Uses an explicit stack, so deep terms cost no Python
    recursion."""
    if acc is None:
        acc = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            acc.add(t.name)
        elif isinstance(t, Term):
            if not t.ground:
                stack.extend(t.args)
        else:
            stack.extend(t)
    return acc


def walk(term, bindings):
    """Chase variable bindings until an unbound variable or a term."""
    while isinstance(term, Var):
        nxt = bindings.get(term.name)
        if nxt is None:
            return term
        term = nxt
    return term


def apply_subst(term, bindings):
    """Substitute through a term, resolving chains of bindings. With a
    name -> fresh Var mapping for `bindings` it renames a term apart.
    Nested arguments go on an explicit stack, so a long list costs no
    Python recursion."""
    term = walk(term, bindings)
    if term.__class__ is Var or term.ground or not bindings:
        return term
    # One frame per compound being rebuilt:
    # [term, new args so far, changed, iterator over its args, original arg].
    frame = [term, [], False, iter(term.args), term]
    stack = []
    while True:
        args = frame[1]
        for orig in frame[3]:
            a = orig
            while a.__class__ is Var:
                nxt = bindings.get(a.name)
                if nxt is None:
                    break
                a = nxt
            if a.__class__ is not Var and not a.ground:
                stack.append(frame)
                frame = [a, [], False, iter(a.args), orig]
                break
            if a is not orig:
                frame[2] = True
            args.append(a)
        else:
            t = frame[0]
            new = Term(t.functor, tuple(args)) if frame[2] else t
            if not stack:
                return new
            parent = stack.pop()
            if new is not frame[4]:
                parent[2] = True
            parent[1].append(new)
            frame = parent


def occurs(name, term, bindings):
    """True when variable `name` occurs in `term` under `bindings`. Uses
    an explicit stack, so long lists cost no Python recursion."""
    stack = [term]
    while stack:
        term = walk(stack.pop(), bindings)
        if isinstance(term, Var):
            if term.name == name:
                return True
        elif not term.ground:
            stack.extend(term.args)
    return False


def unify_track(t1, t2, bindings, trail, linear=(), left_first=False):
    """Unify in place into a binding store, with the occurs check,
    recording every bound name on `trail`; on failure the caller undoes
    to its mark. An explicit stack keeps deep terms off Python's stack.
    Argument pairs are visited last first, or left to right with
    `left_first`; the order decides which of two variables is bound.

    `linear` names variables that occur once in `t2` and nowhere in `t1`
    or the bindings, like the renamed head variables of a fresh clause.
    Met at its own position in `t2`, such a variable is bound with no
    occurs check: nothing bound so far can contain it."""
    get = bindings.get
    stack = [(t1, t2, True)]
    while stack:
        a, b, own = stack.pop()
        while a.__class__ is Var:
            nxt = get(a.name)
            if nxt is None:
                break
            a = nxt
        if own and b.__class__ is Var and b.name in linear:
            if a.__class__ is Var:
                bindings[a.name] = b
                trail.append(a.name)
            else:
                bindings[b.name] = a
                trail.append(b.name)
            continue
        while b.__class__ is Var:
            nxt = get(b.name)
            if nxt is None:
                break
            b = nxt
            own = False
        if a is b:
            continue
        if a.__class__ is Var:
            if b.__class__ is Var:
                if a.name == b.name:
                    continue
            elif not b.ground and occurs(a.name, b, bindings):
                return False
            bindings[a.name] = b
            trail.append(a.name)
            continue
        if b.__class__ is Var:
            if not a.ground and occurs(b.name, a, bindings):
                return False
            bindings[b.name] = a
            trail.append(b.name)
            continue
        if a.functor != b.functor or len(a.args) != len(b.args):
            return False
        if a.ground and b.ground:
            if a.key != b.key:
                return False
            continue
        if left_first:
            stack.extend(zip(reversed(a.args), reversed(b.args), (own,) * len(a.args)))
        else:
            stack.extend(zip(a.args, b.args, (own,) * len(a.args)))
    return True


def unify(t1, t2, bindings=None):
    """Most general unifier of two terms (with the occurs check), or None:
    `unify_track` run on a copy of `bindings`, then made idempotent."""
    out = {} if bindings is None else dict(bindings)
    if not unify_track(t1, t2, out, [], left_first=True):
        return None
    return {name: apply_subst(value, out) for name, value in out.items()}


def undo(bindings, trail, mark):
    """Unbind the names recorded on `trail` after `mark`."""
    while len(trail) > mark:
        del bindings[trail.pop()]


def flat_key(terms, bindings):
    """The pre-order of `terms` under `bindings` as one flat tuple: the
    key of each atom, (class, value, arity) of each compound, (_VAR, name)
    of each unbound variable. Equal exactly when the substituted terms'
    `syntactic_key`s are, and built without recursion."""
    get = bindings.get
    out = []
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        while t.__class__ is Var:
            nxt = get(t.name)
            if nxt is None:
                out.append((_VAR, t.name))
                break
            t = nxt
        else:
            args = t.args
            if args:
                cls, val = _functor_class(t.functor)
                out.append((cls, val, len(args)))
                stack.extend(reversed(args))
            else:
                out.append(t.key)
    return tuple(out)


class Literal:
    """A signed fluent atom. Negative literals sort right after the
    positive literal of the same fluent."""

    __slots__ = ("positive", "fluent", "key")

    def __init__(self, fluent, positive=True):
        self.positive = positive
        self.fluent = fluent
        self.key = (fluent.key, 0 if positive else 1) if fluent.ground else None

    @property
    def ground(self):
        return self.fluent.ground

    def skey(self):
        return (syntactic_key(self.fluent), 0 if self.positive else 1)

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and other.positive == self.positive
            and other.fluent == self.fluent
        )

    def __hash__(self):
        return hash((self.positive, self.fluent))

    def __repr__(self):
        return format_literal(self)


def apply_literal(lit, bindings):
    """A literal with `bindings` applied to its fluent; the literal itself
    when nothing changes."""
    fluent = apply_subst(lit.fluent, bindings)
    return lit if fluent is lit.fluent else Literal(fluent, lit.positive)


class Clause:
    """A disjunction of literals, kept sorted and duplicate-free.

    The empty clause stands for falsum. Use `normalize_clause` to build
    one from raw literals; it returns None for tautologies.
    """

    __slots__ = ("literals", "ground", "key", "keyset", "_hash")

    def __init__(self, literals):
        self.literals = literals
        self.ground = all(l.ground for l in literals)
        if self.ground:
            self.key = (len(literals), tuple(l.key for l in literals))
            self.keyset = frozenset(l.key for l in literals)
        else:
            self.key = (len(literals), tuple(l.skey() for l in literals))
            self.keyset = None
        self._hash = None

    def __len__(self):
        return len(self.literals)

    @property
    def is_unit(self):
        return len(self.literals) == 1

    def subsumes(self, other):
        """True when every literal of this clause occurs in `other` (ground only)."""
        if len(self.literals) > len(other.literals):
            return False
        return self.keyset <= other.keyset

    def __eq__(self, other):
        return isinstance(other, Clause) and other.key == self.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key)
        return h

    def __repr__(self):
        return format_clause(self)


EMPTY_CLAUSE = Clause(())


def normalize_clause(literals):
    """Sort, deduplicate, and tautology-check a bundle of literals.

    Returns the normalized Clause, or None when the bundle contains a
    complementary pair (the clause is trivially true). Works on ground and
    non-ground literals alike; non-ground ones sort by structure.
    """
    lits = sorted(set(literals), key=Literal.skey)
    seen = {}
    for l in lits:
        k = syntactic_key(l.fluent)
        if k in seen and seen[k] != l.positive:
            return None
        seen[k] = l.positive
    return Clause(tuple(lits))


def mk_list(items, tail=NIL):
    """Build a list term from Python items (cons cells, '.'/2 and '[]')."""
    out = tail
    for item in reversed(items):
        out = Term(".", (item, out))
    return out


def list_parts(term):
    """Split a list term into (items, tail); tail is NIL for proper lists."""
    items = []
    while isinstance(term, Term) and term.functor == "." and len(term.args) == 2:
        items.append(term.args[0])
        term = term.args[1]
    return items, term


def format_term(term):
    """The term's text. Subterms still to print and the punctuation
    between them go on an explicit stack, so a deeply nested term costs
    no Python recursion."""
    out = []
    stack = [term]
    push = stack.append
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is str:
            out.append(t)
        elif cls is Var:
            # Anonymous variables get unreadable fresh names at parse
            # time; print them back as written.
            out.append("_" if t.name.startswith("_#") else t.name)
        elif not t.args:
            out.append(t.functor)
        else:
            if t.functor == "." and len(t.args) == 2:
                items, tail = list_parts(t)
                out.append("[")
                push("]")
                if not (isinstance(tail, Term) and tail.functor == "[]" and not tail.args):
                    push(tail)
                    push("|")
            else:
                items = t.args
                out.append(t.functor + "(")
                push(")")
            for i in range(len(items) - 1, 0, -1):
                push(items[i])
                push(",")
            push(items[0])
    return "".join(out)


def format_literal(lit):
    text = format_term(lit.fluent)
    return text if lit.positive else f"-{text}"


def format_clause(clause):
    if clause.is_unit:
        return format_literal(clause.literals[0])
    return "[" + ",".join(format_literal(l) for l in clause.literals) + "]"
