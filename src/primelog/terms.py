"""Term representation, unification, ordering, and clause normal form.

Terms are either variables or compounds (atoms are compounds of arity 0).
Atoms whose name is all digits denote integers and compare numerically;
everything else compares by name. Every term, ground or open, hashes and
sorts by one key, the flat pre-order of `flat_key`, built the first time
it is asked for. Fluent literals wrap a term with a sign, and a clause is
a sorted, duplicate-free bundle of literals.

Substitutions are plain dicts mapping variable names to terms. The one
unifier, `unify_track`, binds in place and records the names on a trail
to undo, by one rule: a variable that meets an open compound is bound to
the ground term the compound stands for when it has one. `unify_head`
runs the same unification against a clause head as parsed, renaming its
variables through a name -> fresh variable mapping as it meets them, so
it builds no renamed copy of the head. `unify` runs `unify_track` on a
copy and returns an idempotent result.
"""

from operator import attrgetter

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


class Term:
    """A compound term: functor plus argument tuple. Arity 0 is an atom.

    Every term hashes, compares and sorts by one `key`: its `flat_key`,
    built on first use and cached, so a term that is never compared
    costs no key and a deep one costs no Python recursion. A ground list
    cell may keep its items' keys in `_members` (see `ground_member`),
    None until then.
    """

    __slots__ = ("functor", "args", "ground", "_key", "_hash", "_members")

    def __init__(self, functor, args=()):
        self.functor = functor
        self.args = args
        self._key = self._hash = self._members = None
        ground = True
        for a in args:
            if a.__class__ is Var or not a.ground:
                ground = False
                break
        self.ground = ground

    @property
    def key(self):
        key = self._key
        if key is None:
            key = self._key = flat_key((self,), {})
        return key

    def __eq__(self, other):
        return self is other or (isinstance(other, Term) and self.key == other.key)

    def __hash__(self):
        # Terms compare by key ("01" equals "1"), so they hash by it.
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key)
        return h

    def __repr__(self):
        return format_term(self)


NIL = Term("[]")
TRUE = Term("true")
FALSE = Term("false")


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
    A term whose arguments all walk to variables or ground terms is
    rebuilt in one pass over them; any other goes to `_apply_nested`.
    Either way the term itself comes back when nothing changed."""
    term = walk(term, bindings)
    if term.__class__ is Var or term.ground or not bindings:
        return term
    get = bindings.get
    args = []
    changed = False
    for orig in term.args:
        a = orig
        while a.__class__ is Var:
            nxt = get(a.name)
            if nxt is None:
                break
            a = nxt
        if a.__class__ is not Var and not a.ground:
            return _apply_nested(term, bindings)
        if a is not orig:
            changed = True
        args.append(a)
    return Term(term.functor, tuple(args)) if changed else term


def _apply_nested(term, bindings):
    """`apply_subst` of an open compound with an open compound below it.
    Nested arguments go on an explicit stack, so a long list costs no
    Python recursion, and an open subterm met twice is rebuilt once."""
    built = {}  # id of an open subterm -> what it became
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
                done = built.get(id(a))
                if done is None:
                    stack.append(frame)
                    frame = [a, [], False, iter(a.args), orig]
                    break
                a = done
            if a is not orig:
                frame[2] = True
            args.append(a)
        else:
            t = frame[0]
            new = Term(t.functor, tuple(args)) if frame[2] else t
            if not stack:
                return new
            built[id(t)] = new
            parent = stack.pop()
            if new is not frame[4]:
                parent[2] = True
            parent[1].append(new)
            frame = parent


def _value(name, term, bindings):
    """What variable `name` is bound to when it meets the open compound
    `term`: None when `name` occurs in `term` (the occurs check), the
    ground term `term` stands for when every variable under it is bound
    down to ground terms, else `term` itself. One walk over the subterms,
    on an explicit stack, decides both, so a list built through the
    store, as `[Y|Acc]` cells or as a chain of open `[Y|Ys]` cells ending
    in a ground list, is bound ground, and later walks stop at it."""
    ground = True
    stack = [term]
    while stack:
        t = walk(stack.pop(), bindings)
        if t.__class__ is Var:
            if t.name == name:
                return None
            ground = False
        elif not t.ground:
            stack.extend(t.args)
    return apply_subst(term, bindings) if ground else term


def unify_track(t1, t2, bindings, trail, left_first=False):
    """Unify in place into a binding store, with the occurs check,
    recording every bound name on `trail`; on failure the caller undoes
    to its mark. An explicit stack keeps deep terms off Python's stack.
    Argument pairs are visited last first, or left to right with
    `left_first`; the order decides which of two variables is bound.
    Two ground terms unify iff their keys are equal, so numerals are
    equal by value ("01" = "1") at every depth. A variable that meets an
    open compound is bound to its `_value`."""
    get = bindings.get
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        while a.__class__ is Var:
            nxt = get(a.name)
            if nxt is None:
                break
            a = nxt
        while b.__class__ is Var:
            nxt = get(b.name)
            if nxt is None:
                break
            b = nxt
        if a is b:
            continue
        if a.__class__ is Var:
            if b.__class__ is Var:
                if a.name == b.name:
                    continue
            elif not b.ground:
                b = _value(a.name, b, bindings)
                if b is None:
                    return False
            bindings[a.name] = b
            trail.append(a.name)
            continue
        if b.__class__ is Var:
            if not a.ground:
                a = _value(b.name, a, bindings)
                if a is None:
                    return False
            bindings[b.name] = a
            trail.append(b.name)
            continue
        if a.ground and b.ground:
            if a.key != b.key:
                return False
            continue
        if a.functor != b.functor or len(a.args) != len(b.args):
            return False
        if left_first:
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        else:
            stack.extend(zip(a.args, b.args))
    return True


def _build(head, name, mapping, get):
    """The open head subterm `head` as a goal variable `name` meets it:
    each head variable becomes its `mapping` entry, or the ground term
    that entry is bound to. Returns (term, settled), settled when every
    entry was unbound or bound ground, so no `_value` walk is needed; or
    None when `name` is one of the entries."""
    settled = True
    frame = [head, [], iter(head.args)]
    stack = []
    while True:
        out = frame[1]
        for c in frame[2]:
            if c.__class__ is Var:
                var = mapping[c.name]
                value = get(var.name)
                if value is None:
                    if var.name == name:
                        return None
                    out.append(var)
                elif value.__class__ is not Var and value.ground:
                    out.append(value)
                else:
                    out.append(var)
                    settled = False
            elif c.ground:
                out.append(c)
            else:
                stack.append(frame)
                frame = [c, [], iter(c.args)]
                break
        else:
            term = Term(frame[0].functor, tuple(out))
            if not stack:
                return term, settled
            frame = stack.pop()
            frame[1].append(term)


def unify_head(goal, head, mapping, bindings, trail):
    """`unify_track(goal, head)` with each head variable standing for its
    `mapping` entry, and no renamed copy of the head built: the same
    pairs in the same order (last argument first), the same binding rule
    and the same trail. A goal variable that meets a head compound whose
    variables are all unbound or bound ground is bound with no `_value`
    walk: no such compound can contain it, and one whose variables are
    all bound is built ground. `goal` has the head's functor and arity."""
    get = bindings.get
    stack = list(zip(goal.args, head.args))
    while stack:
        a, c = stack.pop()
        while a.__class__ is Var:
            nxt = get(a.name)
            if nxt is None:
                break
            a = nxt
        if c.__class__ is Var:
            b = mapping[c.name]
            nxt = get(b.name)
            if nxt is not None:
                if not unify_track(a, nxt, bindings, trail):
                    return False
                continue
            if a.__class__ is Var:
                if a.name == b.name:
                    continue
                bindings[a.name] = b
                trail.append(a.name)
                continue
            if not a.ground:
                a = _value(b.name, a, bindings)
                if a is None:
                    return False
            bindings[b.name] = a
            trail.append(b.name)
        elif c.ground:
            if not unify_track(a, c, bindings, trail):
                return False
        elif a.__class__ is Var:
            built = _build(c, a.name, mapping, get)
            if built is None:
                return False
            b, settled = built
            if not settled:
                b = _value(a.name, b, bindings)
                if b is None:
                    return False
            bindings[a.name] = b
            trail.append(a.name)
        elif a.functor != c.functor or len(a.args) != len(c.args):
            return False
        else:
            stack.extend(zip(a.args, c.args))
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
    """The pre-order of `terms` under `bindings` as one flat tuple of
    scalars: class, value and arity of each compound (an atom is a
    compound of arity 0), `_VAR` and the name of each unbound variable.
    Numerals are of class `_NUM`, valued by the count and the string of
    their digits, read as ASCII with leading zeros stripped: so they
    order as integers of any length, and "01" and "1" key alike.
    Everything else is of class `_SYM`, valued by name.

    With arities, a pre-order is a prefix-free code for the tree, so
    these keys order terms exactly as nested (class, value, arity,
    argument keys) tuples would, a variable after every ground term at
    its position, by name; unlike those, they compare and hash without
    recursion at any depth. A ground subterm whose key is already built
    is copied in, not walked."""
    get = bindings.get
    out = []
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        while t.__class__ is Var:
            nxt = get(t.name)
            if nxt is None:
                out += (_VAR, t.name)
                break
            t = nxt
        else:
            if t.ground and t._key is not None:
                out += t._key
                continue
            functor, args = t.functor, t.args
            if functor.isdigit():
                if not functor.isascii():
                    functor = "".join(str(int(c)) for c in functor)
                functor = functor.lstrip("0")
                out += (_NUM, len(functor), functor, len(args))
            else:
                out += (_SYM, functor, len(args))
            if args:
                stack.extend(reversed(args))
    return tuple(out)


class Literal:
    """A signed fluent atom, keyed on first use by its fluent's key and
    its sign: negative literals sort right after the positive literal of
    the same fluent."""

    __slots__ = ("positive", "fluent", "_key")

    def __init__(self, fluent, positive=True):
        self.positive = positive
        self.fluent = fluent
        self._key = None

    @property
    def key(self):
        key = self._key
        if key is None:
            key = self._key = (self.fluent.key, 0 if self.positive else 1)
        return key

    @property
    def ground(self):
        return self.fluent.ground

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

    __slots__ = ("literals", "ground", "key", "_hash")

    def __init__(self, literals):
        self.literals = literals
        self.ground = all(l.ground for l in literals)
        self.key = (len(literals), tuple(l.key for l in literals))
        self._hash = None

    def __len__(self):
        return len(self.literals)

    @property
    def is_unit(self):
        return len(self.literals) == 1

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

_literal_key = attrgetter("key")


def normalize_clause(literals):
    """Sort, deduplicate, and tautology-check a bundle of literals.

    Returns the normalized Clause, or None when the bundle contains a
    complementary pair (the clause is trivially true). Works on ground and
    non-ground literals alike.
    """
    lits = sorted(set(literals), key=_literal_key)
    seen = {}
    for l in lits:
        if seen.setdefault(l.key[0], l.positive) != l.positive:
            return None
    return Clause(tuple(lits))


def mk_list(items, tail=NIL):
    """Build a list term from Python items (cons cells, '.'/2 and '[]')."""
    out = tail
    for item in reversed(items):
        out = Term(".", (item, out))
    return out


# The fewest cells a `ground_member` walk passes before it stores a key
# set at the cell it was asked about. A list that grows at its head, as
# an agent's visited list does, then has a set at most every
# MEMBER_STRIDE cells, so a query walks at most that many cells and
# makes one set lookup. Each set copies the one below it, so a list of n
# items keeps about n*n/(2*MEMBER_STRIDE) keys. 16 is where a shorter
# walk stopped paying: a wumpus-g2 solve ran no faster at 8, which keeps
# twice the keys, and about 5% slower at 32.
MEMBER_STRIDE = 16


def ground_member(cell, key):
    """Whether the ground list `cell` has an item keyed `key`, or None
    when its spine does not end in `[]`. The walk down the spine stops at
    the first cell that keeps its members' keys, since that cell heads a
    proper list, and stores the keys at `cell` when it passed at least
    MEMBER_STRIDE cells."""
    keys = []
    t = cell
    while True:
        members = t._members
        if members is not None:
            break
        if t.functor != "." or len(t.args) != 2:
            if t != NIL:
                return None
            members = frozenset()
            break
        keys.append(t.args[0].key)
        t = t.args[1]
    if len(keys) >= MEMBER_STRIDE:
        cell._members = members = members.union(keys)
        return key in members
    return key in members or key in keys


def list_parts(term, bindings=None):
    """Split a list term into (items, tail), reading the spine through
    `bindings`; tail is NIL for proper lists."""
    get = (bindings or {}).get
    items = []
    while True:
        while term.__class__ is Var:
            nxt = get(term.name)
            if nxt is None:
                return items, term
            term = nxt
        if term.functor != "." or len(term.args) != 2:
            return items, term
        items.append(term.args[0])
        term = term.args[1]


def format_term(term, bindings=None):
    """The term's text, read through `bindings` as if they had been
    substituted. Subterms still to print and the punctuation between them
    go on an explicit stack, so a deeply nested term costs no Python
    recursion."""
    get = (bindings or {}).get
    out = []
    stack = [term]
    push = stack.append
    while stack:
        t = stack.pop()
        while t.__class__ is Var:
            nxt = get(t.name)
            if nxt is None:
                break
            t = nxt
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
                items, tail = list_parts(t, bindings)
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
