"""The reader: exact error texts and positions, warning lines, a
differential check against the reader it replaced, interning of ground
subterms, and input nested thousands deep."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import reader_reference
from primelog import parser
from primelog.envs import WumpusConfig, emit_maze_domain, emit_wumpus_domain, generate_wumpus
from primelog.errors import ParseError
from primelog.parser import (
    parse_domain,
    parse_ground_terms,
    parse_program,
    parse_query,
)
from primelog.terms import Term, Var, format_term

MAZE = """\
fluents([at/2]).
actions([go/1]).
initial_state([at(agent,1), at(gold,4)]).
action(go(Y),
  [at(agent,X), adj(X,Y)],
  [case([], [at(agent,Y), -at(agent,X)])]).
adj(1,2). adj(2,1). adj(2,3). adj(3,2).
"""


def _read(kind, text):
    if kind == "domain":
        return parse_domain(text, "d.alpd")
    if kind == "program":
        return parse_program(text, parse_domain(MAZE, "m.alpd"), "p.alp")
    if kind == "query":
        return parse_query(text, parse_domain(MAZE, "m.alpd"))
    return parse_ground_terms(text, "t.txt")


READER_ERRORS = [
    # a character no token starts with
    ("terms", "% one\n% two  \n\nfluents([at/1]).\n  @x.\n", "t.txt:5:3: unexpected character '@'"),
    ("terms", "p(a).\n\t\t$", "t.txt:2:3: unexpected character '$'"),
    ("terms", "p(a, b) & q.", "t.txt:1:9: unexpected character '&'"),
    ("terms", "p(a)\u00a0\u2003é.", "t.txt:1:7: unexpected character 'é'"),
    ("terms", "p(a).\r\n\r\n q :", "t.txt:3:4: unexpected character ':'"),
    ("program", "p :q.", "p.alp:1:3: unexpected character ':'"),
    # ... is reported before an earlier syntax or validation error
    ("terms", "p(a q). x €", "t.txt:1:11: unexpected character '€'"),
    ("terms", "f(X). y ~", "t.txt:1:9: unexpected character '~'"),
    (
        "domain",
        "fluents([at/1]).\ninitial_state([at(1)]).\nfoo :- ok ^ .",
        "d.alpd:3:11: unexpected character '^'",
    ),
    # missing ')', ']' and '.'
    ("terms", "p(a.\n", "t.txt:1:4: expected ')' in argument list, found '.'"),
    ("program", "p :- ?(q.", "p.alp:1:9: expected ')' in query, found '.'"),
    ("program", "p :- ?[q].", "p.alp:1:7: expected '(' in query, found '['"),
    ("terms", "p([a,b).", "t.txt:1:7: expected ']' in list, found ')'"),
    ("terms", "p(a) q(b).", "t.txt:1:6: expected '.' in term list, found 'q'"),
    ("terms", "a/b/c.", "t.txt:1:4: expected '.' in term list, found '/'"),
    ("program", "p :- q(a) r.", "p.alp:1:11: expected '.' in clause, found 'r'"),
    (
        "domain",
        "p(a) q(b).",
        "d.alpd:1:6: expected '.' or ':-' after clause head, found 'q'",
    ),
    ("terms", "p(,).", "t.txt:1:3: unexpected ',' in term"),
    # a flat ground compound is one token, shown by its functor
    ("terms", "p(a)(b).", "t.txt:1:5: expected '.' in term list, found '('"),
    ("terms", "p(a)x.", "t.txt:1:5: expected '.' in term list, found 'x'"),
    ("terms", "p(a q(b)).", "t.txt:1:5: expected ')' in argument list, found 'q'"),
    ("terms", "p(c(1,2)é).", "t.txt:1:9: unexpected character 'é'"),
    ("domain", "p(a)(b).", "d.alpd:1:5: expected '.' or ':-' after clause head, found '('"),
    ("domain", "p(a)x.", "d.alpd:1:5: expected '.' or ':-' after clause head, found 'x'"),
    ("program", "p(a) q(b).", "p.alp:1:6: expected '.' or ':-' after clause head, found 'q'"),
    ("program", "p :- q(1,b) r(c).", "p.alp:1:13: expected '.' in clause, found 'r'"),
    ("program", "p :- ?q(b).", "p.alp:1:7: expected '(' in query, found 'q'"),
    ("query", "p(a) q(b).", "<query>:1:6: trailing input after query: 'q'"),
    # a clause that ends at end of input
    ("terms", "p(a)", "t.txt:1:5: expected '.' in term list, found end of input"),
    (
        "terms",
        "p(a)  % done\n",
        "t.txt:2:1: expected '.' in term list, found end of input",
    ),
    (
        "program",
        "p :- q(a)\n\n",
        "p.alp:3:1: expected '.' in clause, found end of input",
    ),
    (
        "domain",
        "fluents([at/1]).\np(a)",
        "d.alpd:2:5: expected '.' or ':-' after clause head, found end of input",
    ),
    # trailing input after a query
    ("query", "p, q r", "<query>:1:6: trailing input after query: 'r'"),
    ("query", "p. q", "<query>:1:4: trailing input after query: 'q'"),
]


@pytest.mark.parametrize("kind, text, message", READER_ERRORS)
def test_reader_error_text_and_position(kind, text, message):
    with pytest.raises(ParseError) as info:
        _read(kind, text)
    assert str(info.value) == message


def test_validation_error_points_at_the_clause_start():
    with pytest.raises(ParseError) as info:
        parse_ground_terms("a.\n  p(٣٤, X).", "t.txt")
    assert str(info.value) == "t.txt:2:3: ground term expected"


def test_warnings_name_the_line_of_their_directive():
    taut = MAZE.replace(
        "initial_state([at(agent,1), at(gold,4)])",
        "\n% c\ninitial_state([at(agent,1),\n [at(gold,4), -at(gold,4)]])",
    )
    assert parse_domain(taut, "m.alpd").warnings == [
        "m.alpd:5: tautologous initial clause dropped"
    ]
    no_effects = (
        "fluents([at/2]).\nactions([go/1, stay/0]).\n"
        "initial_state([at(agent,1)]).\n\n\n  action(stay, [], []).\n"
    )
    assert parse_domain(no_effects, "n.alpd").warnings == [
        "n.alpd:6: action stay has no effect cases; executing it will always fail",
        "action go/1 has no specification",
    ]


# ---------------------------------------------------------------- differential

SAMPLES = [
    path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent.parent / "samples").iterdir())
]
# Separators: CRLF line ends, a tab, Unicode spaces and comments.
SEPARATORS = ["", " ", "\n", "\r\n", "\t", "\u00a0", "\u2003", "% c\n", "%x % y\n", " %"]
# Every kind of token, Unicode digits, and characters that start none.
PIECES = SEPARATORS + [
    "a", "foo", "b_2", "X", "_", "_Y", "Abc", "0", "12", "01", "\u0663\u0664",
    "(", ")", "[", "]", ",", ".", "|", "!", "?", "=", "/", "-", ":-",
    ":", "@", "\u00e9", "\u00b2", "%",
]


# The arguments of a flat ground compound, which the reader scans as one
# token: atoms and numerals, Unicode digits among them.
_FLAT_ARGS = st.lists(
    st.sampled_from(["a", "b_2", "aB", "0", "01", "12", "\u0663", "\u0663\u0664"]),
    min_size=1,
    max_size=3,
).map(",".join)


def _compound(children):
    args = st.lists(children, min_size=1, max_size=3).map(",".join)
    return st.one_of(
        st.tuples(st.sampled_from(["f", "g", "c"]), args).map(lambda fa: f"{fa[0]}({fa[1]})"),
        st.tuples(st.sampled_from(["f", "c", "do"]), _FLAT_ARGS).map(lambda fa: f"{fa[0]}({fa[1]})"),
        st.tuples(st.lists(children, max_size=3), st.none() | children).map(
            lambda it: f"[{','.join(it[0])}{'' if it[1] is None or not it[0] else '|' + it[1]}]"
        ),
        st.tuples(st.sampled_from(["-", "- "]), children).map("".join),
        st.tuples(children, st.sampled_from(["/", " = ", "="]), children).map("".join),
    )


_terms = st.recursive(
    st.sampled_from(["a", "b_2", "X", "_", "_Y", "0", "01", "\u0663", "[]"]),
    _compound,
    max_leaves=10,
)
_body_items = st.one_of(_terms, st.just("!"), _terms.map(lambda t: f"?({t})"))
_heads = st.one_of(
    st.sampled_from(["p", "q"]),
    st.lists(_terms, min_size=1, max_size=3).map(lambda args: f"p({','.join(args)})"),
)
_clauses = st.tuples(_heads, st.lists(_body_items, max_size=3)).map(
    lambda hb: f"{hb[0]} :- {', '.join(hb[1])}." if hb[1] else f"{hb[0]}."
)


@st.composite
def _scattered(draw, texts, pieces):
    """A text with pieces inserted anywhere, even inside tokens."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(pieces)) + text[at:]
    return text


@st.composite
def _mutated_sample(draw):
    """A sample file cut short, or with one character replaced, inserted
    or deleted."""
    text = draw(st.sampled_from(SAMPLES))
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["cut", "replace", "insert", "delete"]))
    if how == "cut":
        return text[:at]
    char = draw(st.sampled_from([p for p in PIECES if len(p) == 1]))
    if how == "insert":
        return text[:at] + char + text[at:]
    return text[:at] + (char if how == "replace" else "") + text[at + 1:]


TEXTS = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
    _scattered(st.lists(_clauses, min_size=1, max_size=4).map(" ".join), SEPARATORS),
    _scattered(st.lists(_clauses, min_size=1, max_size=4).map(" ".join), PIECES),
    _scattered(st.lists(_body_items, min_size=1, max_size=3).map(", ".join), SEPARATORS),
    _scattered(st.lists(_body_items, min_size=1, max_size=3).map(", ".join), PIECES),
    _mutated_sample(),
)


def _shown(term):
    return None if term is None else (format_term(term), term)


def _raw_read(module, text, how):
    """What one reader makes of `text`: the raw clauses or goal items,
    with terms as text and as values and with their positions, or the
    ParseError text. Also the terms read."""
    try:
        # the reference tokenizes, and may fail, at once
        rd = module._Reader(text, "t.alp")
        if module is reader_reference:
            where = lambda tok: (tok.line, tok.col)  # noqa: E731
        else:
            where = rd.where
        if how == "body":
            items = rd.body()
            return [(k, _shown(p), where(tok)) for k, p, tok in items], [p for _, p, _ in items]
        out, terms = [], []
        for raw in rd.clauses():
            body = raw.body or []
            out.append(
                (
                    _shown(raw.head),
                    where(raw.tok),
                    None if raw.body is None else [(k, _shown(p), where(t)) for k, p, t in body],
                )
            )
            terms += [raw.head] + [p for _, p, _ in body]
        return out, terms
    except ParseError as error:
        return str(error), []


def _assert_interned(terms):
    """Equal ground subterms are one object; a non-ground one is never
    shared."""
    ground, seen = {}, set()
    stack = [t for t in terms if t is not None]
    while stack:
        t = stack.pop()
        if t.__class__ is Var or not t.ground:
            assert id(t) not in seen, f"shared non-ground subterm {format_term(t)}"
            seen.add(id(t))
        else:
            assert ground.setdefault(format_term(t), t) is t, format_term(t)
        if t.__class__ is Term:
            stack.extend(t.args)


@settings(max_examples=600, deadline=None)
@given(TEXTS, st.sampled_from(["clauses", "body"]))
@example("p([a|b,c]).", "clauses")
@example("p(- a/b = - - c = [x|Y]), ?(- [] / d), !.", "clauses")
def test_reader_agrees_with_the_reference(text, how):
    want, _ = _raw_read(reader_reference, text, how)
    got, terms = _raw_read(parser, text, how)
    assert got == want
    _assert_interned(terms)


def test_a_sample_reads_as_the_reference_reads_it_and_shares_ground_terms():
    text = (Path(__file__).parent.parent / "samples" / "wumpus4.alpd").read_text()
    got, terms = _raw_read(parser, text, "clauses")
    assert got == _raw_read(reader_reference, text, "clauses")[0]
    _assert_interned(terms)
    # c(1,1) is written 12 times and built once
    cells, stack = [], list(terms)
    while stack:
        t = stack.pop()
        if t.__class__ is Term:
            stack.extend(t.args)
            cells += [t] if format_term(t) == "c(1,1)" else []
    assert len(cells) >= 12
    assert len({id(t) for t in cells}) == 1


def test_a_repeated_flat_compound_is_one_object():
    terms = parse_ground_terms("p(c(3,4)). q(c(3,4), [c(3,4)|c(3, 4)]). c(3,4).")
    cells = [
        terms[0].args[0],
        terms[1].args[0],
        terms[1].args[1].args[0],
        terms[1].args[1].args[1],
        terms[2],
    ]
    assert format_term(cells[0]) == "c(3,4)"
    assert len({id(t) for t in cells}) == 1


def _property_keys(prop):
    return [([l.key for l in c.fluents], [a.key for a in c.aux]) for c in prop.clauses]


def _domain_keys(domain):
    """The keys of what a domain read yields: initial clauses, action
    specs, sensor cases and aux facts; and its warnings."""
    return (
        sorted(c.key for c in domain.initial),
        {
            name: (
                spec.head.key,
                _property_keys(spec.precond),
                [(_property_keys(c.cond), [l.key for l in c.effects]) for c in spec.cases],
            )
            for name, spec in domain.action_specs.items()
        },
        {
            name: [
                (c.result.key, _property_keys(c.index), [m.key for m in c.meaning])
                for c in axiom.cases
            ]
            for name, axiom in domain.sensor_axioms.items()
        },
        [(c.head.key, [g.key for g in c.body]) for c in domain.aux_program.clauses],
        domain.warnings,
    )


def _generated_domains():
    for size in (4, 8):
        for seed in (0, 1):
            world = generate_wumpus(WumpusConfig(size=size, seed=seed))
            for variant in ("ground2", "ground3"):
                yield f"wumpus-{size}-{seed}-{variant}", emit_wumpus_domain(world, variant)
    for length in (5, 110):
        yield f"maze-{length}", emit_maze_domain(length)
    warned = MAZE.replace("at(gold,4)])", "[at(gold,4),-at(gold,4)]]).\nactions([stay/0])")
    yield "warnings", warned + "action(stay, [], []).\n"


@pytest.mark.parametrize("text", [pytest.param(t, id=name) for name, t in _generated_domains()])
def test_flat_tokens_read_as_the_general_path_reads_them(text):
    spaced = text.replace("(", "( ")
    assert len(parser._Reader(spaced, "d").toks) > len(parser._Reader(text, "d").toks)
    flat, general = parse_domain(text, "d.alpd"), parse_domain(spaced, "d.alpd")
    assert _domain_keys(flat) == _domain_keys(general)


# ---------------------------------------------------------------- deep input

DEEP = 3000


@pytest.mark.parametrize(
    "text, printed",
    [
        ("f(" * DEEP + "a" + ")" * DEEP, "f(" * DEEP + "a" + ")" * DEEP),
        ("[" * (DEEP // 2) + "a" + "]" * (DEEP // 2), "[" * (DEEP // 2) + "a" + "]" * (DEEP // 2)),
        ("- " * DEEP + "a", "-(" * DEEP + "a" + ")" * DEEP),
    ],
    ids=["compound", "list", "sign"],
)
def test_input_nested_3000_deep_reads(text, printed):
    (term,) = parse_ground_terms(text + ".")
    assert format_term(term) == printed
    (goal,) = parse_query(f"X = {text}", parse_domain(MAZE, "m.alpd"))
    assert format_term(goal) == f"=(X,{printed})"
