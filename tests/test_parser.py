import pytest

from primelog.errors import ParseError
from primelog.model import CallGoal, DoGoal, QueryGoal, SenseGoal, CUT
from primelog.parser import (
    format_domain,
    format_program,
    parse_domain,
    parse_ground_terms,
    parse_program,
    parse_query,
)
from primelog.terms import format_term

MAZE = """\
fluents([at/2]).
actions([go/1]).
initial_state([at(agent,1), at(gold,4)]).
action(go(Y),
  [at(agent,X), adj(X,Y)],
  [case([], [at(agent,Y), -at(agent,X)])]).
adj(1,2). adj(2,1). adj(2,3). adj(3,2).
"""

SENSING = """\
fluents([at/1, wet/1]).
actions([]).
sensors([feel]).
initial_state([at(1)]).
sensor_axiom(feel(_), [
  case(true,  [at(1)], [wet(1)]),
  case(false, [at(1)], [-wet(1)])
]).
"""


def test_domain_declarations():
    dom = parse_domain(MAZE, "m.alpd")
    assert dom.fluents == {"at": 2}
    assert dom.actions == {"go": 1}
    assert ("go", 1) in dom.action_specs
    assert dom.aux == {"adj": 2}
    assert len(dom.aux_program.clauses) == 4


def test_initial_state_is_prime():
    dom = parse_domain(MAZE, "m.alpd")
    assert sorted(str(c) for c in dom.initial) == ["at(agent,1)", "at(gold,4)"]


def test_domain_roundtrip_is_stable():
    dom = parse_domain(MAZE, "m.alpd")
    printed = format_domain(dom)
    again = format_domain(parse_domain(printed, "m2.alpd"))
    assert printed == again


def test_program_roundtrip_is_stable():
    dom = parse_domain(MAZE, "m.alpd")
    text = """\
explore(C,B) :- ?(at(agent,X)), select(Y,C,N), do(go(Y)), !, explore(N,[X|B]).
select(X,[X|Xs],Xs).
"""
    prog = parse_program(text, dom, "p.alp")
    printed = format_program(prog)
    again = format_program(parse_program(printed, dom, "p2.alp"))
    assert printed == again


def test_query_goal_prints_canonical_text():
    dom = parse_domain(MAZE, "m.alpd")
    text = "?([-at(agent,1),[at(gold,X),adj(X,Y)],[at(agent,Y),-at(gold,Y)]])"
    (goal,) = parse_query(
        "?([-at(agent,1), [at(gold,X), adj(X,Y)], [at(agent,Y), -at(gold,Y)]])", dom
    )
    assert repr(goal) == text
    (again,) = parse_query(text, dom)
    assert repr(again) == text


def test_goal_classification():
    dom = parse_domain(SENSING, "s.alpd")
    goals = parse_query("?(at(1)), ?(feel(R)), p(R), !", dom)
    assert isinstance(goals[0], QueryGoal)
    assert isinstance(goals[1], SenseGoal)
    assert goals[1].functor == "feel"
    assert isinstance(goals[2], CallGoal)
    assert goals[3] is CUT


def test_do_goal_checks_declared_actions():
    dom = parse_domain(MAZE, "m.alpd")
    (goal,) = parse_query("do(go(2))", dom)
    assert isinstance(goal, DoGoal)
    with pytest.raises(ParseError, match="not a declared action"):
        parse_query("do(fly(2))", dom)


def test_bare_literal_query_sugar():
    dom = parse_domain(MAZE, "m.alpd")
    (wrapped,) = parse_query("?([at(agent,1)])", dom)
    (bare,) = parse_query("?(at(agent,1))", dom)
    assert len(bare.property.clauses) == len(wrapped.property.clauses) == 1


def test_disjunctive_query_clause():
    dom = parse_domain(MAZE, "m.alpd")
    (goal,) = parse_query("?([[at(gold,4), at(gold,5)]])", dom)
    assert len(goal.property.clauses[0].fluents) == 2


def test_undeclared_fluent_rejected():
    with pytest.raises(ParseError, match="not a declared fluent"):
        parse_domain(MAZE.replace("at(gold,4)", "gold(4)"), "m.alpd")


def test_fluent_arity_mismatch_rejected():
    dom = parse_domain(MAZE, "m.alpd")
    with pytest.raises(ParseError):
        parse_query("?(at(agent))", dom)


def test_error_position_is_reported():
    bad = "fluents([at/2]).\nactions([go/1]).\ninitial_state([at(agent,)]).\n"
    with pytest.raises(ParseError) as info:
        parse_domain(bad, "bad.alpd")
    assert info.value.line == 3
    assert info.value.filename == "bad.alpd"


def test_reserved_head_rejected():
    dom = parse_domain(MAZE, "m.alpd")
    with pytest.raises(ParseError, match="reserved"):
        parse_program("do(X) :- fail.\n", dom, "p.alp")
    with pytest.raises(ParseError, match="reserved"):
        parse_program("memberchk(X,Y) :- fail.\n", dom, "p.alp")


def test_program_head_may_not_shadow_aux():
    dom = parse_domain(MAZE, "m.alpd")
    with pytest.raises(ParseError):
        parse_program("adj(X,Y) :- fail.\n", dom, "p.alp")


def test_negated_body_goal_rejected():
    dom = parse_domain(MAZE, "m.alpd")
    with pytest.raises(ParseError):
        parse_program("p(X) :- -q(X).\n", dom, "p.alp")


def test_aux_arity_conflict_rejected():
    bad = MAZE + "adj(1).\n"
    with pytest.raises(ParseError, match="arities"):
        parse_domain(bad, "m.alpd")


def test_cut_not_allowed_in_aux_bodies():
    bad = MAZE + "path(X,Y) :- adj(X,Y), !.\n"
    with pytest.raises(ParseError):
        parse_domain(bad, "m.alpd")


def test_contradictory_initial_state_rejected():
    bad = MAZE.replace(
        "initial_state([at(agent,1), at(gold,4)])",
        "initial_state([at(agent,1), -at(agent,1)])",
    )
    with pytest.raises(ParseError, match="inconsistent"):
        parse_domain(bad, "m.alpd")


def test_tautologous_initial_clause_warns():
    taut = MAZE.replace(
        "initial_state([at(agent,1), at(gold,4)])",
        "initial_state([at(agent,1), [at(gold,4), -at(gold,4)]])",
    )
    dom = parse_domain(taut, "m.alpd")
    assert any("tautolog" in w for w in dom.warnings)
    assert sorted(str(c) for c in dom.initial) == ["at(agent,1)"]


def test_sensorless_query_on_declared_sensor_binds_arg():
    dom = parse_domain(SENSING, "s.alpd")
    (goal,) = parse_query("?(feel(Answer))", dom)
    assert isinstance(goal, SenseGoal)
    assert goal.arg.name == "Answer"


def test_anonymous_variables_are_distinct():
    dom = parse_domain(MAZE, "m.alpd")
    prog = parse_program("p(_,_).\n", dom, "p.alp")
    head = prog.clauses[0].head
    assert head.args[0].name != head.args[1].name


def test_comments_and_whitespace_ignored():
    dom = parse_domain("% nothing here\n" + MAZE + "\n% trailing\n", "m.alpd")
    assert dom.fluents == {"at": 2}


def test_parse_ground_terms():
    terms = parse_ground_terms("did(go(c(1,2))). saw(feel, true).")
    assert [format_term(t) for t in terms] == ["did(go(c(1,2)))", "saw(feel,true)"]
    with pytest.raises(ParseError, match="ground"):
        parse_ground_terms("did(go(X)).")


def test_non_directive_clauses_become_aux():
    dom = parse_domain(MAZE + "path(X,Y) :- adj(X,Y).\n", "m.alpd")
    assert dom.aux["path"] == 2
    assert dom.aux_program.defines("path", 2)


# ------------------------------------------------- pinned errors and warnings
#
# One bad text for each check of the validator, with the exact message and
# position it reports. DOMAIN_BASE declares `stay` and `hear` without a
# specification, so a case can add one; each domain case is appended to it
# as line 8.

DOMAIN_BASE = """\
fluents([at/2, wet/1]).
actions([go/1, stay/0]).
sensors([feel, hear]).
initial_state([at(agent,1)]).
action(go(Y), [at(agent,X), adj(X,Y)], [case([], [at(agent,Y), -at(agent,X)])]).
sensor_axiom(feel(_), [case(true, [], [wet(1)]), case(false, [], [-wet(1)])]).
adj(1,2).
"""

DOMAIN_ERRORS = [
    ("aux([do/1]).", "d.alpd:8:1: 'do' is reserved and cannot be declared"),
    ("aux([at/1]).", "d.alpd:8:1: 'at' is declared twice"),
    ("aux([p/1, p/2]).", "d.alpd:8:1: 'p' is declared twice"),
    ("sensors([go]).", "d.alpd:8:1: 'go' is declared twice"),
    ("fluents(at).", "d.alpd:8:1: fluents takes a list"),
    ("sensors(feel).", "d.alpd:8:1: sensors takes a list"),
    ("objects(room, a).", "d.alpd:8:1: objects takes a list of ground terms"),
    ("initial_state(at(agent,1)).", "d.alpd:8:1: initial_state takes a list of clauses"),
    ("action(stay, [], case([], [])).", "d.alpd:8:1: action cases must be a list"),
    (
        "action(stay, [], [case([], -wet(1))]).",
        "d.alpd:8:1: case effects must be a list of literals",
    ),
    ("action(stay, wet(1), []).", "d.alpd:8:1: stay precondition must be a list of clauses"),
    ("sensor_axiom(hear(_), case(true, [], [])).", "d.alpd:8:1: sensor cases must be a list"),
    (
        "sensor_axiom(hear(_), [case(true, [], wet(1))]).",
        "d.alpd:8:1: sensor case meaning must be a list of clauses",
    ),
    ("aux([p]).", "d.alpd:8:1: aux items must look like name/arity"),
    ("actions([go/x]).", "d.alpd:8:1: actions items must look like name/arity"),
    ("initial_state([p/1]).", "d.alpd:8:1: expected a fluent literal in the initial state"),
    (
        "initial_state([[wet(1), X]]).",
        "d.alpd:8:1: expected a fluent literal in the initial state",
    ),
    (
        "initial_state([foo(1)]).",
        "d.alpd:8:1: 'foo' is not a declared fluent (the initial state)",
    ),
    (
        "initial_state([wet(1,2)]).",
        "d.alpd:8:1: fluent wet has arity 1, not 2 (the initial state)",
    ),
    ("initial_state([wet(X)]).", "d.alpd:8:1: literals must be ground in the initial state"),
    (
        "action(stay, [], [case([], [foo])]).",
        "d.alpd:8:1: 'foo' is not a declared fluent (stay effects)",
    ),
    (
        "sensor_axiom(hear(_), [case(true, [], [wet(1,2)])]).",
        "d.alpd:8:1: fluent wet has arity 1, not 2 (hear meaning)",
    ),
    ("action(stay, [[]], []).", "d.alpd:8:1: empty clause in stay precondition"),
    ("action(stay, [X], []).", "d.alpd:8:1: expected a literal in stay precondition"),
    (
        "action(stay, [[wet(1), a/b]], []).",
        "d.alpd:8:1: expected a literal in stay precondition",
    ),
    (
        "action(stay, [-adj(1,2)], []).",
        "d.alpd:8:1: aux atoms cannot be negated (stay precondition)",
    ),
    (
        "action(stay, [at(agent)], []).",
        "d.alpd:8:1: fluent at has arity 2, not 1 (stay precondition)",
    ),
    (
        "action(stay, [foo(1)], []).",
        "d.alpd:8:1: foo/1 is neither a declared fluent nor an aux predicate "
        "(stay precondition)",
    ),
    ("action(fly(1), [], []).", "d.alpd:8:1: 'fly' is not a declared action"),
    ("action(go, [], []).", "d.alpd:8:1: action go has arity 1, not 0"),
    ("action(stay, [], [foo]).", "d.alpd:8:1: expected case/2 terms in action cases"),
    (
        "sensor_axiom(hear(_), [case(true, [])]).",
        "d.alpd:8:1: expected case/3 terms in sensor cases",
    ),
    ("fluents([]) :- true.", "d.alpd:8:1: fluents/1 directives cannot have bodies"),
    ("sensors([f(1)]).", "d.alpd:8:1: sensors items are bare names"),
    ("objects(R, [a]).", "d.alpd:8:1: object sort must be an atom"),
    ("objects(room, [X]).", "d.alpd:8:1: object terms must be ground"),
    ("objects(room, [a]).\nobjects(room, [b]).", "d.alpd:9:1: objects(room, ...) appears twice"),
    ("do(1).", "d.alpd:8:1: 'do' is reserved and cannot be defined"),
    ("fluents(a, b).", "d.alpd:8:1: 'fluents' is reserved and cannot be defined"),
    (
        "at(1,2).",
        "d.alpd:8:1: 'at' is declared as a fluent, action, or sensor and cannot have clauses",
    ),
    (
        "feel :- true.",
        "d.alpd:8:1: 'feel' is declared as a fluent, action, or sensor and cannot have clauses",
    ),
    ("adj(1).", "d.alpd:8:1: 'adj' is used with two different arities"),
    ("action(X, [], []).", "d.alpd:8:1: action head must be an atom or compound term"),
    ("action(3, [], []).", "d.alpd:8:1: action head must be an atom or compound term"),
    ("action(go(Z), [], []).", "d.alpd:8:1: action go/1 is specified twice"),
    ("sensor_axiom(feel, []).", "d.alpd:8:1: sensor axiom head must look like sensor(Var)"),
    ("sensor_axiom(smell(_), []).", "d.alpd:8:1: 'smell' is not a declared sensor"),
    ("sensor_axiom(feel(_), []).", "d.alpd:8:1: sensor feel has two axioms"),
    (
        "sensor_axiom(hear(_), [case(R, [], [])]).",
        "d.alpd:8:1: sensor case results must be ground",
    ),
    (
        "sensor_axiom(hear(_), [case(true, [foo], [])]).",
        "d.alpd:8:1: foo/0 is neither a declared fluent nor an aux predicate (hear index)",
    ),
    ("p :- !.", "d.alpd:8:6: cut is not available in domain clauses"),
    ("p :- ?(at(agent,1)).", "d.alpd:8:6: domain clauses cannot query or sense"),
    ("p :- -adj(1,2).", "d.alpd:8:6: domain clause bodies are conjunctions of aux atoms"),
    ("p :- X.", "d.alpd:8:6: domain clause bodies are conjunctions of aux atoms"),
    ("p :- do(go(1)).", "d.alpd:8:6: domain clauses cannot act or query"),
    ("p :- q.", "d.alpd:8:6: q/0 is not an aux predicate or builtin"),
    ("initial_state([-at(agent,1)]).", "d.alpd: the initial state is inconsistent"),
]

# Each program case is line 2 of a program; each query case follows `true, `.
PROGRAM_ERRORS = [
    ("p :- -q.", "p.alp:2:6: goals cannot be negated"),
    ("p :- X.", "p.alp:2:6: goals must be atoms or compound terms"),
    ("p :- 3.", "p.alp:2:6: goals must be atoms or compound terms"),
    ("p :- do(a, b).", "p.alp:2:6: do takes exactly one action argument"),
    ("p :- do(fly).", "p.alp:2:6: 'fly' is not a declared action"),
    ("p :- do(go).", "p.alp:2:6: action go has arity 1, not 0"),
    ("p :- ?(X).", "p.alp:2:6: expected a literal in query"),
    ("p :- ?([at(agent)]).", "p.alp:2:6: fluent at has arity 2, not 1 (query)"),
    ("do(X).", "p.alp:2:1: 'do' is reserved and cannot be defined"),
    ("adj(1,2).", "p.alp:2:1: adj/2 is already defined in the domain"),
    ("feel(1).", "p.alp:2:1: 'feel' is a sensor, not a predicate"),
]

QUERY_ERRORS = [
    ("?([[]])", "q:1:7: empty clause in query"),
    ("?([a|T])", "q:1:7: expected a literal in query"),
    ("?(-adj(1,2))", "q:1:7: aux atoms cannot be negated (query)"),
    (
        "?([wet(1), foo(2)])",
        "q:1:7: foo/1 is neither a declared fluent nor an aux predicate (query)",
    ),
    ("do(fly(1))", "q:1:7: 'fly' is not a declared action"),
]


def _error_text(parse, *args):
    with pytest.raises(ParseError) as info:
        parse(*args)
    return str(info.value)


@pytest.mark.parametrize("extra, message", DOMAIN_ERRORS, ids=[t for t, _ in DOMAIN_ERRORS])
def test_domain_error_is_pinned(extra, message):
    assert _error_text(parse_domain, DOMAIN_BASE + extra + "\n", "d.alpd") == message


@pytest.mark.parametrize("text, message", PROGRAM_ERRORS, ids=[t for t, _ in PROGRAM_ERRORS])
def test_program_error_is_pinned(text, message):
    dom = parse_domain(DOMAIN_BASE, "d.alpd")
    assert _error_text(parse_program, "q.\n" + text + "\n", dom, "p.alp") == message


@pytest.mark.parametrize("text, message", QUERY_ERRORS, ids=[t for t, _ in QUERY_ERRORS])
def test_query_error_is_pinned(text, message):
    dom = parse_domain(DOMAIN_BASE, "d.alpd")
    assert _error_text(parse_query, "true, " + text, dom, "q") == message


def test_ground_term_error_is_pinned():
    assert _error_text(parse_ground_terms, "a.\ndid(X).", "g") == "g:2:1: ground term expected"


WARN_BASE = """\
fluents([at/2, wet/1]).
actions([go/1{actions}]).
sensors([feel{sensors}]).
initial_state([at(agent,1)]).
action(go(Y), [at(agent,X)], [case([], [at(agent,Y), -at(agent,X)])]).
sensor_axiom(feel(_), [case(true, [], [wet(1)])]).
"""

# (extra actions, extra sensors, extra lines from line 7, warnings)
DOMAIN_WARNINGS = [
    ("", "", "", []),
    (
        "",
        "",
        "initial_state([[wet(1), -wet(1)], wet(2)]).",
        ["w.alpd:7: tautologous initial clause dropped"],
    ),
    (
        ", stay/0",
        "",
        "action(stay, [], []).",
        ["w.alpd:7: action stay has no effect cases; executing it will always fail"],
    ),
    (
        ", stay/0",
        "",
        "action(stay, [], [case([], [wet(Z), at(Z,W), wet(W)])]).",
        [
            "w.alpd:7: action stay effect variables W, Z are not bound by the head, "
            "precondition, or case condition"
        ],
    ),
    (
        "",
        ", hear",
        "sensor_axiom(hear(_), [case(true, [], [[wet(1), -wet(1)], wet(2)])]).",
        ["w.alpd:7: tautologous meaning clause dropped from sensor hear"],
    ),
    (", stay/0", "", "", ["action stay/0 has no specification"]),
    ("", ", hear", "", ["sensor hear has no axiom"]),
    (
        ", stay/0, wait/0",
        ", hear, smell",
        "initial_state([[wet(1), -wet(1)]]).\n"
        "action(stay, [at(agent,X)], [case([wet(X)], [at(X,Y)])]).\n"
        "sensor_axiom(smell(_), [case(true, [], [[wet(2), -wet(2)]])]).",
        [
            "w.alpd:7: tautologous initial clause dropped",
            "w.alpd:8: action stay effect variables Y are not bound by the head, "
            "precondition, or case condition",
            "w.alpd:9: tautologous meaning clause dropped from sensor smell",
            "action wait/0 has no specification",
            "sensor hear has no axiom",
        ],
    ),
]


@pytest.mark.parametrize(
    "actions, sensors, extra, warnings",
    DOMAIN_WARNINGS,
    ids=["none", "initial", "no-cases", "loose", "meaning", "no-spec", "no-axiom", "all"],
)
def test_domain_warnings_are_pinned(actions, sensors, extra, warnings):
    text = WARN_BASE.format(actions=actions, sensors=sensors) + extra + "\n"
    assert parse_domain(text, "w.alpd").warnings == warnings
