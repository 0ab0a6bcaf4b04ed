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
