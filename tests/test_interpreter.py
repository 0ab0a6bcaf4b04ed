import random
from collections import Counter

import pytest

from replay_reference import reference_replay
from primelog.envs import (
    MazeEnv,
    ReplayEnv,
    WumpusConfig,
    WumpusEnv,
    emit_maze_domain,
    emit_wumpus_domain,
    format_replay_script,
    generate_wumpus,
)
from primelog.errors import (
    BarrierError,
    BudgetExceeded,
    EngineError,
    EnvironmentRejected,
    NondeterministicActionError,
    SensingError,
)
from primelog.interpreter import COMPACT_FLOOR, Interpreter, replay, solve
from primelog.model import Program
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.sld import FAILED
from primelog.strategies import WUMPUS_QUERY, wumpus_agent
from primelog.terms import FALSE, TRUE, Literal, Term, format_term

MAZE = emit_maze_domain(5)

PLAIN = """\
fluents([at/2]).
actions([go/1]).
initial_state([at(agent,1), at(gold,4)]).
action(go(Y),
  [at(agent,X), adj(X,Y)],
  [case([], [at(agent,Y), -at(agent,X)])]).
adj(1,2). adj(2,1). adj(2,3). adj(3,2). adj(3,4). adj(4,3). adj(4,5). adj(5,4).
"""


class AckEnv:
    """Acknowledges every action; sensing answers from a fixed table."""

    def __init__(self, answers=()):
        self.answers = dict(answers)
        self.log = []

    def execute(self, action):
        self.log.append(action)

    def sense(self, functor):
        return self.answers[functor]

    def snapshot(self):
        return {"log": tuple(self.log)}


def run(program, query, domain_text=PLAIN, env=None, **options):
    dom = parse_domain(domain_text, "d.alpd")
    prog = parse_program(program, dom, "p.alp")
    goals = parse_query(query, dom, "<q>")
    return solve(goals, prog, dom, env or AckEnv(), **options)


def answers(outcome):
    return {name: format_term(term) for name, term in (outcome.answer or {}).items()}


# ---------------------------------------------------------------- resolution

LISTS = """\
append([],L,L).
append([H|T],L,[H|R]) :- append(T,L,R).
member(X,[X|Xs]).
member(X,[Y|Xs]) :- member(X,Xs).
select(X,[X|Xs],Xs).
select(X,[Y|Xs],[Y|Ys]) :- select(X,Xs,Ys).
"""


def test_append_builds_a_list():
    out = run(LISTS, "append([1,2],[3,4],Z)")
    assert out.succeeded
    assert answers(out) == {"Z": "[1,2,3,4]"}


def test_append_splits_a_list_first_solution():
    out = run(LISTS, "append(X,Y,[1,2])")
    assert answers(out) == {"X": "[]", "Y": "[1,2]"}


def test_member_first_answer():
    out = run(LISTS, "member(X,[7,8,9])")
    assert answers(out) == {"X": "7"}


def test_backtracking_reaches_later_choices():
    prog = LISTS + "pick(X) :- member(X,[1,2,3]), ok(X).\nok(3).\n"
    out = run(prog, "pick(X)")
    assert answers(out) == {"X": "3"}


def test_select_removes_one_occurrence():
    out = run(LISTS, "select(2,[1,2,3],R)")
    assert answers(out) == {"R": "[1,3]"}


def test_failure_is_an_outcome():
    out = run(LISTS, "member(5,[1,2,3])")
    assert out.status == "failure"
    assert out.answer is None


def test_conjunction_threads_bindings():
    out = run(LISTS, "member(X,[1,2]), member(X,[2,3])")
    assert answers(out) == {"X": "2"}


def test_clause_order_is_textual():
    prog = "pref(a).\npref(b).\n"
    assert answers(run(prog, "pref(W)")) == {"W": "a"}


def test_undefined_predicate_raises():
    with pytest.raises(EngineError, match="undefined predicate nope/1"):
        run(LISTS, "nope(1)")


# PLAIN with `q` declared as an aux predicate and called in go's precondition.
DECLARED_AUX = "aux([q/1]).\n" + PLAIN.replace("adj(X,Y)]", "adj(X,Y), q(Y)]")


@pytest.mark.parametrize("query", ["?(q(1))", "p", "do(go(2))"])
def test_a_declared_aux_predicate_with_no_clauses_fails(query):
    """A `?` query, a program body and a precondition that call a declared
    aux predicate with no clauses fail, as when its clauses do not match."""
    env = AckEnv()
    out = run("p :- q(1).\n", query, DECLARED_AUX, env)
    assert (out.status, env.log) == ("failure", [])
    assert run("p :- q(1).\n", query, DECLARED_AUX + "q(1).\nq(2).\n").succeeded


def test_deep_recursion_is_iterative():
    # 40 elements would overflow a naive recursive machine long before
    # Python's stack limit shows up elsewhere; just check it works.
    items = ",".join(str(i) for i in range(40))
    out = run(LISTS, f"append([{items}],[x],Z)")
    assert out.succeeded


# ---------------------------------------------------------------- cut

CUTS = """\
member(X,[X|Xs]).
member(X,[Y|Xs]) :- member(X,Xs).
first(X,L) :- member(X,L), !.
maxtwo(X) :- member(X,[1,2]), !.
maxtwo(3).
nomid(X) :- member(X,[1,2,3]), X = 2, !, fail.
nomid(X) :- member(X,[1,2,3]).
"""


def test_occurs_check_still_guards_repeated_head_variables():
    assert run("p(f(X),X).", "p(Y,Y)").status == "failure"
    assert run("q(f(U),U,V).", "q(Y,s(Y),Y)").status == "failure"
    assert answers(run("r(f(A),B,C).", "r(Y,Y,2)")) == {"Y": "f(A~1)"}


def test_cut_commits_to_first_solution():
    assert answers(run(CUTS, "first(X,[4,5,6])")) == {"X": "4"}


def test_cut_commits_to_clause():
    assert answers(run(CUTS, "maxtwo(X)")) == {"X": "1"}


def test_cut_then_fail_fails_the_call():
    out = run(CUTS, "nomid(2)")
    assert out.status == "failure"


def test_cut_is_local_to_its_clause():
    out = run(CUTS, "member(X,[1,2]), first(Y,[9]), X = 2")
    assert answers(out) == {"X": "2", "Y": "9"}


def test_top_level_cut_prunes_query_choicepoints():
    out = run(CUTS, "member(X,[1,2]), !, X = 2")
    assert out.status == "failure"


# ---------------------------------------------------------------- builtins


def test_unify_builtin():
    out = run(LISTS, "X = f(Y), Y = 3")
    assert answers(out)["X"] == "f(3)"


def test_neq_builtin():
    assert run(LISTS, "neq(a,b)").succeeded
    assert run(LISTS, "neq(a,a)").status == "failure"
    assert run(LISTS, "neq(X,a)").status == "failure"


def test_memberchk_is_semideterministic():
    out = run(LISTS, "memberchk(X,[1,2]), X = 2")
    assert out.status == "failure"  # committed to X=1, no retry


def test_nonmember():
    assert run(LISTS, "nonmember(4,[1,2,3])").succeeded
    assert run(LISTS, "nonmember(2,[1,2,3])").status == "failure"


def test_list_builtin_requires_proper_list():
    with pytest.raises(EngineError, match="proper list"):
        run(LISTS, "memberchk(1,[1|T])")


def test_true_and_fail():
    assert run(LISTS, "true").succeeded
    assert run(LISTS, "fail").status == "failure"


# ---------------------------------------------------------------- queries


def test_query_binds_variables():
    out = run(LISTS, "?(at(gold,W))")
    assert answers(out) == {"W": "4"}


def test_query_failure_backtracks_into_program():
    prog = LISTS + "spot(X) :- member(X,[9,4]), ?(at(gold,X)).\n"
    out = run(prog, "spot(X)")
    assert answers(out) == {"X": "4"}


def test_disjunctive_query_enumerates_covers():
    dom = PLAIN.replace(
        "initial_state([at(agent,1), at(gold,4)])",
        "initial_state([at(agent,1), [at(gold,4), at(gold,5)]])",
    )
    out = run(LISTS, "?([[at(gold,X), at(gold,Y)]])", domain_text=dom)
    assert answers(out) == {"X": "4", "Y": "5"}
    out2 = run(LISTS, "?([[at(gold,X), at(gold,Y)]]), X = 5", domain_text=dom)
    assert answers(out2) == {"X": "5", "Y": "4"}


# ---------------------------------------------------------------- actions


def test_do_executes_and_progresses():
    env = AckEnv()
    out = run(LISTS, "do(go(2))", env=env)
    assert out.succeeded
    assert [format_term(a) for a in env.log] == ["go(2)"]
    assert "at(agent,2)" in [str(c) for c in out.state.belief]
    assert "-at(agent,1)" in [str(c) for c in out.state.belief]


def test_do_with_unprovable_precondition_fails():
    out = run(LISTS, "do(go(4))")  # not adjacent to 1
    assert out.status == "failure"
    assert out.state.history == []


def test_do_unbound_action_is_an_error():
    with pytest.raises(EngineError, match="unbound action"):
        run(LISTS, "do(A)")


def test_do_retries_precondition_solutions_before_executing():
    # First adjacency candidate for go(Y) from cell 1 is Y=2; force Y=3
    # by failing the first one after the fact.
    env = AckEnv()
    out = run(LISTS, "member(Y,[4,2]), do(go(Y))", env=env)
    assert out.succeeded
    assert [format_term(a) for a in env.log] == ["go(2)"]


def test_environment_rejection_propagates():
    class Stubborn(AckEnv):
        def execute(self, action):
            raise EnvironmentRejected("computer says no")

    with pytest.raises(EnvironmentRejected):
        run(LISTS, "do(go(2))", env=Stubborn())


def test_real_maze_env_rejects_illegal_moves():
    env = MazeEnv(5)
    with pytest.raises(EnvironmentRejected):
        env.execute(Term("go", (Term("3"),)))


TWO_CASES = """\
fluents([p/0, q/0]).
actions([a/0]).
initial_state([]).
action(a, [], [case([], [p]), case([], [q])]).
"""


def test_two_applicable_cases_raise():
    with pytest.raises(NondeterministicActionError):
        run("doit :- do(a).\n", "doit", domain_text=TWO_CASES)


@pytest.mark.parametrize("name", ["X", "Y"])
def test_do_keeps_the_action_apart_from_the_spec_variables(name):
    # go's specification uses X and Y as well
    dom = parse_domain(PLAIN, "d.alpd")
    machine = Interpreter(dom, parse_program(LISTS, dom, "p.alp"), AckEnv())
    out = machine.run(parse_query(f"do(go({name}))", dom))
    assert answers(out) == {name: "2"}
    assert [format_term(a) for a in out.state.history] == ["go(2)"]
    assert set(machine.bindings) == {name}


def test_zero_applicable_cases_fails_without_executing():
    dom = """\
fluents([p/0, q/0]).
actions([a/0]).
initial_state([]).
action(a, [], [case([p], [q])]).
"""
    env = AckEnv()
    out = run("doit :- do(a).\n", "doit", domain_text=dom, env=env)
    assert out.status == "failure"
    assert env.log == []


# ---------------------------------------------------------------- barrier


def test_failure_after_executed_action_raises_barrier_error():
    with pytest.raises(BarrierError, match="backtracked across executed action"):
        run("bad :- do(go(2)), fail.\n", "bad")


def test_cut_after_action_allows_clean_failure():
    out = run("guarded :- do(go(2)), !, fail.\n", "guarded")
    assert out.status == "failure"
    assert [format_term(a) for a in out.state.history] == ["go(2)"]


def test_barrier_error_carries_agent_state():
    with pytest.raises(BarrierError) as info:
        run("bad :- do(go(2)), fail.\n", "bad")
    assert [format_term(a) for a in info.value.state.history] == ["go(2)"]


def test_sensing_also_raises_the_barrier():
    dom = """\
fluents([at/1, wet/1]).
actions([]).
sensors([feel]).
initial_state([at(1)]).
sensor_axiom(feel(_), [
  case(true,  [at(1)], [wet(1)]),
  case(false, [at(1)], [-wet(1)])
]).
"""
    env = AckEnv({"feel": TRUE})
    with pytest.raises(BarrierError):
        run("bad :- ?(feel(R)), fail.\n", "bad", domain_text=dom, env=env)


# ---------------------------------------------------------------- commits

PACE = """\
pace(0) :- !.
pace(J) :- pred(J, I), do(go(2)), do(go(1)), !, pace(I).
keep(Q) :- W = g(U), U = h(Q, V), pace(800), V = c, W = g(h(b, c)).
outer :- tag(Y).
tag(X) :- X = f(Z), Z = 5, pace(800).
"""


def pacing_machine(actions, query, observer=None):
    """An interpreter that has run `query` over PACE, with `pred/2`
    counting down from actions / 2; it asserts the run succeeded."""
    facts = " ".join(f"pred({i + 1},{i})." for i in range(actions // 2))
    dom = parse_domain(PLAIN + facts + "\n", "d.alpd")
    prog = parse_program(PACE, dom, "p.alp")
    machine = Interpreter(dom, prog, AckEnv(), observer=observer)
    out = machine.run(parse_query(query, dom))
    assert out.succeeded and len(out.state.history) == actions
    return machine, out


def test_a_pacing_agents_store_does_not_grow_with_its_run():
    """Each pace binds two names and leaves no choicepoint, and every
    action commits. What the commits leave is the same bounded size
    after 400 actions as after 3,200; kept, the store and the trail would
    hold one entry per action."""
    kept = {}
    for n in (400, 3200):
        machine, _ = pacing_machine(n, f"pace({n // 2})")
        kept[n] = (len(machine.bindings), len(machine.trail), len(machine.cps))
    assert max(bindings for bindings, _, _ in kept.values()) <= COMPACT_FLOOR
    assert kept[400][1:] == kept[3200][1:] == (0, 0)


def test_choicepoints_an_uncut_agent_leaves_behind_do_not_accumulate():
    """Without the cut after its two `do`s, each pace leaves its
    choicepoints behind an action, which no backtrack may enter. A
    commit counts them in `Machine.dead` and drops them, so none is kept
    after 400 actions or 3,200 (a slot each kept 800 and 6,400), and a
    backtrack past them is still a barrier violation."""
    uncut = PACE.replace("do(go(1)), !, pace(I)", "do(go(1)), pace(I)")
    kept = {}
    for n in (400, 3200):
        facts = " ".join(f"pred({i + 1},{i})." for i in range(n // 2))
        dom = parse_domain(PLAIN + facts + "\n", "d.alpd")
        machine = Interpreter(dom, parse_program(uncut, dom, "p.alp"), AckEnv())
        out = machine.run(parse_query(f"pace({n // 2})", dom))
        assert out.succeeded and len(out.state.history) == n
        kept[n] = len(machine.cps)
        with pytest.raises(BarrierError):
            machine.resolve(FAILED)
    assert kept[400] == kept[3200] == 0


def test_compaction_keeps_what_the_goals_and_the_query_reach():
    # W is reached from a goal left after pace/1, U only through W's
    # binding, and X only from the query; 1,600 actions compact the store
    # on the way.
    machine, out = pacing_machine(1600, "X = [Q], keep(Q)")
    assert len(machine.bindings) < 1600
    assert answers(out) == {"Q": "b", "X": "[b]"}


def test_compaction_keeps_what_the_trace_labels_reach():
    # Y is reached only from tag/1's exit marker, which an observer puts
    # on the goal list, and f(5) only through Y's binding.
    events = []
    machine, _ = pacing_machine(1600, "outer", observer=events.append)
    assert len(machine.bindings) < 1600
    exits = [e for e in events if e[0] == "exit" and e[1].startswith("tag")]
    assert exits == [("exit", "tag(f(5))")]


# ---------------------------------------------------------------- sensing

FEEL_DOMAIN = """\
fluents([at/1, wet/1]).
actions([]).
sensors([feel]).
initial_state([at(1)]).
sensor_axiom(feel(_), [
  case(true,  [at(1)], [wet(1)]),
  case(false, [at(1)], [-wet(1)])
]).
"""


def test_sense_binds_result_and_updates_belief():
    env = AckEnv({"feel": TRUE})
    out = run("probe(R) :- ?(feel(R)).\n", "probe(R)", domain_text=FEEL_DOMAIN, env=env)
    assert answers(out) == {"R": "true"}
    assert "wet(1)" in [str(c) for c in out.state.belief]
    assert out.state.sigma[0][0] == "feel"


def test_sense_false_branch():
    env = AckEnv({"feel": FALSE})
    out = run("probe(R) :- ?(feel(R)).\n", "probe(R)", domain_text=FEEL_DOMAIN, env=env)
    assert answers(out) == {"R": "false"}
    assert "-wet(1)" in [str(c) for c in out.state.belief]


def test_sense_requires_unbound_argument():
    env = AckEnv({"feel": TRUE})
    with pytest.raises(EngineError, match="unbound"):
        run("bad :- ?(feel(true)).\n", "bad", domain_text=FEEL_DOMAIN, env=env)


def test_sense_result_outside_axiom_is_rejected():
    env = AckEnv({"feel": Term("soggy")})
    with pytest.raises(SensingError):
        run("probe(R) :- ?(feel(R)).\n", "probe(R)", domain_text=FEEL_DOMAIN, env=env)


WALK_FEEL_DOMAIN = """\
fluents([at/1, wet/1]).
actions([go/1]).
sensors([feel]).
initial_state([at(1)]).
action(go(Y), [at(X)], [case([], [at(Y), -at(X)])]).
sensor_axiom(feel(_), [
  case(true,  [at(X)], [wet(X)]),
  case(false, [at(X)], [-wet(X)])
]).
"""


def test_history_and_sigma_are_views_over_the_event_log():
    program = "probe(R) :- ?(feel(R)), do(go(2)).\n"
    out = run(program, "probe(R)", domain_text=WALK_FEEL_DOMAIN, env=AckEnv({"feel": TRUE}))
    state = out.state
    sense, act = state.events
    assert sense[:3] == ("sense", "feel", TRUE)
    assert isinstance(sense[3], dict)
    assert state.sigma == [("feel", TRUE, sense[3])]
    assert [format_term(a) for a in state.history] == ["go(2)"]
    with pytest.raises(AttributeError):
        state.history = []
    dom = parse_domain(WALK_FEEL_DOMAIN, "d.alpd")
    assert replay(dom, state.events) == state.belief
    assert replay(dom, [e[:3] for e in state.events]) == state.belief
    script = ReplayEnv.from_script(format_replay_script(state.events))
    again = run(program, "probe(R)", domain_text=WALK_FEEL_DOMAIN, env=script)
    assert again.state.belief == state.belief


# ---------------------------------------------------------------- budget


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        run("loop :- loop.\n", "loop", budget=1000)


def test_budget_not_consumed_by_success():
    out = run(LISTS, "append([1],[2],Z)", budget=1000)
    assert out.succeeded


# ---------------------------------------------------------------- observer


def test_observer_sees_ports_and_actions():
    events = []
    run("go2 :- do(go(2)).\n", "go2", env=AckEnv(), observer=events.append)
    kinds = [e[0] for e in events]
    assert "call" in kinds
    assert "exec" in kinds
    assert "exit" in kinds
    exec_event = next(e for e in events if e[0] == "exec")
    assert format_term(exec_event[1]) == "go(2)"


# ---------------------------------------------------------------- replay


def test_replay_recomputes_final_belief():
    out = run(LISTS, "do(go(2)), !, do(go(3)), !")
    dom = parse_domain(PLAIN, "d.alpd")
    final = replay(dom, out.state.events)
    assert [str(c) for c in final] == [str(c) for c in out.state.belief]


def test_replay_of_an_action_with_two_firing_cases_raises():
    dom = parse_domain(TWO_CASES, "d.alpd")
    with pytest.raises(NondeterministicActionError, match="a has 2 applicable effect cases"):
        replay(dom, [("act", Term("a"), (Literal(Term("p")),))])


def test_replay_rejects_unknown_event():
    dom = parse_domain(PLAIN, "d.alpd")
    with pytest.raises(EngineError):
        replay(dom, [("teleport", Term("x"))])


def test_replay_names_the_step_that_cannot_run():
    """A `do` that fails on replay is named by its event, whether or not
    an earlier step has committed: no barrier text leaks out."""
    dom = parse_domain(PLAIN, "d.alpd")
    (go2,) = run(LISTS, "do(go(2))").state.events
    go4 = ("act", Term("go", (Term("4"),)), ())
    for events, message in [
        ([go4], "replay: event 1, go(4), cannot run in the replayed state"),
        ([go2, go4], "replay: event 2, go(4), cannot run in the replayed state"),
    ]:
        with pytest.raises(EngineError) as info:
            replay(dom, events)
        assert type(info.value) is EngineError and str(info.value) == message


def _random_walk_run(rng):
    """A corridor domain and the agent state of a random walk along it."""
    length = rng.randint(3, 8)
    dom = parse_domain(emit_maze_domain(length), "maze.alpd")
    cell, goals = 1, []
    for _ in range(rng.randint(1, 10)):
        cell = rng.choice([c for c in (cell - 1, cell + 1) if 1 <= c <= length])
        goals.append(f"do(go({cell}))")
    out = solve(parse_query(", ".join(goals), dom), Program(()), dom, MazeEnv(length))
    return dom, out.state


def _cautious_wumpus_run(rng):
    """A random 4x4 wumpus domain and the cautious agent's state on it."""
    world = generate_wumpus(WumpusConfig(size=4, seed=rng.randrange(10**6)))
    variant = rng.choice(("ground2", "ground3"))
    dom = parse_domain(emit_wumpus_domain(world, variant), "w.alpd")
    prog = parse_program(wumpus_agent(variant), dom, "cautious.alp")
    out = solve(parse_query(WUMPUS_QUERY, dom), prog, dom, WumpusEnv(world))
    return dom, out.state


def _corrupt(rng, events, kind):
    """`events` with one fault of `kind` at a random position."""
    events = list(events)
    at = rng.randrange(len(events))
    acts = [i for i, e in enumerate(events) if e[0] == "act"]
    if kind == "effects":
        i = rng.choice(acts)
        act, effects = events[i][1], list(events[i][2])
        j = rng.randrange(len(effects))
        edit = rng.choice(("drop", "flip", "add"))
        if edit == "drop":
            del effects[j]
        elif edit == "flip":
            effects[j] = Literal(effects[j].fluent, not effects[j].positive)
        else:
            effects.append(Literal(Term("at", (Term("agent"), Term("99")))))
        events[i] = ("act", act, tuple(effects))
    elif kind == "drop":
        del events[at]
    elif kind == "swap":
        at = min(at, len(events) - 2)
        events[at : at + 2] = events[at + 1 : at + 2] + events[at : at + 1]
    elif kind == "action":
        events[rng.choice(acts)] = ("act", Term("teleport", (Term("1"),)), ())
    elif kind == "sensor":
        events.insert(at, ("sense", "bogus", TRUE))
    else:
        events.insert(at, ("teleport", Term("x")))
    return events


def _replayed(replay_with, dom, events):
    """What `replay_with` makes of a log: ("belief", state), or the error's
    class and, for a divergence, the position of the event it names."""
    pulled = []

    def feed():
        for event in events:
            pulled.append(event)
            yield event

    try:
        return ("belief", replay_with(dom, feed()))
    except EngineError as error:
        assert "backtracked across executed action" not in str(error)
        if not str(error).startswith("replay diverged"):
            return (type(error), None)
        # The reference stops pulling events at the one that diverged; the
        # product, which takes them all, carries the steps it ran.
        ran = pulled if replay_with is reference_replay else error.state.events
        return (type(error), len(ran) - 1)


def test_replay_agrees_with_the_reference_on_valid_and_corrupted_logs():
    """Seeded differential of `replay` against `tests/replay_reference.py`,
    its form before it ran logs on an interpreter: the logs of random
    corridor walks and cautious 4x4 wumpus runs, and each log with one
    fault of every kind, give the same belief, or the same error class,
    a divergence at the same event."""
    rng = random.Random(27)
    seen = Counter()
    for n in range(24):
        dom, state = (_random_walk_run if n % 3 else _cautious_wumpus_run)(rng)
        events = state.events
        assert replay(dom, events) == reference_replay(dom, events) == state.belief
        for kind in ("effects", "drop", "swap", "action", "sensor", "kind"):
            if kind == "swap" and len(events) < 2:
                continue
            bad = _corrupt(rng, events, kind)
            got = _replayed(replay, dom, bad)
            assert got == _replayed(reference_replay, dom, bad), (kind, bad)
            seen[got[0] if got[0] == "belief" else (got[0].__name__, got[1] is not None)] += 1
    assert seen[("EngineError", True)] >= 24 and seen[("EngineError", False)] >= 48
    assert seen["belief"] + seen[("SensingError", False)] > 0


def test_interpreter_reuse_is_isolated():
    dom = parse_domain(PLAIN, "d.alpd")
    prog = parse_program(LISTS, dom, "p.alp")
    first = Interpreter(dom, prog, AckEnv()).run(parse_query("do(go(2))", dom))
    second = Interpreter(dom, prog, AckEnv()).run(parse_query("?(at(agent,X))", dom))
    moved = first.state.belief.units_for("at", 2, True)[0].literals[0]
    assert format_term(moved.fluent.args[1]) == "2"
    assert answers(second) == {"X": "1"}
