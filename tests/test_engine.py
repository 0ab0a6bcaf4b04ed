"""One resolution engine for program goals and aux derivations.

The golden files under tests/golden/ were written by `primelog run
--trace` on the sample pairs; the trace, the report and the number of
resolution steps must not move when the engine changes inside. The aux
answer lists below were recorded from `AuxDB.solve` the same way: same
answers, same order, same multiplicity.
"""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import EMPTY_AUX, solve_under
from primelog import auxdb, cli
from primelog.auxdb import AuxDB
from primelog.envs import MazeEnv, ReplayEnv, WumpusConfig, WumpusEnv, generate_wumpus
from primelog.errors import EngineError
from primelog.interpreter import DEFAULT_STEP_BUDGET, Interpreter, replay, solve
from primelog.model import Program, ProgramClause
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.sld import FAILED, Machine
from primelog.terms import Term, Var, apply_subst, format_term, mk_list, variables

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"

# name, domain, program, query, --env, --seed, environment, steps taken
PAIRS = [
    (
        "corridor5_explorer",
        "corridor5.alpd",
        "explorer.alp",
        "explore([2,3,4,5],[])",
        "maze:5",
        0,
        lambda: MazeEnv(5),
        47,
    ),
    (
        "wumpus4_cautious",
        "wumpus4.alpd",
        "cautious.alp",
        "run",
        "wumpus:4x4",
        7,
        lambda: WumpusEnv(generate_wumpus(WumpusConfig(size=4, seed=7))),
        252,
    ),
]


@pytest.mark.parametrize("name, dom, prog, query, env, seed, make_env, steps", PAIRS)
def test_golden_trace_and_report(name, dom, prog, query, env, seed, make_env, steps, capsys):
    code = cli.main(
        [
            "run",
            "--program", str(SAMPLES / prog),
            "--domain", str(SAMPLES / dom),
            "--query", query,
            "--env", env,
            "--seed", str(seed),
            "--trace",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (GOLDEN / f"{name}.trace").read_text(encoding="utf-8")
    assert captured.out == (GOLDEN / f"{name}.report").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, dom, prog, query, env, seed, make_env, steps", PAIRS)
def test_golden_step_count(name, dom, prog, query, env, seed, make_env, steps):
    domain = parse_domain((SAMPLES / dom).read_text(encoding="utf-8"), dom)
    program = parse_program((SAMPLES / prog).read_text(encoding="utf-8"), domain, prog)
    interp = Interpreter(domain, program, make_env())
    assert interp.run(parse_query(query, domain)).succeeded
    assert DEFAULT_STEP_BUDGET - interp.steps == steps


@pytest.mark.parametrize("name, dom, prog, query, env, seed, make_env, steps", PAIRS)
def test_traced_step_count(name, dom, prog, query, env, seed, make_env, steps):
    domain = parse_domain((SAMPLES / dom).read_text(encoding="utf-8"), dom)
    program = parse_program((SAMPLES / prog).read_text(encoding="utf-8"), domain, prog)
    events = []
    interp = Interpreter(domain, program, make_env(), observer=events.append)
    assert interp.run(parse_query(query, domain)).succeeded
    assert any(e[0] == "exit" for e in events)
    assert DEFAULT_STEP_BUDGET - interp.steps == steps


def test_every_choicepoint_kind_golden(capsys):
    code = cli.main(
        [
            "run",
            "--program", str(GOLDEN / "choicepoints.alp"),
            "--domain", str(GOLDEN / "choicepoints.alpd"),
            "--query", "main",
            "--env", f"replay:{GOLDEN / 'choicepoints.script'}",
            "--trace",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (GOLDEN / "choicepoints.trace").read_text(encoding="utf-8")
    assert captured.out == (GOLDEN / "choicepoints.report").read_text(encoding="utf-8")
    lines = captured.err.splitlines()
    # a clause REDO, a `?` stream's second answer, the aux rule asked twice
    assert "REDO choose(C~1)" in lines
    assert lines.index("REDO ?([mark(M~2)])") + 1 == lines.index("EXIT ?([mark(b)])")
    assert lines.count("EXIT ?([reach(1,4)])") == 2
    # a `do` that warns, then executes; `do` streams that run dry
    warn = lines.index("WARN no applicable effect case for go(2); do/1 fails")
    assert lines[warn + 1] == "EXEC go(3)"
    assert "FAIL do(go(Y~4))" in lines and "FAIL do(go(9))" in lines
    # the cut leaves main/0 no alternative to retry
    assert "REDO main" not in lines and lines[-1] == "EXIT main"


def test_every_choicepoint_kind_steps_and_replay():
    domain = parse_domain((GOLDEN / "choicepoints.alpd").read_text(encoding="utf-8"), "d")
    program = parse_program((GOLDEN / "choicepoints.alp").read_text(encoding="utf-8"), domain, "p")
    script = (GOLDEN / "choicepoints.script").read_text(encoding="utf-8")
    interp = Interpreter(domain, program, ReplayEnv.from_script(script))
    outcome = interp.run(parse_query("main", domain))
    assert outcome.succeeded
    assert DEFAULT_STEP_BUDGET - interp.steps == 52
    assert replay(domain, outcome.state.events) == outcome.state.belief


def test_agent_goals_golden(capsys):
    code = cli.main(
        [
            "run",
            "--program", str(GOLDEN / "agent_goals.alp"),
            "--domain", str(GOLDEN / "agent_goals.alpd"),
            "--query", "main",
            "--env", f"replay:{GOLDEN / 'agent_goals.script'}",
            "--trace",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (GOLDEN / "agent_goals.trace").read_text(encoding="utf-8")
    assert captured.out == (GOLDEN / "agent_goals.report").read_text(encoding="utf-8")
    lines = captured.err.splitlines()
    # sensing into `_` names the variable it binds, as renamed
    assert lines[1] == "CALL ?(smell(_#1~1))" and "CALL ?(smell(S~1))" in lines
    # the open `do` fails its precondition, then the same `do` executes
    assert lines.index("FAIL do(go(Y~2))") < lines.index("CALL do(go(Y~4))")
    assert lines[lines.index("CALL do(go(Y~4))") + 1] == "EXEC go(2)"
    # a `?` over an aux rule resumed for its second answer
    assert "EXIT ?([at(agent,2),near(2,1)])" in lines
    # the cut leaves main/0 no alternative to retry
    assert "REDO main" not in lines and lines[-1] == "EXIT main"


def test_agent_goals_steps_and_replay():
    domain = parse_domain((GOLDEN / "agent_goals.alpd").read_text(encoding="utf-8"), "d")
    program = parse_program((GOLDEN / "agent_goals.alp").read_text(encoding="utf-8"), domain, "p")
    script = (GOLDEN / "agent_goals.script").read_text(encoding="utf-8")
    interp = Interpreter(domain, program, ReplayEnv.from_script(script))
    outcome = interp.run(parse_query("main", domain))
    assert outcome.succeeded
    assert DEFAULT_STEP_BUDGET - interp.steps == 19
    assert replay(domain, outcome.state.events) == outcome.state.belief


@pytest.mark.parametrize("name, dom, prog, query, env, seed, make_env, steps", PAIRS)
@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_step_budget_edge_with_and_without_trace(
    name, dom, prog, query, env, seed, make_env, steps, trace, capsys
):
    def run(budget):
        code = cli.main(
            [
                "run",
                "--program", str(SAMPLES / prog),
                "--domain", str(SAMPLES / dom),
                "--query", query,
                "--env", env,
                "--seed", str(seed),
                "--steps", str(budget),
                *trace,
            ]
        )
        return code, capsys.readouterr().err

    assert run(steps)[0] == 0
    code, err = run(steps - 1)
    assert code == 2
    assert "resolution step budget exceeded" in err


# ---------------------------------------------------------------- aux answers

AUX_DOMAIN = """\
fluents([at/2]).
actions([go/1]).
initial_state([at(agent,a)]).
action(go(Y), [at(agent,X), edge(X,Y)], [case([], [at(agent,Y), -at(agent,X)])]).
edge(a,b). edge(b,c). edge(a,c). edge(c,d). edge(b,d).
reach(X,Y) :- edge(X,Y).
reach(X,Y) :- edge(X,Z), reach(Z,Y).
path(X,X,[X]).
path(X,Y,[X|P]) :- edge(X,Z), path(Z,Y,P).
avoiding(X,Y,Bad,P) :- path(X,Y,P), nonmember(Bad,P).
through(X,Y,M,P) :- path(X,Y,P), memberchk(M,P), neq(M,X).
open(z,[]).
open(s(N),[_|T]) :- open(N,T).
hooked(X,[X|T],T).
hooked(X,[Y|T],[Y|R]) :- neq(X,Y), hooked(X,T,R).
"""

AUX_ANSWERS = {
    "reach(a,W)": ["W=b", "W=c", "W=c", "W=d", "W=d", "W=d"],
    "reach(d,W)": [],
    "path(a,d,P)": ["P=[a,b,c,d]", "P=[a,b,d]", "P=[a,c,d]"],
    "path(A,d,P)": [
        "A=d P=[d]",
        "A=a P=[a,b,c,d]",
        "A=a P=[a,b,d]",
        "A=b P=[b,c,d]",
        "A=a P=[a,c,d]",
        "A=c P=[c,d]",
        "A=b P=[b,d]",
    ],
    "avoiding(a,d,b,P)": ["P=[a,c,d]"],
    "through(a,d,c,P)": ["P=[a,b,c,d]", "P=[a,c,d]"],
    "through(a,Y,M,P)": [],
    "open(s(s(s(z))),L)": ["L=[_G0,_G1,_G2]"],
    "hooked(K,[a,b,c],R)": ["K=a R=[b,c]"],
    "hooked(c,[a,b,c|T],R)": ["R=[a,b|_G0] T=_G0"],
    "memberchk(p(X),[q(1),p(2),p(3)])": ["X=2"],
    "nonmember(x,[a,B])": [],
    "X = f(Y)": ["X=f(_G0) Y=_G0"],
}


def _canonical(sol, names):
    """An answer as text, its variables named _G0, _G1, ... in order of
    appearance, so fresh-variable numbering does not matter."""
    mapping = {}

    def number(term):
        if isinstance(term, Var):
            mapping.setdefault(term.name, Var(f"_G{len(mapping)}"))
        elif not term.ground:
            for a in term.args:
                number(a)

    parts = []
    for n in sorted(names):
        value = apply_subst(Var(n), sol)
        number(value)
        parts.append(f"{n}={format_term(apply_subst(value, mapping))}")
    return " ".join(parts)


def _aux_goal(text, domain):
    (goal,) = parse_query(text, domain, "<q>")
    return goal


@pytest.mark.parametrize("goal", sorted(AUX_ANSWERS))
def test_aux_answers_match_recorded(goal):
    domain = parse_domain(AUX_DOMAIN, "d.alpd")
    atom = _aux_goal(goal, domain)
    got = [_canonical(s, variables(atom)) for s in AuxDB(domain.aux_program).solve(atom)]
    assert got == AUX_ANSWERS[goal]


@pytest.mark.parametrize("goal", sorted(AUX_ANSWERS))
def test_aux_answers_extend_bindings_idempotently(goal):
    domain = parse_domain(AUX_DOMAIN, "d.alpd")
    atom = _aux_goal(goal, domain)
    base = {"Q": Term("z"), "R0": Term("f", (Var("Q"),))}
    base["R0"] = apply_subst(base["R0"], base)
    answers = list(solve_under(AuxDB(domain.aux_program), atom, base))
    assert len(answers) == len(AUX_ANSWERS[goal])
    for sol in answers:
        for name, value in base.items():
            assert sol[name] is value
        for value in sol.values():
            assert apply_subst(value, sol) == value


_FACT_ARGS = st.sampled_from(
    [Term("a"), Term("b"), Term("1"), Term("01"), Term("2"), Term("f", (Term("01"),))]
)
_GOAL_ARGS = st.one_of(
    _FACT_ARGS, st.sampled_from([Term("001"), Term("f", (Term("1"),)), Var("X"), Var("Y")])
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["p", "q"]), st.lists(_FACT_ARGS, min_size=2, max_size=2))),
    st.sampled_from(["p", "q"]),
    st.lists(_GOAL_ARGS, min_size=2, max_size=2),
    st.dictionaries(st.sampled_from(["X", "Y", "Z"]), _FACT_ARGS, max_size=2),
)
def test_ground_fact_lookups_answer_as_the_machine_does(facts, functor, args, base):
    """A ground goal over a table of ground facts is answered by key,
    without a machine; the answers must be those of the machine over the
    same facts unindexed, in order and with duplicates, for ground goals,
    open goals and goals made ground by `bindings`."""
    program = Program([ProgramClause(Term(f, tuple(a)), ()) for f, a in facts] + [
        ProgramClause(Term(f, (Term("c"), Term("c"))), ()) for f in ("p", "q")
    ])
    indexed, machine = AuxDB(program), AuxDB(program)
    machine._fact_index = {}
    goal = Term(functor, tuple(args))
    names = variables(goal) | set(base)

    def answers(db):
        return [
            {n: format_term(v) for n, v in sol.items() if n in names}
            for sol in solve_under(db, goal, base)
        ]

    assert answers(indexed) == answers(machine)


_GROUND_ARGS = (
    Term("a"),
    Term("1"),
    Term("01"),
    Term("2"),
    Term("f", (Term("01"),)),
    Term("f", (Term("1"),)),
    mk_list([Term("1"), Term("g", (Term("a"),))]),
    mk_list([Term("01"), Term("g", (Term("a"),))]),
    Term("h", (mk_list([Term("001"), Term("f", (Term("2"),))]),)),
)


def _derived(program, goal):
    """How many times a resolution machine over `program`, its clauses in
    textual order and no index, derives the ground `goal`."""
    machine = Machine(program, EMPTY_AUX, 10_000, map(str, itertools.count(1)))
    found = machine.resolve((goal, None))
    count = 0
    while found:
        count += 1
        found = machine.resolve(FAILED)
    return count


@pytest.mark.parametrize("seed", range(3))
def test_ground_goals_over_fact_tables_answer_as_often_as_derived(seed):
    """A ground goal over a table of ground facts is decided by the keys
    of its arguments against the facts filed under its first argument's
    key: as many answers as a machine derivation of the same goal finds,
    duplicate facts counted, numerals equal by value (`01` = `1` =
    `001`) at any depth, nested ground arguments compared whole, and no
    key of the goal itself built. Seeded random tables and goals."""
    rng = random.Random(seed)
    answered = 0
    for _ in range(40):
        arity = rng.randint(1, 3)
        facts = [
            Term("p", tuple(rng.choice(_GROUND_ARGS) for _ in range(arity)))
            for _ in range(rng.randint(1, 10))
        ]
        facts += rng.sample(facts, rng.randint(0, len(facts)))
        rng.shuffle(facts)
        program = Program([ProgramClause(f, ()) for f in facts])
        db = AuxDB(program)
        for _ in range(8):
            goal = Term("p", tuple(rng.choice(_GROUND_ARGS) for _ in range(arity)))
            answers = list(db.solve(goal))
            assert goal._key is None
            assert answers == [{}] * _derived(program, goal)
            answered += bool(answers)
            base = {"X": goal.args[-1]}
            opened = Term("p", goal.args[:-1] + (Var("X"),))
            assert list(solve_under(db, opened, base)) == [base] * len(answers)
    assert answered > 20


# ---------------------------------------------------------------- deep aux


def _chain_domain(n):
    edges = " ".join(f"edge({i},{i + 1})." for i in range(1, n))
    return (
        "fluents([at/2]).\n"
        "actions([go/1]).\n"
        "initial_state([at(agent,1)]).\n"
        "action(go(Y), [at(agent,X), edge(X,Y)], "
        "[case([], [at(agent,Y), -at(agent,X)])]).\n"
        f"{edges}\n"
        "reach(X,Y) :- edge(X,Y).\n"
        "reach(X,Y) :- edge(X,Z), reach(Z,Y).\n"
    )


def test_deep_aux_recursion_inside_a_query():
    domain = parse_domain(_chain_domain(3000), "chain.alpd")
    answers = list(AuxDB(domain.aux_program).solve(_aux_goal("reach(1,3000)", domain)))
    assert len(answers) == 1
    program = parse_program("far :- ?(reach(1,3000)).\n", domain, "p.alp")
    out = solve(parse_query("far", domain), program, domain, MazeEnv(3000))
    assert out.succeeded


def test_deep_aux_recursion_through_the_cli(tmp_path, capsys):
    domain = tmp_path / "chain.alpd"
    domain.write_text(_chain_domain(3000), encoding="utf-8")
    program = tmp_path / "far.alp"
    program.write_text("far :- ?(reach(1,3000)).\n", encoding="utf-8")
    code = cli.main(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "far",
            "--env", "maze:5",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert captured.out.startswith("status: success\n")


def test_runaway_aux_recursion_exhausts_its_budget(monkeypatch):
    domain = parse_domain(
        "fluents([at/2]).\nactions([go/1]).\ninitial_state([at(agent,a)]).\n"
        "action(go(Y), [at(agent,X), loop(Y)], [case([], [at(agent,Y)])]).\n"
        "loop(X) :- loop(X).\n",
        "loop.alpd",
    )
    monkeypatch.setattr(auxdb, "DEFAULT_AUX_BUDGET", 1000)
    aux = AuxDB(domain.aux_program)
    with pytest.raises(EngineError, match="budget"):
        list(aux.solve(_aux_goal("loop(a)", domain)))


class _BrokenEnv(MazeEnv):
    """A corridor whose `execute` or `sense` fails with a KeyError of its
    own, as an environment with a bug would."""

    def __init__(self, failing):
        super().__init__(5)
        self.failing = failing

    def execute(self, action):
        if self.failing == "execute" and self.log:
            raise KeyError("cell 3")
        return super().execute(action)

    def sense(self, functor):
        if self.failing == "sense":
            raise KeyError(functor)
        return super().sense(functor)


@pytest.mark.parametrize(
    "failing, program, message",
    [
        (
            "execute",
            "walk :- do(go(2)), do(go(3)).\n",
            "environment fault in execute(go(3)): KeyError: 'cell 3'",
        ),
        ("sense", "look(R) :- ?(glow(R)).\n", "environment fault in sense(glow): KeyError: 'glow'"),
    ],
)
def test_an_environment_fault_is_a_runtime_error_with_the_agent_state(failing, program, message):
    domain = parse_domain(
        (SAMPLES / "corridor5.alpd").read_text(encoding="utf-8")
        + "sensors([glow]).\nsensor_axiom(glow(_), [case(true, [], [])]).\n",
        "corridor5.alpd",
    )
    query = "walk" if failing == "execute" else "look(R)"
    with pytest.raises(EngineError) as caught:
        program = parse_program(program, domain, "p.alp")
        solve(parse_query(query, domain), program, domain, _BrokenEnv(failing))
    assert str(caught.value) == message
    assert isinstance(caught.value.__cause__, KeyError)
    assert [format_term(a) for a in caught.value.state.history] == (
        ["go(2)"] if failing == "execute" else []
    )


def test_an_environment_fault_exits_2_through_the_cli(monkeypatch, capsys):
    def broken(self, action):
        raise KeyError("cell 2")

    monkeypatch.setattr(MazeEnv, "execute", broken)
    code = cli.main(
        [
            "run",
            "--program", str(SAMPLES / "explorer.alp"),
            "--domain", str(SAMPLES / "corridor5.alpd"),
            "--query", "explore([2,3,4,5],[])",
            "--env", "maze:5",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    assert captured.err == (
        "runtime error: environment fault in execute(go(2)): KeyError: 'cell 2'\n"
    )
