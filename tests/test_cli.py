import re
from pathlib import Path

import pytest

from helpers import maze_query
from primelog import cli
from primelog.envs import emit_maze_domain, format_replay_script
from primelog.interpreter import solve
from primelog.envs import MazeEnv
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.strategies import MAZE_EXPLORER


@pytest.fixture
def maze_files(tmp_path):
    domain = tmp_path / "maze.alpd"
    domain.write_text(emit_maze_domain(5), encoding="utf-8")
    program = tmp_path / "explore.alp"
    program.write_text(MAZE_EXPLORER, encoding="utf-8")
    return domain, program


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- run


def test_run_success_reports_and_exits_zero(maze_files, capsys):
    domain, program = maze_files
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", maze_query(5),
            "--env", "maze:5",
        ],
        capsys,
    )
    assert code == 0
    assert "status: success" in out
    assert "answer: yes" in out
    assert "actions (3): go(2) go(3) go(4)" in out
    assert "senses (0):" in out


def test_run_failure_exits_one(maze_files, capsys):
    domain, program = maze_files
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "explore([2,4],[])",
            "--env", "maze:5",
        ],
        capsys,
    )
    assert code == 1
    assert "status: failure" in out
    assert "answer: none" in out


def test_run_report_is_deterministic(maze_files, capsys):
    domain, program = maze_files
    argv = [
        "run",
        "--program", str(program),
        "--domain", str(domain),
        "--query", maze_query(5),
        "--env", "maze:5",
    ]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_run_out_flag_writes_file(maze_files, tmp_path, capsys):
    domain, program = maze_files
    report = tmp_path / "report.txt"
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", maze_query(5),
            "--env", "maze:5",
            "--out", str(report),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert "status: success" in report.read_text(encoding="utf-8")


def test_run_trace_goes_to_stderr(maze_files, capsys):
    domain, program = maze_files
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", maze_query(5),
            "--env", "maze:5",
            "--trace",
        ],
        capsys,
    )
    assert code == 0
    assert "CALL " in err
    assert "EXEC go(2)" in err
    assert "STATE size=" in err
    assert "EXEC" not in out


def test_run_barrier_violation_exits_two(tmp_path, capsys):
    domain = tmp_path / "maze.alpd"
    domain.write_text(emit_maze_domain(5), encoding="utf-8")
    program = tmp_path / "bad.alp"
    program.write_text("bad :- do(go(2)), fail.\n", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "bad",
            "--env", "maze:5",
        ],
        capsys,
    )
    assert code == 2
    assert "runtime error" in err
    assert "backtracked across executed action" in err


BARRIER_TRACES = {
    "failure-after-do": (
        "bad :- do(go(2)), fail.\n",
        "bad",
        """\
CALL bad
CALL do(go(2))
EXEC go(2)
STATE size=3
FAIL fail
runtime error: backtracked across executed action
""",
    ),
    # The cut drops the dead choicepoint the action's untried executions
    # count as; later failure first exhausts pick/1, pushed after the
    # action, and only then reaches step/1's, which is older than it.
    "backtrack-into-older-choicepoint": (
        "step(3). step(2).\n"
        "go_once(X) :- do(go(X)), !.\n"
        "pick(a). pick(b).\n"
        "back :- step(X), go_once(X), pick(Y), Y = c.\n",
        "back",
        """\
CALL back
CALL step(X~1)
EXIT step(3)
CALL go_once(3)
CALL do(go(3))
FAIL do(go(3))
REDO go_once(3)
FAIL go_once(3)
REDO step(X~1)
EXIT step(2)
CALL go_once(2)
CALL do(go(2))
EXEC go(2)
STATE size=3
EXIT go_once(2)
CALL pick(Y~1)
EXIT pick(a)
FAIL =(a,c)
REDO pick(Y~1)
EXIT pick(b)
FAIL =(b,c)
REDO pick(Y~1)
FAIL pick(Y~1)
runtime error: backtracked across executed action
""",
    ),
}


@pytest.mark.parametrize("case", sorted(BARRIER_TRACES))
def test_run_barrier_trace_is_pinned(case, tmp_path, capsys):
    source, query, want = BARRIER_TRACES[case]
    domain = tmp_path / "maze.alpd"
    domain.write_text(emit_maze_domain(5), encoding="utf-8")
    program = tmp_path / "prog.alp"
    program.write_text(source, encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", query,
            "--env", "maze:5",
            "--trace",
        ],
        capsys,
    )
    assert (code, err) == (2, want)


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.mark.parametrize(
    "query, code, trace",
    [
        ("do(go(c(1,2))), fail", 2,
         "CALL do(go(c(1,2)))\nEXEC go(c(1,2))\nSTATE size=4\nFAIL fail\n"
         "runtime error: backtracked across executed action\n"),
        ("?(perceiveSmell(R)), fail", 1,
         "CALL ?(perceiveSmell(R))\nSENSE perceiveSmell=false\nSTATE size=5\nFAIL fail\n"),
    ],
    ids=["do", "sense"],
)
def test_failure_after_a_commit_at_the_top_level(query, code, trace, capsys):
    """An executed action leaves its untried executions behind as a dead
    choicepoint, so failing after it crosses the barrier (exit 2); a
    sensing leaves none, so failing after it at the top level is plain
    failure (exit 1)."""
    got = run_cli(
        ["run", "--program", str(SAMPLES / "cautious.alp"), "--domain",
         str(SAMPLES / "wumpus4.alpd"), "--query", query, "--env", "wumpus:4x4",
         "--seed", "7", "--trace"],
        capsys,
    )
    assert (got[0], got[2]) == (code, trace)


def test_a_numeral_of_5000_digits_is_a_numeral(tmp_path, capsys):
    """Numerals are keyed by their digits, so one longer than Python's
    integer conversion limit is read, compared and printed like any other,
    in a domain fact, a `memberchk` argument and a `?` query."""
    big = "9" * 5000
    domain = tmp_path / "maze.alpd"
    domain.write_text(emit_maze_domain(3) + f"big({big}).\n", encoding="utf-8")
    program = tmp_path / "p.alp"
    program.write_text("p.\n", encoding="utf-8")
    argv = ["run", "--program", str(program), "--domain", str(domain), "--env", "maze:3"]
    code, out, err = run_cli(argv + ["--query", f"big(X), memberchk(X, [1, 0{big}])"], capsys)
    assert (code, err) == (0, "")
    assert f"X = {big}\n" in out
    code, out, err = run_cli(argv + ["--query", f"?(at(agent,0{big}))"], capsys)
    assert (code, err) == (1, "")


@pytest.mark.parametrize(
    "env, target, rejection",
    [("maze:3", "{big}", "maze rejected go({big}) (agent is in cell 1)"),
     ("wumpus:4x4", "c({big},1)", "wumpus world rejected go(c({big},1)): not a board cell")],
    ids=["maze", "wumpus"],
)
def test_a_cell_number_of_5000_digits_is_rejected_by_the_environment(
    tmp_path, capsys, env, target, rejection
):
    """A cell number longer than any board's is an illegal move, refused
    before `int()` reads it, so the run ends with the environment's own
    rejection and not Python's conversion limit."""
    big = "9" * 5000
    domain = tmp_path / "free.alpd"
    domain.write_text(
        "fluents([at/2]).\nactions([go/1]).\ninitial_state([at(agent,1)]).\n"
        "action(go(Y), [], [case([], [at(agent,Y)])]).\n",
        encoding="utf-8",
    )
    program = tmp_path / "p.alp"
    program.write_text("p.\n", encoding="utf-8")
    code, out, err = run_cli(
        ["run", "--program", str(program), "--domain", str(domain),
         "--query", f"do(go({target.format(big=big)}))", "--env", env],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == f"runtime error: {rejection.format(big=big)}\n"


def test_a_sensor_called_without_a_question_mark_is_undefined(tmp_path, capsys):
    """Only `?(s(X))` senses: a body goal that names a sensor as a plain
    call is an ordinary call, and no predicate defines it."""
    program = tmp_path / "smell.alp"
    program.write_text("smell :- perceiveSmell(R).\n", encoding="utf-8")
    code, out, err = run_cli(
        ["run", "--program", str(program), "--domain", str(SAMPLES / "wumpus4.alpd"),
         "--query", "smell", "--env", "wumpus:4x4"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "runtime error: undefined predicate perceiveSmell/1\n"


@pytest.mark.parametrize("query", ["?(q(1))", "p", "do(go(2))"])
def test_a_declared_aux_predicate_with_no_clauses_fails(tmp_path, query, capsys):
    """`aux([q/1])` with no `q` clause: a `?` query, a program body and a
    precondition that call q fail (exit 1), not a runtime fault."""
    domain = tmp_path / "aux.alpd"
    domain.write_text(
        "fluents([at/2]).\nactions([go/1]).\naux([q/1]).\ninitial_state([at(agent,1)]).\n"
        "action(go(Y), [at(agent,X), adj(X,Y), q(Y)], [case([], [at(agent,Y), -at(agent,X)])]).\n"
        "adj(1,2).\nadj(2,1).\n",
        encoding="utf-8",
    )
    program = tmp_path / "p.alp"
    program.write_text("p :- q(1).\n", encoding="utf-8")
    code, out, err = run_cli(
        ["run", "--program", str(program), "--domain", str(domain),
         "--query", query, "--env", "maze:3"],
        capsys,
    )
    assert (code, err) == (1, "")
    assert "status: failure" in out
    assert "actions (0):" in out


def test_run_budget_exhaustion_exits_two(tmp_path, capsys):
    domain = tmp_path / "maze.alpd"
    domain.write_text(emit_maze_domain(3), encoding="utf-8")
    program = tmp_path / "loop.alp"
    program.write_text("loop :- loop.\n", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "loop",
            "--env", "maze:3",
            "--steps", "500",
        ],
        capsys,
    )
    assert code == 2
    assert "budget" in err


# A chain of 80 implications p(i) -> p(i+1): its closure would form
# 167,559 resolvents, past the closure budget.
_CHAIN = "[" + ", ".join(f"[-p({i}), p({i + 1})]" for i in range(80)) + "]"


@pytest.mark.parametrize(
    "initial, meaning",
    [(_CHAIN, "[p(0)]"), ("[]", _CHAIN)],
    ids=["initial-state", "sensing"],
)
def test_run_closure_past_its_budget_exits_two(tmp_path, capsys, initial, meaning):
    domain = tmp_path / "chain.alpd"
    domain.write_text(
        "fluents([p/1]).\n"
        "actions([]).\n"
        "sensors([s]).\n"
        f"initial_state({initial}).\n"
        f"sensor_axiom(s(_), [case(true, [], {meaning}), case(false, [], [])]).\n",
        encoding="utf-8",
    )
    program = tmp_path / "empty.alp"
    program.write_text("", encoding="utf-8")
    script = tmp_path / "run.script"
    script.write_text("saw(s, true).\n", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "?(s(V))",
            "--env", f"replay:{script}",
        ],
        capsys,
    )
    assert (code, out, err) == (2, "", "runtime error: prime closure budget exceeded\n")


def test_run_sensing_meaning_left_open_exits_two(tmp_path, capsys):
    # `X` in the meaning is bound by neither the index nor the result
    domain = tmp_path / "open.alpd"
    domain.write_text(
        "fluents([p/1]). actions([go/1]). sensors([s]). initial_state([-p(a)]).\n"
        "action(go(Y),[],[case([],[])]).\n"
        "sensor_axiom(s(_),[case(true,[],[p(X)]),case(false,[],[-p(a)])]).\n",
        encoding="utf-8",
    )
    program = tmp_path / "main.alp"
    program.write_text("main :- ?(s(R)).\n", encoding="utf-8")
    script = tmp_path / "run.script"
    script.write_text("saw(s, true).\n", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "main",
            "--env", f"replay:{script}",
        ],
        capsys,
    )
    message = "runtime error: sensing meaning for s not ground after index match\n"
    assert (code, out, err) == (2, "", message)  # and so no traceback


def test_run_parse_error_exits_three(tmp_path, capsys):
    domain = tmp_path / "broken.alpd"
    domain.write_text("fluents([at/2)\n", encoding="utf-8")
    program = tmp_path / "p.alp"
    program.write_text("go :- true.\n", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "go",
            "--env", "maze:3",
        ],
        capsys,
    )
    assert code == 3
    assert "parse error" in err
    assert "broken.alpd" in err


def test_run_unknown_environment_exits_three(maze_files, capsys):
    domain, program = maze_files
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "true",
            "--env", "labyrinth:5",
        ],
        capsys,
    )
    assert code == 3
    assert "unknown environment" in err


def test_run_missing_file_exits_three(tmp_path, capsys):
    code, out, err = run_cli(
        [
            "run",
            "--program", str(tmp_path / "absent.alp"),
            "--domain", str(tmp_path / "absent.alpd"),
            "--query", "true",
            "--env", "maze:3",
        ],
        capsys,
    )
    assert code == 3


def test_bad_flag_exits_three(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--programme", "x"])
    assert info.value.code == 3


def test_debug_checks_is_not_a_flag(maze_files, capsys):
    # The oracle mirror of the tests checks primeness after every commit.
    domain, program = maze_files
    argv = ["run", "--program", str(program), "--domain", str(domain)]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--query", "explore([2],[])", "--env", "maze:5", "--debug-checks"])
    assert info.value.code == 3
    assert "unrecognized arguments: --debug-checks" in capsys.readouterr().err


def test_no_subcommand_exits_three(capsys):
    assert cli.main([]) == 3


def test_run_replay_script(maze_files, tmp_path, capsys):
    domain_path, program_path = maze_files
    dom = parse_domain(domain_path.read_text(encoding="utf-8"), str(domain_path))
    prog = parse_program(program_path.read_text(encoding="utf-8"), dom, "p.alp")
    outcome = solve(parse_query(maze_query(5), dom), prog, dom, MazeEnv(5))
    script = tmp_path / "run.script"
    script.write_text(format_replay_script(outcome.state.events), encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program_path),
            "--domain", str(domain_path),
            "--query", maze_query(5),
            "--env", f"replay:{script}",
        ],
        capsys,
    )
    assert code == 0
    assert "status: success" in out


@pytest.mark.parametrize("leaf", ["x", "_"])
def test_run_prints_a_3000_deep_answer(tmp_path, capsys, leaf):
    domain = tmp_path / "succ.alpd"
    facts = " ".join(f"succ({i},{i + 1})." for i in range(5000))
    domain.write_text(emit_maze_domain(3) + facts + "\n", encoding="utf-8")
    program = tmp_path / "nest.alp"
    program.write_text(
        f"nest(N,N,{leaf}) :- !.\nnest(I,N,f(T)) :- succ(I,J), nest(J,N,T).\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "nest(0,3000,T)",
            "--env", "maze:3",
        ],
        capsys,
    )
    assert code == 0
    assert "Traceback" not in err
    assert f"answer: T = {'f(' * 3000}{leaf}{')' * 3000}\n" in out


def test_run_answers_a_belief_query_with_a_3000_deep_aux_answer(tmp_path, capsys):
    domain = tmp_path / "nestv.alpd"
    facts = " ".join(f"succ({i},{i + 1})." for i in range(3100))
    domain.write_text(
        emit_maze_domain(2)
        + "nestv(N,N,V).\nnestv(I,N,f(T)) :- succ(I,J), nestv(J,N,T).\n"
        + facts
        + "\n",
        encoding="utf-8",
    )
    program = tmp_path / "empty.alp"
    program.write_text("", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "?(nestv(0,3000,T))",
            "--env", "maze:2",
        ],
        capsys,
    )
    assert code == 0
    assert "Traceback" not in err
    # the leaf is the aux clause's own V, renamed apart
    assert re.search(r"answer: T = (f\(){3000}V~a\d+\){3000}\n", out)


def test_run_reads_a_query_nested_3000_deep(capsys):
    samples = Path(__file__).parent.parent / "samples"
    deep = "f(" * 3000 + "a" + ")" * 3000
    code, out, err = run_cli(
        [
            "run",
            "--program", str(samples / "explorer.alp"),
            "--domain", str(samples / "corridor5.alpd"),
            "--query", f"X = {deep}",
            "--env", "maze:5",
        ],
        capsys,
    )
    assert code == 0
    assert "Traceback" not in err
    assert f"answer: X = {deep}\n" in out


@pytest.mark.parametrize("query", ["{deep}", "?({deep})"])
def test_run_looks_up_a_3000_deep_fact(tmp_path, capsys, query):
    # the fact and the query are read apart, so their keys are equal
    # tuples nested too deep for one comparison
    deep = "deep(" + "f(" * 3000 + "a" + ")" * 3000 + ")"
    domain = tmp_path / "deep.alpd"
    domain.write_text(emit_maze_domain(2) + f"{deep}.\ndeep(b).\n", encoding="utf-8")
    program = tmp_path / "empty.alp"
    program.write_text("", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", query.format(deep=deep),
            "--env", "maze:2",
        ],
        capsys,
    )
    assert code == 0
    assert "Traceback" not in err
    assert "status: success" in out


def test_run_removes_a_3000_deep_fluent_from_the_belief(tmp_path, capsys):
    # the domain, the query and the replay script each read the deep term
    # apart, so the effect that removes the fluent is built separately
    deep = "f(" * 3000 + "a" + ")" * 3000
    domain = tmp_path / "deep.alpd"
    domain.write_text(
        "fluents([p/1, q/0]).\n"
        "actions([clear/1]).\n"
        f"initial_state([p({deep}), q]).\n"
        "action(clear(X), [p(X)], [case([], [-p(X)])]).\n",
        encoding="utf-8",
    )
    program = tmp_path / "empty.alp"
    program.write_text("", encoding="utf-8")
    script = tmp_path / "run.script"
    script.write_text(f"did(clear({deep})).\n", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", f"do(clear({deep})), ?(-p({deep})), ?(q)",
            "--env", f"replay:{script}",
        ],
        capsys,
    )
    assert code == 0
    assert "Traceback" not in err
    assert "status: success" in out
    assert "belief clauses: 2\n" in out


@pytest.mark.parametrize("copies", [1, 2])
def test_run_senses_a_meaning_with_a_3000_deep_open_literal(tmp_path, capsys, copies):
    deep = "p(" + "f(" * 3000 + "X" + ")" * 3000 + ")"
    meaning = "[" + ",".join([deep] * copies) + "]"
    domain = tmp_path / "deep.alpd"
    domain.write_text(
        "fluents([at/2, p/1]).\n"
        "actions([go/1]).\n"
        "sensors([s]).\n"
        "initial_state([at(agent,1)]).\n"
        "action(go(Y), [at(agent,X), adj(X,Y)], [case([], [at(agent,Y), -at(agent,X)])]).\n"
        f"sensor_axiom(s(_), [case(true, [at(agent,X)], [{meaning}]),\n"
        "                     case(false, [at(agent,X)], [-p(X)])]).\n"
        "adj(1,2).\n",
        encoding="utf-8",
    )
    program = tmp_path / "empty.alp"
    program.write_text("", encoding="utf-8")
    script = tmp_path / "run.script"
    script.write_text("saw(s, true).\n", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "?(s(V))",
            "--env", f"replay:{script}",
        ],
        capsys,
    )
    assert code == 0
    assert "Traceback" not in err
    assert "answer: V = true\n" in out
    assert "belief clauses: 2\n" in out


_LONG_CLAUSE = "[" + ",".join(f"p({i})" for i in range(1, 1601)) + "]"


@pytest.mark.parametrize(
    "domain_text, prop",
    [
        (
            (Path(__file__).parent.parent / "samples" / "corridor5.alpd").read_text(encoding="utf-8"),
            ",".join(["at(agent,1)"] * 1000),
        ),
        (f"fluents([p/1]).\nactions([]).\ninitial_state([{_LONG_CLAUSE}]).\n", _LONG_CLAUSE),
    ],
    ids=["1000-clause-property", "1600-literal-clause"],
)
def test_run_entails_a_long_belief_query(tmp_path, capsys, domain_text, prop):
    domain = tmp_path / "long.alpd"
    domain.write_text(domain_text, encoding="utf-8")
    program = tmp_path / "long.alp"
    program.write_text(f"go :- ?([{prop}]).\n", encoding="utf-8")
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "go",
            "--env", "maze:5",
        ],
        capsys,
    )
    assert code == 0
    assert "Traceback" not in err
    assert "status: success" in out


# ---------------------------------------------------------------- gen-wumpus


def test_gen_writes_parseable_domain_and_agent(tmp_path, capsys):
    domain = tmp_path / "w.alpd"
    agent = tmp_path / "w.alp"
    code, out, err = run_cli(
        [
            "gen-wumpus",
            "--size", "4",
            "--seed", "7",
            "--out", str(domain),
            "--agent-out", str(agent),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert "4x4 world" in err
    dom = parse_domain(domain.read_text(encoding="utf-8"), str(domain))
    parse_program(agent.read_text(encoding="utf-8"), dom, str(agent))


def test_gen_stdout_parses(capsys):
    code = cli.main(["gen-wumpus", "--size", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    parse_domain(captured.out, "<gen>")


def test_gen_is_deterministic(tmp_path, capsys):
    argv = ["gen-wumpus", "--size", "5", "--seed", "2"]
    _ = cli.main(argv)
    first = capsys.readouterr().out
    _ = cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_gen_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("size = 4\nseed = 3\n", encoding="utf-8")
    code = cli.main(["gen-wumpus", "--config", str(cfg), "--seed", "9"])
    captured = capsys.readouterr()
    assert code == 0
    assert "seed 9" in captured.err


@pytest.mark.parametrize("lines, threats", [("size = 4\n", 25), ("size = 4\nthreats = 3\n", 3)])
def test_gen_size_flag_over_a_config_file_keeps_its_threat_default(
    tmp_path, capsys, lines, threats
):
    # Without `threats` in the file, the default follows the final size,
    # as it does for `gen-wumpus --size 16` alone.
    cfg = tmp_path / "w.cfg"
    cfg.write_text(lines, encoding="utf-8")
    code, _, err = run_cli(
        ["gen-wumpus", "--config", str(cfg), "--size", "16", "--out", str(tmp_path / "w.alpd")],
        capsys,
    )
    assert code == 0
    assert err.startswith("16x16 world, seed 0:")
    assert err.endswith(f", {threats} threats\n")


def test_gen_rejects_a_negative_threat_count(capsys):
    code, out, err = run_cli(["gen-wumpus", "--size", "4", "--threats", "-3"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: the threat count cannot be negative, not -3\n"


def test_gen_rejects_a_negative_threat_count_in_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("size = 4\nthreats = -3\n", encoding="utf-8")
    code, out, err = run_cli(["gen-wumpus", "--config", str(cfg)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: {cfg}:2: the threat count cannot be negative, not -3\n"


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("steps", ["0", "-1", "x"])
def test_a_step_budget_below_one_is_bad_input(maze_files, capsys, command, steps):
    domain, program = maze_files
    if command == "run":
        argv = ["run", "--program", str(program), "--domain", str(domain),
                "--query", maze_query(5), "--env", "maze:5"]
    else:
        argv = ["bench", "--sizes", "4"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [f"--steps={steps}"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (3, "")
    assert err.endswith(
        f"error: argument --steps: expected an integer of at least 1, not {steps!r}\n"
    )


def test_gen_then_run_grabs_the_gold(tmp_path, capsys):
    domain = tmp_path / "w.alpd"
    agent = tmp_path / "w.alp"
    cli.main(
        [
            "gen-wumpus",
            "--size", "4",
            "--seed", "7",
            "--out", str(domain),
            "--agent-out", str(agent),
        ]
    )
    capsys.readouterr()
    code, out, err = run_cli(
        [
            "run",
            "--program", str(agent),
            "--domain", str(domain),
            "--query", "run",
            "--env", "wumpus:4x4",
            "--seed", "7",
        ],
        capsys,
    )
    assert code == 0
    assert "status: success" in out


def test_run_wumpus_config_size_mismatch_exits_three(tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("size = 5\n", encoding="utf-8")
    domain = tmp_path / "w.alpd"
    agent = tmp_path / "w.alp"
    cli.main(
        [
            "gen-wumpus",
            "--size", "4",
            "--seed", "0",
            "--out", str(domain),
            "--agent-out", str(agent),
        ]
    )
    capsys.readouterr()
    code, out, err = run_cli(
        [
            "run",
            "--program", str(agent),
            "--domain", str(domain),
            "--query", "run",
            "--env", "wumpus:4x4",
            "--wumpus-config", str(cfg),
        ],
        capsys,
    )
    assert code == 3
    assert "size" in err


@pytest.mark.parametrize("seed_flag, seed", [(["--seed", "5"], 5), ([], 3)])
def test_run_seed_overrides_the_wumpus_config_file(tmp_path, capsys, seed_flag, seed):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("size = 6\nseed = 3\n", encoding="utf-8")
    domain = tmp_path / "w.alpd"
    agent = tmp_path / "w.alp"
    code, _, err = run_cli(
        [
            "gen-wumpus",
            "--config", str(cfg),
            *seed_flag,
            "--out", str(domain),
            "--agent-out", str(agent),
        ],
        capsys,
    )
    assert code == 0
    assert f"seed {seed}:" in err
    code, out, err = run_cli(
        [
            "run",
            "--program", str(agent),
            "--domain", str(domain),
            "--query", "run",
            "--env", "wumpus:6x6",
            "--wumpus-config", str(cfg),
            *seed_flag,
        ],
        capsys,
    )
    assert code == 0, err
    assert "status: success" in out


def test_rectangular_wumpus_selector_exits_three(maze_files, capsys):
    domain, program = maze_files
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "true",
            "--env", "wumpus:4x6",
        ],
        capsys,
    )
    assert code == 3
    assert "square" in err


def test_a_maze_count_that_is_a_digit_but_not_decimal_exits_three(maze_files, capsys):
    domain, program = maze_files
    code, out, err = run_cli(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", maze_query(5),
            "--env", "maze:²",
        ],
        capsys,
    )
    assert (code, out) == (3, "")
    assert err == "error: maze selector needs a cell count >= 2, got 'maze:²'\n"


@pytest.mark.parametrize(
    "selector, message",
    [("maze:" + "9" * 5000, "maze selector needs a number of at most 9 digits, got 5000"),
     ("wumpus:{0}x{0}".format("9" * 5000),
      "wumpus selector needs a number of at most 9 digits, got 5000")],
    ids=["maze", "wumpus"],
)
def test_a_selector_number_of_5000_digits_exits_three(maze_files, capsys, selector, message):
    """A selector's count is refused by its digits before `int()` reads
    it, with the selector named and not Python's conversion limit."""
    domain, program = maze_files
    code, out, err = run_cli(
        ["run", "--program", str(program), "--domain", str(domain),
         "--query", maze_query(5), "--env", selector],
        capsys,
    )
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["gen-wumpus", "run"])
@pytest.mark.parametrize("key", ["size", "threats", "seed"])
def test_a_wumpus_config_number_that_is_not_an_integer_exits_three(
    maze_files, tmp_path, capsys, command, key
):
    cfg = tmp_path / "w.cfg"
    cfg.write_text(f"solvable = true\n{key} = eight\n", encoding="utf-8")
    if command == "run":
        domain, program = maze_files
        argv = ["run", "--program", str(program), "--domain", str(domain),
                "--query", maze_query(5), "--env", "wumpus:4x4", "--wumpus-config", str(cfg)]
    else:
        argv = ["gen-wumpus", "--config", str(cfg)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err == f"error: {cfg}:2: {key} must be an integer, not 'eight'\n"


# ---------------------------------------------------------------- input files


def _input_files(tmp_path, maze_files):
    """A domain, a program, a replay script of their run and a wumpus
    config, each by its kind, and the command that reads each."""
    domain, program = maze_files
    dom = parse_domain(domain.read_text(encoding="utf-8"), str(domain))
    prog = parse_program(program.read_text(encoding="utf-8"), dom, str(program))
    outcome = solve(parse_query(maze_query(5), dom), prog, dom, MazeEnv(5))
    script = tmp_path / "run.script"
    script.write_text(format_replay_script(outcome.state.events), encoding="utf-8")
    config = tmp_path / "w.cfg"
    config.write_text("size = 4\nseed = 1\n", encoding="utf-8")
    files = {"domain": domain, "program": program, "script": script, "config": config}
    run = ["run", "--program", str(program), "--domain", str(domain),
           "--query", maze_query(5), "--env", f"replay:{script}"]
    commands = {kind: run for kind in files}
    commands["config"] = ["gen-wumpus", "--config", str(config)]
    return files, commands


# Each: the file that is bad, its bytes, and the message after its name.
BAD_INPUTS = [
    pytest.param("config", b"size = 4\nsolvable = maybe\n",
                 "2: solvable must be true or false, not 'maybe'", id="config-solvable"),
    pytest.param("config", b"sise = 4\n", "1: unknown wumpus config key 'sise'", id="config-key"),
    pytest.param("config", b"threats = -3\n", "1: the threat count cannot be negative, not -3",
                 id="config-threats-negative"),
    pytest.param("config", b"seed = 1\nsize = 1\n", "2: wumpus worlds need size >= 2",
                 id="config-size"),
    pytest.param("config", b"size = 3\nthreats = 8\n", "2: 8 threats do not fit a 3x3 board",
                 id="config-threats-fit"),
    pytest.param("domain", b"fluents([p/" + b"9" * 5000 + b"]).\n",
                 "1:1: fluents arities must be below 1,000,000,000", id="domain-arity"),
    pytest.param("domain", b"fluents([caf\xe9/0]).\n", "1:13: byte 0xe9 is not UTF-8", id="domain-utf8"),
    pytest.param("program", b"\n\n  \xff\n", "3:3: byte 0xff is not UTF-8", id="program-utf8"),
    pytest.param("script", b"did(go(2)).\n\xe2(\n", "2:1: byte 0xe2 is not UTF-8", id="script-utf8"),
    pytest.param("config", b"size = 4\nseed = \xe2\x28\n", "2:8: byte 0xe2 is not UTF-8", id="config-utf8"),
    *(pytest.param("config", b"size = 4\n%s = %s\n" % (key, b"9" * 5000),
                   f"2: {key.decode()} is too long: 5000 digits, at most 4300", id=f"config-{key.decode()}-digits")
      for key in (b"size", b"threats", b"seed")),
]


@pytest.mark.parametrize("kind, data, message", BAD_INPUTS)
def test_a_bad_input_file_is_named_where_it_is(maze_files, tmp_path, capsys, kind, data, message):
    files, commands = _input_files(tmp_path, maze_files)
    files[kind].write_bytes(data)
    code, out, err = run_cli(commands[kind], capsys)
    assert (code, out) == (3, "")
    assert re.match(rf"(parse )?error: {re.escape(str(files[kind]))}:\d+(:\d+)?: ", err)
    assert not any(python in err for python in ("codec", "int()", "sys.", "Traceback"))
    assert err.endswith(f"{files[kind]}:{message}\n")


# Each: a command whose flag carries a 5,000-digit number, and the error
# line. A flag has no file to name, so these are a table of their own.
LONG = "9" * 5000
BAD_FLAGS = [
    *(pytest.param(["gen-wumpus", f"--{flag}", LONG],
                   f"primelog gen-wumpus: error: argument --{flag}: the number is too long: "
                   "5000 digits, at most 4300", id=f"gen-wumpus-{flag}")
      for flag in ("size", "threats", "seed")),
    *(pytest.param(["run", "--program", "a.alp", "--domain", "a.alpd", "--query", "q",
                    "--env", "maze:5", f"--{flag}", value],
                   f"primelog run: error: argument --{flag}: the number is too long: "
                   "5000 digits, at most 4300", id=f"run-{flag}")
      for flag, value in (("seed", "-" + LONG), ("steps", LONG))),
    pytest.param(["bench", "--sizes", "4", "--steps", LONG],
                 "primelog bench: error: argument --steps: the number is too long: "
                 "5000 digits, at most 4300", id="bench-steps"),
    pytest.param(["bench", "--sizes", f"4,{LONG}"], "error: size is too long: 5000 digits, at most 4300",
                 id="bench-sizes"),
    pytest.param(["bench", "--sizes", "4", "--seeds", f"{LONG},1"],
                 "error: seed is too long: 5000 digits, at most 4300", id="bench-seeds"),
]


@pytest.mark.parametrize("argv, message", BAD_FLAGS)
def test_a_flag_number_of_5000_digits_is_too_long(capsys, argv, message):
    """Refused by its digit count before `int()` reads it, so the message
    says the number is too long, not that it is no integer."""
    try:
        code = cli.main(argv)
    except SystemExit as done:
        code = done.code
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.endswith(message + "\n")


def test_a_config_number_of_4300_digits_still_reads(tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text(f"size = 4\nseed = {'9' * 4300}\n", encoding="utf-8")
    code, out, err = run_cli(["gen-wumpus", "--config", str(cfg)], capsys)
    assert code == 0 and out.startswith(f"% 4x4 wumpus world, seed {'9' * 4300}")
    assert f"seed {'9' * 4300}: gold at" in err


@pytest.mark.parametrize("kind", ["domain", "program", "script", "config"])
def test_a_file_with_a_byte_order_mark_reads_as_without(maze_files, tmp_path, capsys, kind):
    files, commands = _input_files(tmp_path, maze_files)
    plain = run_cli(commands[kind], capsys)
    files[kind].write_bytes(b"\xef\xbb\xbf" + files[kind].read_bytes())
    assert plain[0] == 0
    assert run_cli(commands[kind], capsys) == plain


# ---------------------------------------------------------------- bench


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# timing:")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


def test_bench_emits_grid_rows(capsys):
    code = cli.main(["bench", "--sizes", "4", "--seeds", "0"])
    captured = capsys.readouterr()
    assert code == 0
    header, rows = parse_csv(captured.out)
    assert header == list(cli._CSV_COLUMNS)
    assert ",".join(header) == (
        "size,variant,seed,status,actions,max_state_clauses,total_ms,mean_action_ms,gen_ms,parse_ms"
    )
    assert [(r["size"], r["variant"]) for r in rows] == [
        ("4", "ground2"),
        ("4", "ground3"),
    ]
    for row in rows:
        assert row["status"] == "success"
        assert int(row["actions"]) > 0
        assert float(row["total_ms"]) > 0


def test_bench_reports_generation_and_parse_times(capsys):
    code = cli.main(["bench", "--sizes", "4", "--variants", "ground2"])
    captured = capsys.readouterr()
    assert code == 0
    header, (row,) = parse_csv(captured.out)
    assert header[-2:] == ["gen_ms", "parse_ms"]
    assert float(row["gen_ms"]) > 0
    assert float(row["parse_ms"]) > 0


def test_bench_ground3_carries_more_clauses(capsys):
    code = cli.main(["bench", "--sizes", "4", "--seeds", "0"])
    captured = capsys.readouterr()
    assert code == 0
    _, rows = parse_csv(captured.out)
    by_variant = {r["variant"]: int(r["max_state_clauses"]) for r in rows}
    assert by_variant["ground3"] > by_variant["ground2"]


def test_bench_out_file(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = cli.main(
        ["bench", "--sizes", "3", "--variants", "ground2", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    _, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 1


def test_bench_rejects_unknown_variant(capsys):
    code = cli.main(["bench", "--sizes", "4", "--variants", "ground9"])
    captured = capsys.readouterr()
    assert code == 3
    assert "variant" in captured.err


def test_bench_rejects_empty_sizes(capsys):
    code = cli.main(["bench", "--sizes", ","])
    captured = capsys.readouterr()
    assert code == 3
