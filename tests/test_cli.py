import re
from pathlib import Path

import pytest

from primelog import cli
from primelog.envs import emit_maze_domain, format_replay_script
from primelog.interpreter import solve
from primelog.envs import MazeEnv
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.strategies import MAZE_EXPLORER, maze_query


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
    assert err == "error: the threat count cannot be negative, not -3\n"


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
