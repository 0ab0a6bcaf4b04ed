"""End-to-end acceptance checks, one test per criterion. Each prints a
single PASS/FAIL line with the measured numbers so `pytest -v -s` reads
as a checklist. Wall-clock limits are deliberately loose; the point is
catching order-of-magnitude regressions, not micro-benchmarks."""

import random
import time

from helpers import maze_query
from oracle import (
    initial_beliefs,
    progress_beliefs,
    reference_prime_implicates,
)
from oracle_harness import OracleMirror
from primelog import cli
from primelog.auxdb import AuxDB
from primelog.envs import (
    MazeEnv,
    WumpusConfig,
    WumpusEnv,
    cell_coords,
    emit_maze_domain,
    emit_wumpus_domain,
    generate_wumpus,
)
from primelog.interpreter import solve
from primelog.model import ActionCase, ActionSpec, EMPTY_PROPERTY
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.pi import entails_property, prime_closure, update
from primelog.strategies import (
    MAZE_EXPLORER,
    WUMPUS_QUERY,
    wumpus_agent,
)
from primelog.terms import Literal, Term, Var, apply_subst, format_term, normalize_clause


def verdict(tag, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {tag}: {detail}"
    print(line)
    assert ok, line


def history(outcome):
    return [format_term(a) for a in outcome.state.history]


def solve_text(domain_text, program_text, query, env, **options):
    dom = parse_domain(domain_text, "<domain>")
    prog = parse_program(program_text, dom, "<program>")
    return solve(parse_query(query, dom), prog, dom, env, **options)


def test_01_corridor_golden_runs():
    started = time.perf_counter()
    maze = emit_maze_domain(5)
    good = solve_text(maze, MAZE_EXPLORER, maze_query(5), MazeEnv(5))
    bad = solve_text(maze, MAZE_EXPLORER, "explore([2,4],[])", MazeEnv(5))
    elapsed = time.perf_counter() - started
    ok = (
        good.succeeded
        and history(good) == ["go(2)", "go(3)", "go(4)"]
        and bad.status == "failure"
        and history(bad) == ["go(2)", "go(1)"]
        and elapsed < 1.0
    )
    verdict(
        "01 corridor golden runs",
        ok,
        f"{history(good)} then {history(bad)} in {elapsed * 1000:.0f} ms",
    )


def test_02_disjunctive_queries():
    dom = parse_domain(
        "fluents([at/2]).\n"
        "actions([]).\n"
        "initial_state([at(agent,1), [at(gold,4), at(gold,5)]]).\n",
        "<gold>",
    )
    aux = AuxDB(dom.aux_program)

    def answers(query):
        prop = parse_query(query, dom)[0]
        out = []
        for sol in entails_property(dom.initial, prop, aux):
            out.append(
                tuple(
                    format_term(apply_subst(Var(name), sol))
                    for name in ("X", "Y")
                    if name in sol
                )
            )
        return out

    pairs = answers("?([[at(gold,X), at(gold,Y)]])")
    singles = answers("?([at(gold,X)])")
    ok = (
        pairs
        and pairs[0] == ("4", "5")
        and set(pairs) == {("4", "5"), ("5", "4")}
        and singles == []
    )
    verdict(
        "02 disjunctive queries",
        ok,
        f"pair covers {pairs}, definite answers {singles}",
    )


def test_03_prime_closure_vs_reference():
    rng = random.Random(96211)
    atoms = [Term(f"p{i}") for i in range(8)]
    started = time.perf_counter()
    agreed = 0
    trials = 500
    for _ in range(trials):
        pool = atoms[: rng.randint(1, 8)]
        clauses = []
        for _ in range(rng.randint(0, 12)):
            lits = tuple(
                Literal(rng.choice(pool), rng.random() < 0.5)
                for _ in range(rng.randint(1, 4))
            )
            c = normalize_clause(lits)
            if c is not None:
                clauses.append(c)
        engine = sorted(str(c) for c in prime_closure(clauses))
        ref = sorted(str(c) for c in reference_prime_implicates(clauses, pool))
        if engine == ref:
            agreed += 1
    elapsed = time.perf_counter() - started
    ok = agreed == trials and elapsed < 60.0
    verdict(
        "03 prime closure vs truth tables",
        ok,
        f"{agreed}/{trials} agreed in {elapsed:.1f} s",
    )


def test_04_update_sound_in_every_world():
    rng = random.Random(40917)
    started = time.perf_counter()
    checked = 0
    attempts = 0
    prime_after = world_sound = 0
    while checked < 200 and attempts < 1000:
        attempts += 1
        pool = [Term(f"q{i}") for i in range(rng.randint(2, 10))]
        clauses = []
        for _ in range(rng.randint(1, 10)):
            lits = tuple(
                Literal(rng.choice(pool), rng.random() < 0.5)
                for _ in range(rng.randint(1, 4))
            )
            c = normalize_clause(lits)
            if c is not None:
                clauses.append(c)
        state = prime_closure(clauses)
        if state.inconsistent:
            continue
        checked += 1
        effects = [
            Literal(atom, rng.random() < 0.5)
            for atom in rng.sample(pool, rng.randint(1, min(3, len(pool))))
        ]
        updated = update(state, effects)
        if prime_closure(tuple(updated)) == updated:
            prime_after += 1
        beliefs = initial_beliefs(state)
        spec = ActionSpec(
            Term("tick"),
            EMPTY_PROPERTY,
            (ActionCase(EMPTY_PROPERTY, effects),),
        )
        progressed, anomalies = progress_beliefs(beliefs, spec, Term("tick"))
        if not anomalies and progressed.satisfies_all(updated):
            world_sound += 1
    elapsed = time.perf_counter() - started
    ok = checked == 200 and prime_after == 200 and world_sound == 200 and elapsed < 60.0
    verdict(
        "04 update sound in every world",
        ok,
        f"{checked} episodes, {prime_after} prime, {world_sound} world-sound, "
        f"{elapsed:.1f} s",
    )


def test_05_oracle_shadowed_runs():
    runs = []
    for k in range(3, 11):
        runs.append((emit_maze_domain(k), MAZE_EXPLORER, maze_query(k), MazeEnv(k), True))
    runs.append((emit_maze_domain(5), MAZE_EXPLORER, "explore([2,4],[])", MazeEnv(5), False))
    runs.append((emit_maze_domain(7), MAZE_EXPLORER, "explore([3,2],[])", MazeEnv(7), False))
    for variant in ("ground2", "ground3"):
        for seed in range(20):
            world = generate_wumpus(WumpusConfig(size=4, seed=seed))
            runs.append(
                (
                    emit_wumpus_domain(world, variant),
                    wumpus_agent(variant),
                    WUMPUS_QUERY,
                    WumpusEnv(world),
                    True,
                )
            )
    failures = []
    queries = steps = complete = 0
    outcomes_ok = True
    for domain_text, program_text, query, env, expect_success in runs:
        dom = parse_domain(domain_text, "<domain>")
        prog = parse_program(program_text, dom, "<program>")
        mirror = OracleMirror(dom)
        out = solve(parse_query(query, dom), prog, dom, env, observer=mirror)
        failures.extend(mirror.failures)
        queries += mirror.checked_queries
        steps += mirror.checked_steps
        complete += mirror.checked_complete
        if out.succeeded != expect_success:
            outcomes_ok = False
    ok = (
        len(runs) == 50
        and not failures
        and outcomes_ok
        and queries > 500
        and steps > 200
        and complete > 200
    )
    verdict(
        "05 oracle-shadowed runs",
        ok,
        f"{len(runs)} runs, {queries} query checks, {steps} state checks "
        f"(each for soundness, primeness and exactness), {complete} completeness checks, "
        f"{len(failures)} oracle failures",
    )


def test_06_cautious_agent_survives():
    started = time.perf_counter()
    survived = grabbed = clean = 0
    trials = 20
    for seed in range(trials):
        world = generate_wumpus(WumpusConfig(size=8, seed=seed))
        env = WumpusEnv(world)
        out = solve_text(
            emit_wumpus_domain(world, "ground2"),
            wumpus_agent("ground2"),
            WUMPUS_QUERY,
            env,
        )
        snap = env.snapshot()
        if snap["alive"]:
            survived += 1
        if out.succeeded and snap["carrying"]:
            grabbed += 1
        visited = {(1, 1)}
        for act in snap["log"]:
            if act.functor == "go":
                visited.add(cell_coords(act.args[0]))
        if not visited & world.threats:
            clean += 1
    elapsed = time.perf_counter() - started
    ok = survived == grabbed == clean == trials and elapsed < 120.0
    verdict(
        "06 cautious agent survives",
        ok,
        f"{grabbed}/{trials} grabbed, {survived} survived, {clean} avoided "
        f"every threat, {elapsed:.1f} s",
    )


def test_07_large_boards():
    results = {}
    all_ok = True
    for size, variant in ((16, "ground2"), (16, "ground3"), (32, "ground2")):
        world = generate_wumpus(WumpusConfig(size=size, seed=0))
        env = WumpusEnv(world)
        started = time.perf_counter()
        out = solve_text(
            emit_wumpus_domain(world, variant),
            wumpus_agent(variant),
            WUMPUS_QUERY,
            env,
        )
        elapsed = time.perf_counter() - started
        results[(size, variant)] = (elapsed, out.state.max_belief)
        if not (out.succeeded and env.snapshot()["carrying"] and elapsed < 600.0):
            all_ok = False
    heavier = results[(16, "ground3")][1] > results[(16, "ground2")][1]
    ok = all_ok and heavier
    detail = ", ".join(
        f"{s}x{s} {v}: {t:.1f} s, {m} clauses" for (s, v), (t, m) in results.items()
    )
    verdict("07 large boards", ok, detail)


def test_08_barrier_reaches_exit_code(tmp_path, capsys):
    domain = tmp_path / "maze.alpd"
    domain.write_text(emit_maze_domain(5), encoding="utf-8")
    program = tmp_path / "bad.alp"
    program.write_text("bad :- do(go(2)), fail.\n", encoding="utf-8")
    code = cli.main(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "bad",
            "--env", "maze:5",
        ]
    )
    err = capsys.readouterr().err
    ok = code == 2 and "backtracked across executed action" in err
    with capsys.disabled():
        verdict(
            "08 barrier reaches the exit code",
            ok,
            f"exit {code}, stderr carries the barrier message",
        )
