import pytest
from hypothesis import given, strategies as st

from primelog.envs import (
    MazeEnv,
    ReplayEnv,
    WumpusConfig,
    WumpusEnv,
    cell,
    cell_coords,
    emit_maze_domain,
    emit_wumpus_domain,
    format_replay_script,
    generate_wumpus,
    _grid_neighbours,
    provably_safe_cells,
)
from primelog.errors import EngineError, EnvironmentRejected
from primelog.parser import parse_domain
from primelog.terms import FALSE, TRUE, Term, format_term


def go(n):
    return Term("go", (Term(str(n)),))


def go_cell(r, c):
    return Term("go", (cell(r, c),))


# ---------------------------------------------------------------- maze


def test_maze_accepts_adjacent_moves_only():
    env = MazeEnv(5)
    env.execute(go(2))
    env.execute(go(3))
    env.execute(go(2))
    assert env.position == 2
    with pytest.raises(EnvironmentRejected):
        env.execute(go(4))
    with pytest.raises(EnvironmentRejected):
        env.execute(go(0))


def test_maze_has_no_sensors():
    with pytest.raises(EngineError):
        MazeEnv(3).sense("feel")


def test_maze_domain_matches_env():
    dom = parse_domain(emit_maze_domain(5), "maze.alpd")
    facts = sorted(str(c) for c in dom.initial)
    assert facts == ["at(agent,1)", "at(gold,4)"]
    assert dom.actions == {"go": 1}


def test_maze_domain_minimum_size():
    dom = parse_domain(emit_maze_domain(2), "maze.alpd")
    assert "at(gold,1)" in [str(c) for c in dom.initial]


# ---------------------------------------------------------------- config


def test_wumpus_config_defaults():
    cfg = WumpusConfig()
    assert (cfg.size, cfg.threats, cfg.seed, cfg.solvable) == (8, 6, 0, True)


def test_wumpus_config_threat_default_scales():
    assert WumpusConfig(size=4).threats == 1
    assert WumpusConfig(size=16).threats == 25


def test_wumpus_config_rejects_tiny_grid():
    with pytest.raises(ValueError):
        WumpusConfig(size=1)


def test_wumpus_config_from_file(tmp_path):
    p = tmp_path / "w.cfg"
    p.write_text("# world\nsize = 4\nthreats=2\nseed = 9\nsolvable = false\n")
    cfg = WumpusConfig.from_file(p)
    assert (cfg.size, cfg.threats, cfg.seed, cfg.solvable) == (4, 2, 9, False)


def test_wumpus_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "w.cfg"
    p.write_text("sise = 4\n")
    with pytest.raises(ValueError, match="sise"):
        WumpusConfig.from_file(p)


# ---------------------------------------------------------------- worlds


def test_generate_is_deterministic_per_seed():
    a = generate_wumpus(WumpusConfig(size=6, seed=3))
    b = generate_wumpus(WumpusConfig(size=6, seed=3))
    c = generate_wumpus(WumpusConfig(size=6, seed=4))
    assert (a.gold, a.threats) == (b.gold, b.threats)
    assert (a.gold, a.threats) != (c.gold, c.threats)


def test_generate_keeps_start_and_gold_clear():
    for seed in range(20):
        w = generate_wumpus(WumpusConfig(size=5, seed=seed))
        assert w.gold != (1, 1)
        assert (1, 1) not in w.threats
        assert w.gold not in w.threats


def test_generate_solvable_worlds_are_solvable():
    for seed in range(20):
        w = generate_wumpus(WumpusConfig(size=5, seed=seed))
        assert w.gold in provably_safe_cells(w.size, w.threats, w.start)


def test_provably_safe_hand_case():
    # 3x3, threat at centre. Only (1,1) is smell-free, so it certifies its
    # two neighbours and nothing beyond them is ever provable: both smell.
    safe = provably_safe_cells(3, {(2, 2)}, (1, 1))
    assert safe == {(1, 1), (1, 2), (2, 1)}


def test_provably_safe_blocked_gold():
    # Threats sealing off the far corner make it unreachable.
    threats = {(1, 2), (2, 1), (2, 2)}
    safe = provably_safe_cells(3, threats, (1, 1))
    assert safe == {(1, 1)}


def _fixpoint_safe_cells(size, threats, start=(1, 1)):
    """The reference: `provably_safe_cells` as it was, restarting a full
    reachability pass every time the safe set grows."""
    if start in threats:
        return set()
    safe = {start}
    while True:
        frontier = [start]
        reachable = {start}
        while frontier:
            here = frontier.pop()
            for nb in _grid_neighbours(*here, size):
                if nb in safe and nb not in reachable:
                    reachable.add(nb)
                    frontier.append(nb)
        grew = False
        for here in reachable:
            if any(nb in threats for nb in _grid_neighbours(*here, size)):
                continue
            for nb in _grid_neighbours(*here, size):
                if nb not in safe:
                    safe.add(nb)
                    grew = True
        if not grew:
            return reachable


@st.composite
def _boards(draw):
    size = draw(st.integers(1, 12))
    cells = st.tuples(st.integers(1, size), st.integers(1, size))
    threats = draw(st.frozensets(cells, max_size=size * size // 3))
    return size, threats, draw(cells)


@given(_boards())
def test_provably_safe_cells_agrees_with_the_fixpoint_reference(board):
    size, threats, start = board
    assert provably_safe_cells(size, threats, start) == _fixpoint_safe_cells(size, threats, start)


# ---------------------------------------------------------------- wumpus env


def world3(threats=((2, 2),), gold=(3, 3)):
    cfg = WumpusConfig(size=3, threats=len(threats), seed=0, solvable=False)
    w = generate_wumpus(cfg)
    return type(w)(config=cfg, gold=gold, threats=frozenset(threats))


def test_wumpus_movement_and_grab():
    env = WumpusEnv(world3(threats=()))
    env.execute(go_cell(1, 2))
    env.execute(go_cell(1, 3))
    env.execute(go_cell(2, 3))
    env.execute(go_cell(3, 3))
    env.execute(Term("grab"))
    snap = env.snapshot()
    assert snap["carrying"] is True
    assert snap["alive"] is True


def test_wumpus_rejects_diagonal_and_distant_moves():
    env = WumpusEnv(world3())
    with pytest.raises(EnvironmentRejected):
        env.execute(go_cell(2, 2 + 1))
    with pytest.raises(EnvironmentRejected):
        env.execute(go_cell(1, 1))


def test_wumpus_grab_needs_gold_here():
    env = WumpusEnv(world3())
    with pytest.raises(EnvironmentRejected):
        env.execute(Term("grab"))


def test_walking_into_threat_is_acknowledged_then_fatal():
    env = WumpusEnv(world3())
    env.execute(go_cell(1, 2))
    env.execute(go_cell(2, 2))  # acknowledged: the move happens
    assert env.snapshot()["alive"] is False
    with pytest.raises(EnvironmentRejected):
        env.execute(go_cell(2, 1))
    with pytest.raises(EnvironmentRejected):
        env.sense("perceiveSmell")


def test_smell_reflects_neighbouring_threats():
    env = WumpusEnv(world3())
    assert env.sense("perceiveSmell") is FALSE  # (1,1): neighbours (1,2),(2,1)
    env.execute(go_cell(1, 2))
    assert env.sense("perceiveSmell") is TRUE  # neighbour (2,2) is a threat


def test_unknown_sensor_is_an_engine_error():
    with pytest.raises(EngineError):
        WumpusEnv(world3()).sense("perceiveBreeze")


# ---------------------------------------------------------------- emitters


def test_ground2_domain_shape():
    w = world3()
    dom = parse_domain(emit_wumpus_domain(w, "ground2"), "w.alpd")
    assert dom.actions == {"go": 1, "grab": 0}
    assert list(dom.sensors) == ["perceiveSmell"]
    inits = [str(c) for c in dom.initial]
    assert "at(agent,c(1,1))" in inits
    assert "at(gold,c(3,3))" in inits
    assert "-threatAt(c(1,1))" in inits
    assert len(inits) == 3


def test_ground3_initial_carries_connectivity():
    w = world3()
    dom = parse_domain(emit_wumpus_domain(w, "ground3"), "w.alpd")
    conn = [c for c in dom.initial if str(c).startswith("conn(")]
    # 3x3 grid: 2*2*3*2 = 24 directed adjacencies
    assert len(conn) == 24
    assert len(list(dom.initial)) == 24 + 3


def test_ground2_and_ground3_agree_on_adjacency():
    w = world3()
    d2 = parse_domain(emit_wumpus_domain(w, "ground2"), "w2.alpd")
    d3 = parse_domain(emit_wumpus_domain(w, "ground3"), "w3.alpd")
    adj2 = set()
    for clause in d2.aux_program.clauses:
        if clause.head.functor == "adj":
            a, b = clause.head.args
            adj2.add((cell_coords(a), cell_coords(b)))
    conn3 = set()
    for pc in d3.initial:
        lit = pc.literals[0]
        if lit.fluent.functor == "conn":
            a, b = lit.fluent.args
            conn3.add((cell_coords(a), cell_coords(b)))
    assert adj2 == conn3


def test_smell_axiom_covers_every_cell():
    w = world3()
    dom = parse_domain(emit_wumpus_domain(w, "ground2"), "w.alpd")
    axiom = dom.sensor_axioms["perceiveSmell"]
    true_cases = [c for c in axiom.cases if c.result == TRUE]
    false_cases = [c for c in axiom.cases if c.result == FALSE]
    assert len(true_cases) == 9
    assert len(false_cases) == 9


def test_variant_must_be_known():
    with pytest.raises(ValueError):
        emit_wumpus_domain(world3(), "ground4")


# ---------------------------------------------------------------- replay env


def test_replay_env_plays_back_a_script():
    events = [
        ("act", go(2), ()),
        ("sense", "feel", TRUE),
        ("act", go(3), ()),
    ]
    env = ReplayEnv(events)
    env.execute(go(2))
    assert env.sense("feel") is TRUE
    env.execute(go(3))
    assert env.snapshot()["cursor"] == 3


def test_replay_env_rejects_divergence():
    env = ReplayEnv([("act", go(2), ())])
    with pytest.raises(EnvironmentRejected, match="expected"):
        env.execute(go(3))


def test_replay_env_rejects_extra_steps():
    env = ReplayEnv([])
    with pytest.raises(EnvironmentRejected):
        env.execute(go(2))


def test_replay_env_rejects_action_when_sensing_expected():
    env = ReplayEnv([("sense", "feel", TRUE)])
    with pytest.raises(EnvironmentRejected):
        env.execute(go(2))


@pytest.mark.parametrize(
    "events, call, message",
    [
        ([], lambda env: env.execute(go(2)),
         "replay script expected end of script, got action go(2)"),
        ([], lambda env: env.sense("feel"),
         "replay script expected end of script, got sense feel"),
        ([("sense", "feel", TRUE)], lambda env: env.execute(go(2)),
         "replay script expected sense feel, got action go(2)"),
        ([("act", go(2), ())], lambda env: env.sense("feel"),
         "replay script expected act go(2), got sense feel"),
        ([("act", go(2), ())], lambda env: env.execute(go(3)),
         "replay script expected act go(2), got action go(3)"),
        ([("sense", "feel", TRUE)], lambda env: env.sense("smell"),
         "replay script expected sense feel, got sense smell"),
    ],
)
def test_replay_env_rejection_messages(events, call, message):
    env = ReplayEnv(events)
    with pytest.raises(EnvironmentRejected) as info:
        call(env)
    assert str(info.value) == message
    assert env.snapshot()["cursor"] == 0


def test_replay_script_round_trip():
    events = [
        ("act", go_cell(1, 2), ()),
        ("sense", "perceiveSmell", FALSE),
        ("act", Term("grab"), ()),
    ]
    text = format_replay_script(events)
    env = ReplayEnv.from_script(text)
    env.execute(go_cell(1, 2))
    assert env.sense("perceiveSmell") == FALSE
    env.execute(Term("grab"))


def test_replay_script_is_readable():
    text = format_replay_script([("act", go(2), ()), ("sense", "feel", TRUE)])
    assert "did(go(2))." in text
    assert "saw(feel, true)." in text


# ---------------------------------------------------------------- cells


def test_cell_round_trip():
    t = cell(3, 7)
    assert format_term(t) == "c(3,7)"
    assert cell_coords(t) == (3, 7)
    assert cell_coords(Term("q", (Term("1"), Term("2")))) is None
    assert cell_coords(Term("c", (Term("x"), Term("2")))) is None
