import hashlib

import pytest
from hypothesis import given, strategies as st

from primelog.envs import (
    MazeEnv,
    ReplayEnv,
    WumpusConfig,
    WumpusEnv,
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
from primelog.terms import FALSE, TRUE, Term, Var, format_term


def go(n):
    return Term("go", (Term(str(n)),))


def cell(r, c):
    return Term("c", (Term(str(r)), Term(str(c))))


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


def test_wumpus_config_rejects_a_negative_threat_count():
    with pytest.raises(ValueError, match="negative"):
        WumpusConfig(size=4, threats=-3)
    assert WumpusConfig(size=4, threats=0).threats == 0


def test_wumpus_config_from_file():
    cfg = WumpusConfig.from_text("# world\nsize = 4\nthreats=2\nseed = 9\nsolvable = false\n", "w.cfg")
    assert (cfg.size, cfg.threats, cfg.seed, cfg.solvable) == (4, 2, 9, False)


def test_wumpus_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="^w.cfg:2: unknown wumpus config key 'sise'$"):
        WumpusConfig.from_text("size = 4\nsise = 4\n", "w.cfg")


# ---------------------------------------------------------------- worlds


def test_generate_is_deterministic_per_seed():
    a = generate_wumpus(WumpusConfig(size=6, seed=3))
    b = generate_wumpus(WumpusConfig(size=6, seed=3))
    c = generate_wumpus(WumpusConfig(size=6, seed=4))
    assert (a.gold, a.threats) == (b.gold, b.threats)
    assert (a.gold, a.threats) != (c.gold, c.threats)


def test_generate_default_threat_worlds_are_pinned():
    # Gold and threats of every world for seeds 0-9 at sizes 4, 8 and 16,
    # each with the default threat count.
    text = "".join(
        f"{size} {seed} {w.gold} {sorted(w.threats)}\n"
        for size in (4, 8, 16)
        for seed in range(10)
        for w in [generate_wumpus(WumpusConfig(size=size, seed=seed))]
    )
    assert text.startswith("4 0 (4, 1) [(4, 3)]\n4 1 (2, 1) [(3, 4)]\n")
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "07343019dfc123e9e0c7e0a2f3c0aeb4f8412e6aa13a0e3ee6197138d8abd4ea"


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


# sha256 of every emitted text, as the generators wrote them when they
# still built and printed terms: wumpus domains by (variant, size, seed),
# maze domains by ("maze", length).
EMITTED_DIGESTS = {
    ('ground2', 4, 0): "a934067e9d8165033ad1d8aa566a7476fd35bf5d682e6b1c7ac3354a6ed5f1f2",
    ('ground2', 4, 1): "25f8e81b8ad373d6c84e7cbc3370fcfe564e8575c4834f9f96897cacf73a0f9c",
    ('ground2', 4, 2): "436e3757eedd0bc408f49a84778308c8de5c9cf127279382502ba57e3c6fad06",
    ('ground2', 8, 0): "b87e62f1833905d93fad93078448df2f1858e5a5b430814ce6b19faeed95e5c6",
    ('ground2', 8, 1): "08977cab708f80aab9adaf70f3df6c7be0360ba55ad200d158c7332fb011ec40",
    ('ground2', 8, 2): "84e73aa4ed68ab73f31a0d0cc96ea642444cba133765ab12ea5545316a641378",
    ('ground2', 16, 0): "fe55fdfef9fd783bf23b6aebd4fd5c33297e4d51d3b96a783558462736fa3e86",
    ('ground2', 16, 1): "5bd4162ec116694279c5bb8d7b016e85c78df61fcde70c02b0cef4c55a71768c",
    ('ground2', 16, 2): "65c233784042d0b3aa0fdfbb144a17e85e5a87fc9d11c8eb4532899bad819e66",
    ('ground2', 24, 0): "63dcf47f719ad9663bc490d7f45be2c4071cf1e190ea05a169418d81043ab87a",
    ('ground2', 24, 1): "ea2fc6cf32c57d3b2ca86813a4ac7bd169475ac8610190acf5a954c41023b23b",
    ('ground2', 24, 2): "0093f253eddd020de433dbb042d9e9d91a66fee1ad9e492bede1f1df5518aa60",
    ('ground3', 4, 0): "5b80c0bf565c43784510d99ad95bde06e30c41dbaac98d8ac3e934d8ec5c8c54",
    ('ground3', 4, 1): "5cca3cf42a82493fe88223de02399f1cd50817677a93810029277af714005b46",
    ('ground3', 4, 2): "ce386771674bb764e7bd5e91d349a706cb7c83fd688cdaa2f83191d7e943fcd2",
    ('ground3', 8, 0): "39bdb54651d3dfc44d81d83cb1151498e0a3c69070dd7415bf1680b3a0ec941d",
    ('ground3', 8, 1): "d8c8d8239882498b74c86f3c8596058331810106b6414b4345d555f16457905c",
    ('ground3', 8, 2): "ae5ff25431bf64c19bafa8f981d530c2964e91b182e9b36e814c5cc35e48901b",
    ('ground3', 16, 0): "6eae8ecb21bf90ec4ab341ef2e170f6e139768c4f93c6f1aac85bbf089ff59b5",
    ('ground3', 16, 1): "adc3e471ee9c91e43072f034120324a344d5baf8e90569df260f0d7cd187f036",
    ('ground3', 16, 2): "0417dc0a2f391ef4498f1f8ef4ef5efa7d56eb08f6abc13d9c3eaf0590910ef7",
    ('ground3', 24, 0): "4293cb9afe2c01eb4a5a1792f643955f4c57869c415dbedb8b15320d402c3e1c",
    ('ground3', 24, 1): "dc742006320f73f7584be2418d2e89035077ecce793849f0adcc2f4625d84f2c",
    ('ground3', 24, 2): "808f075a89caa494179af41aae3effebd86ec12147743d41e8d7f5cb86a700f1",
    ('maze', 5): "43fa730e1f9b507695c7fc4fb29f85c80201fad230af5011b0eadbc3583c125a",
    ('maze', 110): "be7d4b250f3eb494fd4433ea64eeee8825568b4fe561d5356765e428c16f510d",
}


@pytest.mark.parametrize("key", list(EMITTED_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_emitted_domain_texts_are_pinned(key):
    if key[0] == "maze":
        text = emit_maze_domain(key[1])
    else:
        variant, size, seed = key
        text = emit_wumpus_domain(generate_wumpus(WumpusConfig(size=size, seed=seed)), variant)
    assert hashlib.sha256(text.encode()).hexdigest() == EMITTED_DIGESTS[key]


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
    # Leading zeros and non-ASCII decimal digits read as `int()` reads
    # them; more than nine significant digits name no cell, and are
    # refused before `int()` is asked to read them.
    assert cell_coords(Term("c", (Term("0003"), Term("٧")))) == (3, 7)
    assert cell_coords(Term("c", (Term("0" * 5000 + "2"), Term("1")))) == (2, 1)
    assert cell_coords(Term("c", (Term("٠" * 5000 + "٢"), Term("1")))) == (2, 1)
    assert cell_coords(Term("c", (Term("9" * 5000), Term("1")))) is None
    assert cell_coords(Term("c", (Term("1000000000"), Term("1")))) is None
    assert cell_coords(Term("c", (Var("R"), Term("1")))) is None
