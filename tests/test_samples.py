"""The files under samples/ are snapshots of the built-in emitters; these
tests keep them from drifting and prove each pair actually runs."""

from pathlib import Path

import pytest

from helpers import maze_query
from primelog.envs import (
    MazeEnv,
    WumpusConfig,
    WumpusEnv,
    emit_maze_domain,
    emit_wumpus_domain,
    generate_wumpus,
)
from primelog.interpreter import solve
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.strategies import MAZE_EXPLORER, wumpus_agent

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def read(name):
    return (SAMPLES / name).read_text(encoding="utf-8")


def test_corridor_sample_matches_emitter():
    assert read("corridor5.alpd") == emit_maze_domain(5)
    assert read("explorer.alp") == MAZE_EXPLORER


def test_wumpus_sample_matches_emitter():
    world = generate_wumpus(WumpusConfig(size=4, seed=7))
    assert read("wumpus4.alpd") == emit_wumpus_domain(world, "ground2")
    assert read("cautious.alp") == wumpus_agent("ground2")


@pytest.mark.parametrize(
    "domain_name, program_name, query, make_env",
    [
        ("corridor5.alpd", "explorer.alp", maze_query(5), lambda: MazeEnv(5)),
        (
            "wumpus4.alpd",
            "cautious.alp",
            "run",
            lambda: WumpusEnv(generate_wumpus(WumpusConfig(size=4, seed=7))),
        ),
    ],
)
def test_sample_pair_runs(domain_name, program_name, query, make_env):
    dom = parse_domain(read(domain_name), domain_name)
    prog = parse_program(read(program_name), dom, program_name)
    out = solve(parse_query(query, dom), prog, dom, make_env())
    assert out.succeeded
