"""The benchmark's workloads and the correctness gate every run must pass.

Each workload is one fixed input: a world, the agent program that runs in
it and the query. `setup()` builds it from scratch through the public
API (generation, then parsing), so no parsed structure or cache carries
over from one run to the next. It calls the parser and the generators
through their modules so that a traced run sees them.
"""

import json
from pathlib import Path

from primelog import envs, parser
from primelog.errors import EngineError
from primelog.interpreter import replay
from primelog.strategies import MAZE_EXPLORER, WUMPUS_QUERY, wumpus_agent
from primelog.terms import format_term

HISTORIES = Path(__file__).with_name("expected_histories.json")


class Inputs:
    """What one run needs: the parsed domain, program and query, plus the
    world the environment simulates (None for the corridor)."""

    __slots__ = ("domain", "program", "query", "world")

    def __init__(self, domain, program, query, world=None):
        self.domain = domain
        self.program = program
        self.query = query
        self.world = world


class Corridor:
    """`MazeEnv` corridor of `length` cells, gold in the last but one. The
    query lists the candidate cells in descending order, so the agent
    first tries every far cell, fails its `do(go(Y))` precondition and
    backtracks through `select` before each step it can take."""

    def __init__(self, name, length):
        self.name = name
        self.length = length
        self.params = {"kind": "corridor", "length": length}

    def setup(self):
        domain = parser.parse_domain(envs.emit_maze_domain(self.length), "<corridor>")
        program = parser.parse_program(MAZE_EXPLORER, domain, "<explorer>")
        cells = ",".join(str(c) for c in range(self.length, 1, -1))
        query = parser.parse_query(f"explore([{cells}],[])", domain, "<query>")
        return Inputs(domain, program, query)

    def make_env(self, inputs):
        return envs.MazeEnv(self.length)

    def goal_problems(self, inputs, snapshot):
        gold = self.length - 1
        if snapshot["position"] != gold:
            return [f"agent ended in cell {snapshot['position']}, gold is in {gold}"]
        return []


class Wumpus:
    """Generated `size`x`size` wumpus world with the shipped cautious agent."""

    def __init__(self, name, size, variant, world_seed):
        self.name = name
        self.size = size
        self.variant = variant
        self.world_seed = world_seed
        self.params = {
            "kind": "wumpus",
            "size": size,
            "variant": variant,
            "world_seed": world_seed,
        }

    def setup(self):
        config = envs.WumpusConfig(size=self.size, seed=self.world_seed)
        world = envs.generate_wumpus(config)
        text = envs.emit_wumpus_domain(world, self.variant)
        domain = parser.parse_domain(text, f"<wumpus-{self.variant}>")
        program = parser.parse_program(wumpus_agent(self.variant), domain, "<agent>")
        query = parser.parse_query(WUMPUS_QUERY, domain, "<query>")
        return Inputs(domain, program, query, world)

    def make_env(self, inputs):
        return envs.WumpusEnv(inputs.world)

    def goal_problems(self, inputs, snapshot):
        problems = []
        if not (snapshot["alive"] and snapshot["carrying"]):
            problems.append(
                f"agent ended alive={snapshot['alive']} carrying={snapshot['carrying']}"
            )
        # Independent of the belief engine: every cell the agent stood on
        # must be one a cautious explorer can prove safe.
        world = inputs.world
        safe = envs.provably_safe_cells(world.size, world.threats)
        visited = [world.start] + [
            envs.cell_coords(a.args[0]) for a in snapshot["log"] if a.functor == "go"
        ]
        unsafe = sorted({c for c in visited if c not in safe})
        if unsafe:
            problems.append(f"agent visited cells not provably safe: {unsafe}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Corridor("corridor-backtrack", 110),
        Wumpus("wumpus-g2", 24, "ground2", 0),
        Wumpus("wumpus-g3", 16, "ground3", 0),
    )
}


def histories(state):
    """Action and sense histories of a run, one string per event."""
    return {
        "actions": [format_term(a) for a in state.history],
        "senses": [f"{f}={format_term(r)}" for f, r, _ in state.sigma],
    }


def load_expected():
    return json.loads(HISTORIES.read_text(encoding="utf-8"))


def _first_difference(got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"event {i}: {g} instead of {w}"
    return f"{len(got)} events instead of {len(want)}"


def gate(workload, inputs, outcome, snapshot, expected):
    """Reasons the run fails the correctness gate; empty when it passes.

    A run passes when it succeeds, reaches the goal in the simulated
    world, repeats the recorded action and sense histories exactly, and
    `replay` of its event log rebuilds its final belief state.
    """
    if outcome.status != "success":
        return [f"status {outcome.status}"]
    problems = workload.goal_problems(inputs, snapshot)
    got = histories(outcome.state)
    for kind in ("actions", "senses"):
        if got[kind] != expected[kind]:
            problems.append(
                f"{kind} differ from the recorded history: "
                + _first_difference(got[kind], expected[kind])
            )
    try:
        replayed = replay(inputs.domain, outcome.state.events)
    except EngineError as error:
        problems.append(f"replay failed: {error}")
    else:
        if replayed != outcome.state.belief:
            problems.append("replay of the event log gives another belief state")
    return problems
