"""Environments: the ground truth an agent program runs against.

An environment implements two calls. `execute(action)` either acknowledges
a ground action (returns None) or raises EnvironmentRejected; once
acknowledged the action has happened and cannot be undone. `sense(functor)`
answers a sense fluent with a ground term. `snapshot()` exposes the true
state for tests and instrumentation; agents never see it.
"""

import random
from dataclasses import dataclass, field

from .errors import EngineError, EnvironmentRejected
from .terms import FALSE, TRUE, Term, format_term


def board_number(term):
    """The value of a numeral of at most nine significant digits, as many
    as a board side or cell needs, or None: `int()` reads no longer one."""
    if term.__class__ is not Term or term.args or not term.functor.isdecimal():
        return None
    digits = term.functor
    if not digits.isascii():  # a zero of any script is a leading zero
        digits = "".join(map(str, map(int, digits)))
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) <= 9 else None


# The most digits CPython's `int()` reads from a string by default.
INT_DIGITS = 4300


def integer(text, what):
    """The integer `text` spells, or None if it spells none. One of more
    than INT_DIGITS digits is refused, by its digit count before `int()`
    reads it, as too long (a ValueError that names `what`)."""
    digits = sum(map(str.isdecimal, text))
    if digits > INT_DIGITS:
        raise ValueError(f"{what} is too long: {digits} digits, at most {INT_DIGITS}")
    try:
        return int(text)
    except ValueError:
        return None


def cell_coords(term):
    """(row, col) of a c(R,C) term, or None if it is not one."""
    if isinstance(term, Term) and term.functor == "c" and len(term.args) == 2:
        coords = tuple(map(board_number, term.args))
        return None if None in coords else coords
    return None


def _grid_neighbours(row, col, size):
    for r, c in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
        if 1 <= r <= size and 1 <= c <= size:
            yield r, c


# ---------------------------------------------------------------- maze


class MazeEnv:
    """A corridor of cells 1..k. The agent starts in cell 1; go(Y) is
    legal between adjacent cells. There is nothing to sense."""

    def __init__(self, length):
        if length < 2:
            raise ValueError("a maze needs at least 2 cells")
        self.length = length
        self.position = 1
        self.log = []

    def execute(self, action):
        if action.functor == "go" and len(action.args) == 1:
            cell_no = board_number(action.args[0]) or 0  # 0: it names no cell
            if 1 <= cell_no <= self.length and abs(cell_no - self.position) == 1:
                self.position = cell_no
                self.log.append(action)
                return
        raise EnvironmentRejected(
            f"maze rejected {format_term(action)} (agent is in cell {self.position})"
        )

    def sense(self, functor):
        raise EngineError(f"the maze has no sensor named {functor}")

    def snapshot(self):
        return {"position": self.position, "log": tuple(self.log)}


def emit_maze_domain(length):
    """Domain text for a corridor maze: the agent in cell 1, gold one
    cell from the far end, full adjacency both ways."""
    if length < 2:
        raise ValueError("a maze needs at least 2 cells")
    gold = max(1, length - 1)
    lines = [
        "fluents([at/2]).",
        "actions([go/1]).",
        "",
        f"initial_state([at(agent,1), at(gold,{gold})]).",
        "",
        "action(go(Y),",
        "  [at(agent,X), adj(X,Y)],",
        "  [case([], [at(agent,Y), -at(agent,X)])]).",
        "",
    ]
    pairs = []
    for i in range(1, length):
        pairs.append(f"adj({i},{i + 1}).")
        pairs.append(f"adj({i + 1},{i}).")
    lines.extend(pairs)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- wumpus


@dataclass(frozen=True)
class WumpusConfig:
    """Parameters of a generated wumpus world.

    Sizes from 4 to 32 are the supported envelope; 2 and 3 work but are
    cramped. `threats` defaults to about a tenth of the board. With
    `solvable` set, generation resamples until the gold is provably
    reachable for a cautious agent (never entering a cell it cannot prove
    safe), so generated instances are fair by construction.
    """

    size: int = 8
    threats: int | None = None
    seed: int = 0
    solvable: bool = True

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("wumpus worlds need size >= 2")
        if self.threats is None:
            object.__setattr__(self, "threats", max(1, (self.size * self.size) // 10))
        if self.threats < 0:
            raise ValueError(f"the threat count cannot be negative, not {self.threats}")
        free = self.size * self.size - 2
        if self.threats > free:
            raise ValueError(
                f"{self.threats} threats do not fit a {self.size}x{self.size} board"
            )

    @classmethod
    def from_text(cls, text, path, **given):
        """Read the `key = value` lines of the file `path`, whose text is
        `text`; # starts a comment. `given` values override the file's."""
        mapping = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip(), lineno
        kwargs = {}
        for key, (raw, lineno) in mapping.items():
            if key in ("size", "threats", "seed"):
                kwargs[key] = integer(raw, f"{path}:{lineno}: {key}")
                if kwargs[key] is None:
                    raise ValueError(f"{path}:{lineno}: {key} must be an integer, not {raw!r}")
            elif key == "solvable":
                if raw.lower() not in ("true", "false"):
                    raise ValueError(f"{path}:{lineno}: solvable must be true or false, not {raw!r}")
                kwargs[key] = raw.lower() == "true"
            else:
                raise ValueError(f"{path}:{lineno}: unknown wumpus config key {key!r}")
        kwargs.update(given)
        try:
            return cls(**kwargs)
        except ValueError as e:  # the size is checked first, then the threats
            key = "size" if kwargs.get("size", cls.size) < 2 else "threats"
            if key in given or key not in mapping:
                raise
            raise ValueError(f"{path}:{mapping[key][1]}: {e}") from None


@dataclass(frozen=True)
class WumpusWorld:
    config: WumpusConfig
    gold: tuple
    threats: frozenset = field(default_factory=frozenset)

    @property
    def size(self):
        return self.config.size

    @property
    def start(self):
        return (1, 1)


def provably_safe_cells(size, threats, start=(1, 1)):
    """The cells a cautious agent can ever visit: the start, and every
    neighbour of a visitable cell that smells nothing. One worklist pass,
    so it costs linear time in the cells it returns."""
    if start in threats:
        return set()
    safe = {start}
    work = [start]
    while work:
        neighbours = list(_grid_neighbours(*work.pop(), size))
        if any(nb in threats for nb in neighbours):
            continue
        for nb in neighbours:
            if nb not in safe:
                safe.add(nb)
                work.append(nb)
    return safe


MAX_ATTEMPTS = 1000


def generate_wumpus(config):
    """Sample a world for the given configuration. With `solvable` set,
    rejection-samples until the gold lies in the provably safe region."""
    rng = random.Random(config.seed)
    size = config.size
    cells = [(r, c) for r in range(1, size + 1) for c in range(1, size + 1)]
    start = (1, 1)
    for _ in range(MAX_ATTEMPTS):
        gold = start
        while gold == start:
            gold = cells[rng.randrange(len(cells))]
        candidates = [c for c in cells if c != start and c != gold]
        threats = frozenset(rng.sample(candidates, config.threats))
        if not config.solvable or gold in provably_safe_cells(size, threats):
            return WumpusWorld(config, gold, threats)
    raise ValueError(
        f"no solvable {size}x{size} world with {config.threats} threats found "
        f"in {MAX_ATTEMPTS} attempts (seed {config.seed})"
    )


class WumpusEnv:
    """Ground truth for one wumpus world.

    Moving is legal between grid neighbours. Walking into a threat cell is
    acknowledged (the world does not protect the agent) and kills: every
    later action or sensing attempt is rejected. grab succeeds exactly
    when the agent stands on the gold. perceiveSmell answers true when a
    grid neighbour of the agent's cell holds a threat.
    """

    def __init__(self, world):
        self.world = world
        self.position = world.start
        self.alive = True
        self.carrying = False
        self.log = []

    def _reject(self, action, why):
        raise EnvironmentRejected(f"wumpus world rejected {format_term(action)}: {why}")

    def execute(self, action):
        if not self.alive:
            self._reject(action, "the agent is dead")
        if action.functor == "go" and len(action.args) == 1:
            target = cell_coords(action.args[0])
            if target is None:
                self._reject(action, "not a board cell")
            if target not in _grid_neighbours(*self.position, self.world.size):
                self._reject(
                    action, f"not adjacent to c({self.position[0]},{self.position[1]})"
                )
            self.position = target
            self.log.append(action)
            if target in self.world.threats:
                self.alive = False
            return
        if action.functor == "grab" and not action.args:
            if self.carrying:
                self._reject(action, "the gold is already taken")
            if self.position != self.world.gold:
                self._reject(action, "no gold here")
            self.carrying = True
            self.log.append(action)
            return
        self._reject(action, "unknown action")

    def sense(self, functor):
        if functor != "perceiveSmell":
            raise EngineError(f"the wumpus world has no sensor named {functor}")
        if not self.alive:
            raise EnvironmentRejected("a dead agent senses nothing")
        smelly = any(
            nb in self.world.threats
            for nb in _grid_neighbours(*self.position, self.world.size)
        )
        return TRUE if smelly else FALSE

    def snapshot(self):
        return {
            "position": self.position,
            "alive": self.alive,
            "carrying": self.carrying,
            "gold": self.world.gold,
            "threats": set(self.world.threats),
            "log": tuple(self.log),
        }


def _smell_cases(size):
    out = []
    for r in range(1, size + 1):
        for c in range(1, size + 1):
            nbs = [f"c({a},{b})" for a, b in _grid_neighbours(r, c, size)]
            here = f"[at(agent,c({r},{c}))]"
            disj = ", ".join(f"threatAt({n})" for n in nbs)
            units = ", ".join(f"-threatAt({n})" for n in nbs)
            out.append(f"  case(true,  {here}, [[{disj}]]),")
            out.append(f"  case(false, {here}, [{units}]),")
    out[-1] = out[-1].rstrip(",")
    return out


def emit_wumpus_domain(world, variant):
    """Domain text for a generated world.

    `ground2` keeps the board wiring as auxiliary adj/2 facts; `ground3`
    writes it into the initial belief state as conn/2 fluent units, which
    the agent then reads back with `?(conn(X,Y))`.
    """
    if variant not in ("ground2", "ground3"):
        raise ValueError(f"unknown wumpus domain variant {variant!r}")
    size = world.size
    gold = "c({},{})".format(*world.gold)
    start = "c({},{})".format(*world.start)

    fluents = ["at/2", "threatAt/1", "carrying/0"]
    if variant == "ground3":
        fluents.append("conn/2")
    initial = [
        f"at(agent,{start})",
        f"at(gold,{gold})",
        f"-threatAt({start})",
    ]
    wiring = []
    for r in range(1, size + 1):
        for c in range(1, size + 1):
            here = f"c({r},{c})"
            for a, b in _grid_neighbours(r, c, size):
                there = f"c({a},{b})"
                if variant == "ground3":
                    initial.append(f"conn({here},{there})")
                else:
                    wiring.append(f"adj({here},{there}).")
    link = "conn(X,Y)" if variant == "ground3" else "adj(X,Y)"

    lines = [
        f"% {size}x{size} wumpus world, seed {world.config.seed}, {variant} wiring.",
        f"fluents([{', '.join(fluents)}]).",
        "actions([go/1, grab/0]).",
        "sensors([perceiveSmell]).",
        "",
        "initial_state([",
    ]
    lines.extend(f"  {entry}," for entry in initial[:-1])
    lines.append(f"  {initial[-1]}")
    lines.append("]).")
    lines.extend(
        [
            "",
            "action(go(Y),",
            f"  [at(agent,X), {link}],",
            "  [case([], [at(agent,Y), -at(agent,X)])]).",
            "",
            "action(grab,",
            "  [at(agent,X), at(gold,X)],",
            "  [case([], [carrying])]).",
            "",
            "sensor_axiom(perceiveSmell(_), [",
        ]
    )
    lines.extend(_smell_cases(size))
    lines.append("]).")
    if wiring:
        lines.append("")
        lines.extend(wiring)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- replay


class ReplayEnv:
    """Deterministic playback of a recorded run. Actions must arrive in
    the recorded order; senses answer from the recording. Any deviation
    is rejected with a description of what was expected."""

    def __init__(self, events):
        self.events = tuple(events)
        self.cursor = 0
        self.log = []

    @classmethod
    def from_script(cls, text, filename="<script>"):
        from .parser import parse_ground_terms

        events = []
        for term in parse_ground_terms(text, filename):
            if term.functor == "did" and len(term.args) == 1:
                events.append(("act", term.args[0]))
            elif term.functor == "saw" and len(term.args) == 2:
                sensor = term.args[0]
                if sensor.args:
                    raise ValueError(
                        f"{filename}: sensor name must be a plain atom, "
                        f"not {format_term(sensor)}"
                    )
                events.append(("sense", sensor.functor, term.args[1]))
            else:
                raise ValueError(
                    f"{filename}: replay scripts contain did(Action) and "
                    f"saw(Sensor, Result) entries, not {format_term(term)}"
                )
        return cls(events)

    def _advance(self, kind, subject, got):
        """The next recorded event, consumed, when it is the `kind` event
        of `subject`; otherwise reject `got` with what the script expected."""
        want = "end of script"
        if self.cursor < len(self.events):
            expected = self.events[self.cursor]
            if expected[:2] == (kind, subject):
                self.cursor += 1
                return expected
            shown = expected[1] if expected[0] == "sense" else format_term(expected[1])
            want = f"{expected[0]} {shown}"
        raise EnvironmentRejected(f"replay script expected {want}, got {got}")

    def execute(self, action):
        self._advance("act", action, f"action {format_term(action)}")
        self.log.append(action)

    def sense(self, functor):
        return self._advance("sense", functor, f"sense {functor}")[2]

    def snapshot(self):
        return {"cursor": self.cursor, "log": tuple(self.log)}


def format_replay_script(events):
    """Write an agent's event log in the replay script syntax."""
    lines = []
    for event in events:
        if event[0] == "act":
            lines.append(f"did({format_term(event[1])}).")
        elif event[0] == "sense":
            lines.append(f"saw({event[1]}, {format_term(event[2])}).")
        else:
            raise ValueError(f"unknown event kind {event[0]!r}")
    return "\n".join(lines) + ("\n" if lines else "")
