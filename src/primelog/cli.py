"""Command line front end.

Three subcommands: `run` executes an agent program against an environment,
`gen-wumpus` writes generated wumpus domains (and optionally the matching
agent program), `bench` times wumpus runs over a size/variant/seed grid
and emits CSV.

Exit codes: 0 the query succeeded, 1 it failed, 2 a runtime fault
(barrier violation, rejected action, budget, sensing contradiction),
3 unusable input (parse errors, bad flags, bad configuration).
"""

import argparse
import csv
import io
import re
import sys
import time
from pathlib import Path

from .envs import (
    MazeEnv,
    ReplayEnv,
    WumpusConfig,
    WumpusEnv,
    board_number,
    emit_wumpus_domain,
    generate_wumpus,
    integer,
)
from .errors import EngineError, ParseError
from .interpreter import DEFAULT_STEP_BUDGET, solve
from .model import resolve_property
from .parser import parse_domain, parse_program, parse_query
from .strategies import wumpus_agent
from .terms import Term, format_term


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _number(text):
    """`envs.integer` for a flag: too long a number is an argparse error."""
    try:
        return integer(text, "the number")
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _int(text):
    """An argparse type: `int`, refusing by its digit count a number
    longer than `int()` reads."""
    number = _number(text)
    if number is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return number


def _step_budget(text):
    """An argparse type: a step budget is an integer of at least 1."""
    budget = _number(text)
    if budget is None or budget < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, not {text!r}")
    return budget


def _build_parser():
    top = _Parser(prog="primelog", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", parser_class=_Parser)

    run = sub.add_parser("run", help="execute an agent program")
    run.add_argument("--program", required=True, help="agent program file (.alp)")
    run.add_argument("--domain", required=True, help="action domain file (.alpd)")
    run.add_argument("--query", required=True, help="goal sequence to resolve")
    run.add_argument(
        "--env",
        required=True,
        help="environment: maze:<k> | wumpus:<n>x<n> | replay:<script>",
    )
    run.add_argument(
        "--seed", type=_int, help="world seed (wumpus; overrides --wumpus-config)"
    )
    run.add_argument(
        "--wumpus-config",
        metavar="FILE",
        help="key = value file overriding the wumpus world parameters",
    )
    run.add_argument("--trace", action="store_true", help="trace goals to stderr")
    run.add_argument(
        "--steps",
        type=_step_budget,
        default=DEFAULT_STEP_BUDGET,
        help="resolution step budget",
    )
    run.add_argument("--out", help="write the report here instead of stdout")

    gen = sub.add_parser("gen-wumpus", help="generate a wumpus domain file")
    gen.add_argument("--size", type=_int, help="board side length")
    gen.add_argument("--threats", type=_int, help="number of threat cells")
    gen.add_argument("--seed", type=_int, help="world seed")
    gen.add_argument(
        "--no-solvable",
        action="store_true",
        help="skip the provable-solvability check when sampling",
    )
    gen.add_argument("--config", metavar="FILE", help="key = value parameter file")
    gen.add_argument(
        "--variant",
        choices=("ground2", "ground3"),
        default="ground2",
        help="board wiring: adj/2 facts or conn/2 fluents",
    )
    gen.add_argument("--out", help="domain file to write (stdout otherwise)")
    gen.add_argument(
        "--agent-out", help="also write the matching cautious agent program"
    )

    bench = sub.add_parser("bench", help="time wumpus runs, emit CSV")
    bench.add_argument(
        "--sizes", required=True, help="comma-separated board sizes, e.g. 4,8"
    )
    bench.add_argument(
        "--variants",
        default="ground2,ground3",
        help="comma-separated wiring variants",
    )
    bench.add_argument("--seeds", default="0", help="comma-separated world seeds")
    bench.add_argument(
        "--steps",
        type=_step_budget,
        default=DEFAULT_STEP_BUDGET,
        help="resolution step budget per run",
    )
    bench.add_argument("--out", help="CSV file to write (stdout otherwise)")
    return top


# ---------------------------------------------------------------- tracing


def _trace_observer(stream):
    def observe(event):
        kind = event[0]
        if kind in ("call", "exit", "redo", "fail"):
            print(f"{kind.upper()} {event[1]}", file=stream)
        elif kind == "exec":
            print(f"EXEC {format_term(event[1])}", file=stream)
            print(f"STATE size={len(event[3])}", file=stream)
        elif kind == "sense":
            print(f"SENSE {event[1]}={format_term(event[2])}", file=stream)
            print(f"STATE size={len(event[3])}", file=stream)
        elif kind == "holds":
            print(f"EXIT ?({resolve_property(event[1], event[2])!r})", file=stream)
        elif kind == "warn":
            print(f"WARN {event[1]}", file=stream)

    return observe


# ---------------------------------------------------------------- run


def _read(path):
    """The text of a file the CLI reads, as UTF-8; a byte-order mark at
    its start is dropped, and a byte that is not UTF-8 is a parse error
    at its line and column."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        text = Path(path).read_text(encoding="utf-8-sig", errors="surrogateescape")
    bad = re.search("[\udc80-\udcff]", text).start()
    line, column = text.count("\n", 0, bad) + 1, bad - text.rfind("\n", 0, bad)
    raise ParseError(f"byte 0x{ord(text[bad]) - 0xDC00:02x} is not UTF-8", line, column, path)


def _wumpus_config(path, **flags):
    """Wumpus parameters from an optional key = value file, overridden by
    the flags given (not None). Unless set, `threats` follows the final
    `size`."""
    given = {key: value for key, value in flags.items() if value is not None}
    if path:
        return WumpusConfig.from_text(_read(path), path, **given)
    return WumpusConfig(**given)


def _selector_number(digits, kind):
    """A selector's number, refused by its digit count before `int()` reads it."""
    number = board_number(Term(digits))
    if number is None and digits.isdecimal():
        raise ValueError(f"{kind} selector needs a number of at most 9 digits, got {len(digits)}")
    return number


def _make_env(args):
    selector = args.env
    if selector.startswith("maze:"):
        rest = selector[len("maze:") :]
        length = _selector_number(rest, "maze")
        if length is None or length < 2:
            raise ValueError(f"maze selector needs a cell count >= 2, got {selector!r}")
        return MazeEnv(length)
    match = re.fullmatch(r"wumpus:(\d+)x(\d+)", selector)
    if match:
        rows, cols = (_selector_number(side, "wumpus") for side in match.groups())
        if rows != cols:
            raise ValueError("wumpus boards are square; use wumpus:<n>x<n>")
        path = args.wumpus_config
        config = _wumpus_config(path, size=None if path else rows, seed=args.seed)
        if config.size != rows:
            raise ValueError(
                f"environment selector says {rows}x{rows} but {path} "
                f"says size={config.size}"
            )
        return WumpusEnv(generate_wumpus(config))
    if selector.startswith("replay:"):
        path = selector[len("replay:") :]
        return ReplayEnv.from_script(_read(path), path)
    raise ValueError(
        f"unknown environment {selector!r}; use maze:<k>, wumpus:<n>x<n>, "
        "or replay:<script>"
    )


def _format_answer(answer):
    if answer is None:
        return "none"
    if not answer:
        return "yes"
    return ", ".join(f"{name} = {format_term(term)}" for name, term in answer.items())


def _format_report(outcome):
    agent = outcome.state
    lines = [
        f"status: {outcome.status}",
        f"answer: {_format_answer(outcome.answer)}",
        "actions ({}): {}".format(
            len(agent.history), " ".join(format_term(a) for a in agent.history)
        ),
        "senses ({}): {}".format(
            len(agent.sigma),
            " ".join(f"{f}={format_term(r)}" for f, r, _ in agent.sigma),
        ),
        f"belief clauses: {len(agent.belief)}",
        f"max belief clauses: {agent.max_belief}",
    ]
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _cmd_run(args):
    domain = parse_domain(_read(args.domain), args.domain)
    for warning in domain.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    program = parse_program(_read(args.program), domain, args.program)
    query = parse_query(args.query, domain, "<query>")
    env = _make_env(args)
    observer = _trace_observer(sys.stderr) if args.trace else None
    outcome = solve(query, program, domain, env, budget=args.steps, observer=observer)
    report = _format_report(outcome)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        print(report, end="")
    return 0 if outcome.succeeded else 1


# ---------------------------------------------------------------- gen-wumpus


def _cmd_gen(args):
    config = _wumpus_config(
        args.config,
        size=args.size,
        threats=args.threats,
        seed=args.seed,
        solvable=False if args.no_solvable else None,
    )
    world = generate_wumpus(config)
    text = emit_wumpus_domain(world, args.variant)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    if args.agent_out:
        Path(args.agent_out).write_text(wumpus_agent(args.variant), encoding="utf-8")
    print(
        f"{config.size}x{config.size} world, seed {config.seed}: gold at "
        f"c({world.gold[0]},{world.gold[1]}), {len(world.threats)} threats",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- bench


def _int_list(text, what):
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError(f"bench needs at least one {what}")
    numbers = [integer(piece, what) for piece in items]
    if None in numbers:
        raise ValueError(f"bad {what} list {text!r}")
    return numbers


# One bench row's columns, in the order `_bench_one` gives their values.
_CSV_COLUMNS = (
    "size variant seed status actions max_state_clauses total_ms mean_action_ms gen_ms parse_ms"
).split()


def _bench_one(size, variant, seed, budget):
    set_up = time.perf_counter()
    world = generate_wumpus(WumpusConfig(size=size, seed=seed))
    text = emit_wumpus_domain(world, variant)
    generated = time.perf_counter()
    domain = parse_domain(text, f"<wumpus-{variant}>")
    program = parse_program(wumpus_agent(variant), domain, f"<agent-{variant}>")
    query = parse_query("run", domain, "<query>")
    parsed = time.perf_counter()
    env = WumpusEnv(world)
    started = time.perf_counter()
    try:
        outcome = solve(query, program, domain, env, budget=budget)
        status, agent = outcome.status, outcome.state
    except EngineError as error:
        status, agent = "error", error.state
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    actions = len(agent.history) if agent else 0
    max_clauses = agent.max_belief if agent else 0
    mean_ms = elapsed_ms / actions if actions else 0.0
    set_up_ms = ((generated - set_up) * 1000.0, (parsed - generated) * 1000.0)
    times = [f"{ms:.3f}" for ms in (elapsed_ms, mean_ms, *set_up_ms)]
    return dict(zip(_CSV_COLUMNS, (size, variant, seed, status, actions, max_clauses, *times)))


def _cmd_bench(args):
    sizes = _int_list(args.sizes, "size")
    seeds = _int_list(args.seeds, "seed")
    variants = [v for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError("bench needs at least one variant")
    for variant in variants:
        if variant not in ("ground2", "ground3"):
            raise ValueError(f"unknown variant {variant!r}")
    buffer = io.StringIO()
    buffer.write("# timing: wall clock (time.perf_counter), one process, one run per row\n")
    writer = csv.DictWriter(buffer, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for size in sizes:
        for variant in variants:
            for seed in seeds:
                row = _bench_one(size, variant, seed, args.steps)
                writer.writerow(row)
                print(
                    f"bench {size}x{size} {variant} seed {seed}: {row['status']} "
                    f"({row['actions']} actions, {row['total_ms']} ms)",
                    file=sys.stderr,
                )
    if args.out:
        Path(args.out).write_text(buffer.getvalue(), encoding="utf-8")
    else:
        print(buffer.getvalue(), end="")
    return 0


# ---------------------------------------------------------------- entry


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 3
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen-wumpus":
            return _cmd_gen(args)
        return _cmd_bench(args)
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 3
    except EngineError as error:
        print(f"runtime error: {error}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
