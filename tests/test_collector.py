"""The cyclic collector and a parsed domain.

`parse_domain` pauses the collector while it runs and freezes what it
built until the domain is dropped. That is safe because the package makes
no reference cycles, which the first test pins; the others pin the
contract with the caller's own collector setting and objects.
"""

import gc
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

from helpers import maze_query
from primelog.envs import MazeEnv
from primelog.errors import ParseError
from primelog.interpreter import solve
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.terms import format_term

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"

# Run in a process of its own, so that only the garbage of these runs
# counts, not the test runner's.
NO_CYCLES = textwrap.dedent(
    """
    import gc, sys
    sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
    from pathlib import Path
    from primelog import parse_domain, parse_program, parse_query, solve
    from primelog.envs import MazeEnv, WumpusConfig, WumpusEnv, generate_wumpus
    from workloads import WORKLOADS

    def samples():
        read = lambda name: (Path(sys.argv[1]) / "samples" / name).read_text(encoding="utf-8")
        world = generate_wumpus(WumpusConfig(size=4, seed=7))
        for dom, prog, query, env in (
            ("corridor5.alpd", "explorer.alp", "explore([2,3,4,5],[])", MazeEnv(5)),
            ("wumpus4.alpd", "cautious.alp", "run", WumpusEnv(world)),
        ):
            domain = parse_domain(read(dom), dom)
            program = parse_program(read(prog), domain, prog)
            yield dom, solve(parse_query(query, domain), program, domain, env)

    def workloads():
        for name, workload in WORKLOADS.items():
            inputs = workload.setup()
            env = workload.make_env(inputs)
            yield name, solve(inputs.query, inputs.program, inputs.domain, env)

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    for name, outcome in (*samples(), *workloads()):
        assert outcome.succeeded, name
        print(name)
    outcome = None
    gc.unfreeze()
    gc.collect()
    print(len(gc.garbage), "unreachable objects:", [type(o).__name__ for o in gc.garbage[:10]])
    """
)


def test_set_up_and_solves_leave_no_cyclic_garbage():
    done = subprocess.run(
        [sys.executable, "-c", NO_CYCLES, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *names, garbage = done.stdout.splitlines()
    assert names == [
        "corridor5.alpd",
        "wumpus4.alpd",
        "corridor-backtrack",
        "wumpus-g2",
        "wumpus-g3",
    ]
    assert garbage == "0 unreachable objects: []"


def _corridor():
    domain = parse_domain((SAMPLES / "corridor5.alpd").read_text(encoding="utf-8"))
    program = parse_program((SAMPLES / "explorer.alp").read_text(encoding="utf-8"), domain)
    return domain, program


@pytest.fixture(params=[True, False], ids=["entered-enabled", "entered-disabled"])
def collector(request):
    """The collector as a caller left it; restored after the test."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


def test_the_callers_collector_setting_is_kept_after_a_parse(collector):
    domain, _ = _corridor()
    assert gc.isenabled() is collector


def test_the_callers_collector_setting_is_kept_after_a_parse_error(collector):
    frozen = gc.get_freeze_count()
    with pytest.raises(ParseError):
        parse_domain("fluents([at/1]).\ninitial_state([at(1), -at(1)]).\n")
    assert gc.isenabled() is collector
    assert gc.get_freeze_count() == frozen  # a failed parse freezes nothing


def test_dropping_the_domain_releases_what_it_froze():
    gc.unfreeze()  # a domain another test keeps alive would count otherwise
    domain, program = _corridor()
    assert gc.get_freeze_count() > 0
    outcome = solve(parse_query(maze_query(5), domain), program, domain, MazeEnv(5))
    assert outcome.succeeded
    del domain, program, outcome
    assert gc.get_freeze_count() == 0


def test_a_cycle_made_before_the_parse_is_collected_once_the_domain_is_dropped():
    class Node:
        pass

    enabled = gc.isenabled()
    gc.disable()  # so that no collection takes the cycle before the parse
    try:
        node = Node()
        node.me = node
        alive = weakref.ref(node)
        del node
        domain, program = _corridor()
        gc.collect()
        assert alive() is not None  # frozen along with the domain
        del domain, program
        gc.collect()
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_dropping_the_older_of_two_domains_leaves_the_newer_solvable():
    older = _corridor()
    newer, program = _corridor()
    del older
    assert gc.get_freeze_count() == 0  # the drop unfroze the newer one too
    gc.collect()
    outcome = solve(parse_query(maze_query(5), newer), program, newer, MazeEnv(5))
    assert outcome.succeeded
    assert [format_term(a) for a in outcome.state.history] == ["go(2)", "go(3)", "go(4)"]
