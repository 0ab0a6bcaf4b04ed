"""Deterministic work counts of one solve of each workload.

    PYTHONPATH=src python tests/work_counts.py [WORKLOAD ...]

prints a Markdown table of, per workload:

- `terms._value` calls: the one walk a binding makes over an open
  compound (the occurs check, which also settles a ground value);
- the cells walked by the walks that do not settle (`walk` calls inside
  them), and the walks that settled a ground term;
- `auxdb.solve` calls and the resolution machines they built;
- `belief_entries_copied`: the belief table entries written per belief
  step (an `update` or a sensing with its closure), counted at
  `pi._write`, one for the clause, one per literal and one for a unit's
  bucket. The store writes only what a step changes, and copies nothing;
- `head_copies`: the `apply_subst` calls `Machine._advance_clauses`
  and `Interpreter._dispatch_do` make themselves, which is what
  renamed clause heads and copies of actions cost (the renaming of
  clause bodies, through `model.rename_goal`, is not counted);
- `bindings_kept` and `trail_kept`: the resolution machine's binding
  store and trail when the solve ends. A commit (an executed action or a
  sensing) empties the trail and compacts a store that has doubled, so
  both follow what the agent still needs, not the length of the run;
- `compacted_kept`: the most bindings one of those compactions kept;
- `member_cells`: the list cells the list built-ins (`memberchk`,
  `nonmember`) walk: down to the first cell that keeps its members' keys
  in `terms.ground_member`, the whole spine in `list_parts` otherwise;
- `key_builds`: the `terms.flat_key` calls, as `terms` (a term's cached
  `key`) and `pi` (an answer's signature) make them: each builds one flat
  key in full;
- `setup_tokens`: the tokens the reader scans while the workload is set
  up, before the solve (the domain, program and query texts, each end of
  input counted as one token). A flat ground compound such as `c(3,4)` is
  one token.

The workloads are perfbench's three, `wumpus-g3-48`, the 48x48 world
beside perfbench's 16x16 `wumpus-g3`, and `open-list`, `mko(0,500,L),
tk(L,500)`: a list built with its tail left open, then taken apart, so
every step's walk runs to the open tail and the cells grow with the
square of the length. The counts come from wrapping those functions from
outside the package, so they are the same on every machine and every
run. The tests import `count_work` to pin them, and
`tests/golden/work_counts.json` holds the whole table as `count_work`
gives it in a fresh process.
"""

import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

from primelog import auxdb, envs, interpreter, parser, pi, sld, terms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

COLUMNS = (
    "walks",
    "unsettled_cells",
    "settled",
    "aux_solves",
    "aux_machines",
    "belief_entries_copied",
    "head_copies",
    "bindings_kept",
    "trail_kept",
    "compacted_kept",
    "member_cells",
    "key_builds",
    "setup_tokens",
)


class OpenList:
    """`mko(0,N,L)` builds an N-item list whose last tail is bound to a
    fresh variable, and `tk(L,N)` takes it apart a cell at a time."""

    name = "open-list"
    length = 500
    program = (
        "mko(N,N,T) :- !.\n"
        "mko(I,N,[I|T]) :- succ(I,J), mko(J,N,T).\n"
        "tk(L,0) :- !.\n"
        "tk([X|T],J) :- succ(I,J), tk(T,I).\n"
    )

    def setup(self):
        n = self.length
        facts = " ".join(f"succ({i},{i + 1})." for i in range(n))
        domain = parser.parse_domain(envs.emit_maze_domain(3) + facts + "\n", "<open-list>")
        program = parser.parse_program(self.program, domain, "<open-list>")
        query = parser.parse_query(f"mko(0,{n},L), tk(L,{n})", domain, "<query>")
        return SimpleNamespace(query=query, program=program, domain=domain)

    def make_env(self, inputs):
        return envs.MazeEnv(3)


def _perfbench():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    return workloads


def ground3(size):
    """perfbench's ground3 wumpus workload at another board size."""
    return _perfbench().Wumpus(f"wumpus-g3-{size}", size, "ground3", 0)


def _workloads():
    return {**_perfbench().WORKLOADS, "wumpus-g3-48": ground3(48), OpenList.name: OpenList()}


@contextmanager
def _patched(owner, name, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def count_work(workload):
    """The counts of one solve of the named workload, or of a workload
    object such as `ground3(size)` gives."""
    spec = _workloads()[workload] if isinstance(workload, str) else workload
    counts = dict.fromkeys(COLUMNS, 0)

    def reader(plain):
        def counted(self, text, filename):
            plain(self, text, filename)
            counts["setup_tokens"] += len(self.toks)

        return counted

    with _patched(parser._Reader, "__init__", reader):
        inputs = spec.setup()
    steps = [0]
    cells = [None]  # the walk count of the `_value` call under way

    def walk(plain):
        def counted(term, bindings):
            if cells[0] is not None:
                cells[0] += 1
            return plain(term, bindings)

        return counted

    def value(plain):
        def counted(name, term, bindings):
            counts["walks"] += 1
            cells[0] = 0
            try:
                found = plain(name, term, bindings)
            finally:
                walked, cells[0] = cells[0], None
            if found is None or found is term:
                counts["unsettled_cells"] += walked
            else:
                counts["settled"] += 1
            return found

        return counted

    def solve(plain):
        def counted(self, goal):
            counts["aux_solves"] += 1
            return plain(self, goal)

        return counted

    def machine(plain):
        def counted(*args):
            counts["aux_machines"] += 1
            return plain(*args)

        return counted

    def step(plain):
        def counted(*args):
            steps[0] += 1
            return plain(*args)

        return counted

    def copy(plain):
        def counted(term, bindings):
            if sys._getframe(1).f_code.co_name in ("_advance_clauses", "_dispatch_do"):
                counts["head_copies"] += 1
            return plain(term, bindings)

        return counted

    def compact(plain):
        def counted(self, goals):
            plain(self, goals)
            counts["compacted_kept"] = max(counts["compacted_kept"], len(self.bindings))

        return counted

    def member(plain):
        def counted(cell, key):
            t = cell
            while t._members is None and t.functor == "." and len(t.args) == 2:
                counts["member_cells"] += 1
                t = t.args[1]
            return plain(cell, key)

        return counted

    def spine(plain):
        def counted(term, bindings=None):
            items, tail = plain(term, bindings)
            counts["member_cells"] += len(items)
            return items, tail

        return counted

    def key(plain):
        def counted(terms_, bindings):
            counts["key_builds"] += 1
            return plain(terms_, bindings)

        return counted

    def write(plain):
        def counted(root, clause, present):
            n = len(clause.literals)
            counts["belief_entries_copied"] += 1 + n + (n == 1)
            return plain(root, clause, present)

        return counted

    with (
        _patched(terms, "walk", walk),
        _patched(terms, "_value", value),
        _patched(auxdb.AuxDB, "solve", solve),
        _patched(auxdb, "Machine", machine),
        _patched(interpreter, "update", step),
        _patched(interpreter, "integrate_sensing", step),
        _patched(pi, "_write", write),
        _patched(sld, "apply_subst", copy),
        _patched(interpreter, "apply_subst", copy),
        _patched(interpreter.Interpreter, "_compact", compact),
        _patched(sld, "ground_member", member),
        _patched(sld, "list_parts", spine),
        _patched(terms, "flat_key", key),
        _patched(pi, "flat_key", key),
    ):
        machine = interpreter.Interpreter(inputs.domain, inputs.program, spec.make_env(inputs))
        outcome = machine.run(inputs.query)
    if not outcome.succeeded:
        raise RuntimeError(f"{spec.name}: the solve ended with status {outcome.status}")
    counts["belief_entries_copied"] /= max(steps[0], 1)
    counts["bindings_kept"] = len(machine.bindings)
    counts["trail_kept"] = len(machine.trail)
    return counts


def main(argv):
    names = argv or list(_workloads())
    print("### Work counts, one solve per workload")
    print("| workload | " + " | ".join(COLUMNS) + " |")
    print("| --- |" + " --- |" * len(COLUMNS))
    for name in names:
        counts = count_work(name)
        cells = (
            f"{counts[c]:,.1f}" if isinstance(counts[c], float) else f"{counts[c]:,}"
            for c in COLUMNS
        )
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
