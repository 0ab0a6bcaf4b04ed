"""Deterministic work counts of one solve of each perfbench workload.

    PYTHONPATH=src python tests/work_counts.py [WORKLOAD ...]

prints a Markdown table of, per workload:

- `terms.occurs` calls and the cells they walk (`walk` calls inside them);
- `terms._settled` calls and the ones that settled a ground term;
- `auxdb.solve` calls and the resolution machines they built.

The counts come from wrapping those functions from outside the package,
so they are the same on every machine and every run. The tests import
`count_work` to pin the corridor's counts.
"""

import sys
from contextlib import contextmanager
from pathlib import Path

from primelog import auxdb, interpreter, terms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

COLUMNS = (
    "occurs_calls",
    "occurs_cells",
    "settled_calls",
    "settled_hits",
    "aux_solves",
    "aux_machines",
)


def _workloads():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    return WORKLOADS


@contextmanager
def _patched(owner, name, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def count_work(workload):
    """The counts of one solve of the named perfbench workload."""
    spec = _workloads()[workload]
    inputs = spec.setup()
    counts = dict.fromkeys(COLUMNS, 0)
    inside = [False]

    def walk(plain):
        def counted(term, bindings):
            if inside[0]:
                counts["occurs_cells"] += 1
            return plain(term, bindings)

        return counted

    def occurs(plain):
        def counted(name, term, bindings):
            counts["occurs_calls"] += 1
            inside[0] = True
            try:
                return plain(name, term, bindings)
            finally:
                inside[0] = False

        return counted

    def settled(plain):
        def counted(term, get):
            counts["settled_calls"] += 1
            value = plain(term, get)
            counts["settled_hits"] += value is not term
            return value

        return counted

    def solve(plain):
        def counted(self, goal, bindings=None):
            counts["aux_solves"] += 1
            return plain(self, goal, bindings)

        return counted

    def machine(plain):
        def counted(*args):
            counts["aux_machines"] += 1
            return plain(*args)

        return counted

    with (
        _patched(terms, "walk", walk),
        _patched(terms, "occurs", occurs),
        _patched(terms, "_settled", settled),
        _patched(auxdb.AuxDB, "solve", solve),
        _patched(auxdb, "Machine", machine),
    ):
        outcome = interpreter.solve(
            inputs.query, inputs.program, inputs.domain, spec.make_env(inputs)
        )
    if not outcome.succeeded:
        raise RuntimeError(f"{workload}: the solve ended with status {outcome.status}")
    return counts


def main(argv):
    names = argv or list(_workloads())
    print("### Work counts, one solve per workload")
    print("| workload | " + " | ".join(COLUMNS) + " |")
    print("| --- |" + " --- |" * len(COLUMNS))
    for name in names:
        counts = count_work(name)
        print(f"| {name} | " + " | ".join(f"{counts[c]:,}" for c in COLUMNS) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
