"""Values several tests share that no product path needs."""

from primelog.auxdb import AuxDB
from primelog.model import Program
from primelog.terms import Term, apply_subst

# An aux database with no clauses, for domains without aux predicates.
EMPTY_AUX = AuxDB(Program(()))


def Num(value):
    """An integer as an atom with a numeric name."""
    return Term(str(int(value)), ())


def solve_under(aux, goal, base):
    """`aux.solve` on `goal` under the idempotent substitution `base`:
    each answer is `base` extended by the answer's own bindings."""
    for new in aux.solve(apply_subst(goal, base)):
        answer = {n: apply_subst(t, new) for n, t in base.items()}
        answer.update(new)
        yield answer


def maze_query(length):  # the corridor query: try every cell beyond the first
    return "explore([" + ",".join(map(str, range(2, length + 1))) + "],[])"
