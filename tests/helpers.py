"""Values several tests share that no product path needs."""

from primelog.auxdb import AuxDB
from primelog.model import Program

# An aux database with no clauses, for domains without aux predicates.
EMPTY_AUX = AuxDB(Program(()))


def maze_query(length):  # the corridor query: try every cell beyond the first
    return "explore([" + ",".join(map(str, range(2, length + 1))) + "],[])"
