"""Host speed reference: a fixed piece of pure-Python work timed beside
the program, so that times can be scaled to one reference speed.

On the shared 2-vCPU Intel Xeon host the benchmark was built on, the
speed at which the same Python code runs switches between levels up to
2.4x apart, every 0.1 s to every few minutes, and slow phases can last
longer than a whole benchmark run. No statistic over the runs of one
process removes a phase that covers the process. Timing this reference
work next to each piece of program work measures the level the piece
ran at; a piece's time multiplied by `REFERENCE_S / reference time` is
then the time it would take at the reference level.

The reference work uses no primelog code, so a change to the program
cannot change it. It mixes what the interpreter spends its time on:
small object allocation, attribute access, calls, dict lookups, and
building tuples, strings, lists and dicts.
"""

from time import perf_counter

# A fixed time near that of one `reference_work()` call at the build
# host's fast level (Python 3.11): timed alone, its 2nd percentile over a
# minute was 151 us; within benchmark processes the median reference time
# ranged from 117 to 260 us. Scaled times are therefore close to the wall
# time at the fast level on that host; only their ratios between commits
# measured on one host mean anything.
REFERENCE_S = 1.5e-4
ROUNDS = 60
REPEATS = 3


class _Cell:
    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args


def _deref(term, binding):
    while isinstance(term, str) and term in binding:
        term = binding[term]
    return term


def reference_work():
    binding = {}
    table = {}
    for i in range(ROUNDS):
        key = i & 31
        cell = _Cell("p", ("X%d" % (i & 7), i, _Cell("q", (key,))))
        args = [_deref(a, binding) for a in cell.args]
        binding[args[0]] = i
        table[key] = (key, table.get(key), args)
    records = [{"id": (i, str(i)), "next": [i, i + 1]} for i in range(ROUNDS * 2)]
    return table, records


def reference_time():
    """Median of a few timings of the reference work: the host's current
    level, with one timing that an interrupt or a preemption stretched
    (up to 7 ms against 0.3 ms seen) left out."""
    times = []
    for _ in range(REPEATS):
        started = perf_counter()
        reference_work()
        times.append(perf_counter() - started)
    return sorted(times)[REPEATS // 2]
