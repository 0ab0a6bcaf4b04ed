"""Spans around primelog's layer boundaries, recorded from outside the package.

`Tracer.patched()` replaces public entry points of the parser, the world
generator, the belief engine (`pi`), the aux solver and the names the
interpreter imports from `pi` with timing wrappers, and puts the
originals back on exit, so untraced runs never see a wrapper. Each call,
and each `next()` of a generator, becomes one span
`[name, start, end, parent, extra]`. `extra` is a count taken at the
boundary: bytes parsed, clauses scanned, or 1 when an entailment or aux
query produced an answer.

`layer_metrics` folds one traced run's spans into per-layer self times
and counters. A span's self time is its duration minus the part of it
that its children cover. Every span under the `solve` root belongs to
exactly one layer, so the layer times add up to the traced solve.
"""

import contextlib
import inspect
from time import perf_counter

from primelog import auxdb, envs, interpreter, parser, pi


def _first_arg_len(args, kwargs, result):
    return len(args[0])


def _answered(args, kwargs, result):
    return int(result is not None)


def _base_len(args, kwargs, result):
    return len(kwargs.get("base") or ())


# (owner, attribute, span name, extra) for every wrapped entry point.
# Generator spans always record whether their next() gave an answer.
# `pi.first_entailment` and `pi.prime_closure` are looked up at call time
# by `integrate_sensing` and `applicable_case_solutions`, so patching the
# module attribute reaches them.
ENTRY_POINTS = (
    (parser, "parse_domain", "parser.parse_domain", _first_arg_len),
    (parser, "parse_program", "parser.parse_program", _first_arg_len),
    (parser, "parse_query", "parser.parse_query", _first_arg_len),
    (envs, "generate_wumpus", "envs.generate_wumpus", None),
    (envs, "emit_wumpus_domain", "envs.emit_wumpus_domain", None),
    (envs, "emit_maze_domain", "envs.emit_maze_domain", None),
    (interpreter, "entails_property", "pi.entails_property", None),
    (interpreter, "applicable_case_solutions", "pi.applicable_case_solutions", None),
    (interpreter, "update", "pi.update", _first_arg_len),
    (interpreter, "integrate_sensing", "pi.integrate_sensing", None),
    (pi, "first_entailment", "pi.first_entailment", _answered),
    (pi, "prime_closure", "pi.prime_closure", _base_len),
    (auxdb.AuxDB, "solve", "auxdb.solve", None),
    (auxdb.AuxDB, "candidates", "auxdb.candidates", None),
)

_DONE = object()


def _answered_next(args, kwargs, value):
    return int(value is not _DONE)


class Tracer:
    """In-memory span recorder. Spans accumulate until `reset()`."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self._stack = [-1]

    def reset(self):
        self.spans = []
        self.calls = {name: 0 for name in self.calls}

    def span(self, name, fn, args=(), kwargs=None, extra=None):
        """Run fn(*args, **kwargs) as one span under the innermost open one."""
        kwargs = kwargs or {}
        spans = self.spans
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1], 0]
        stack.append(len(spans))
        spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        if extra is not None:
            record[4] = extra(args, kwargs, result)
        return result

    def wrap(self, name, fn, extra=None):
        calls = self.calls
        calls.setdefault(name, 0)
        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                calls[name] += 1
                return self._timed_next(name, fn(*args, **kwargs))

            return traced_generator

        def traced(*args, **kwargs):
            calls[name] += 1
            return self.span(name, fn, args, kwargs, extra)

        return traced

    def _timed_next(self, name, it):
        while True:
            value = self.span(name, next, (it, _DONE), None, _answered_next)
            if value is _DONE:
                return
            yield value

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, extra in ENTRY_POINTS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, extra))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def trace_env(self, env):
        """Wrap one environment instance's execute and sense."""
        env.execute = self.wrap("envs.execute", env.execute)
        env.sense = self.wrap("envs.sense", env.sense)
        return env


def self_times(spans):
    """Per-span self time: duration minus the overlap of its children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            p = spans[parent]
            own[parent] -= max(0.0, min(end, p[2]) - max(start, p[1]))
    return own


# Layer -> span names. A `first_entailment` whose parent is
# `integrate_sensing` is one sensor case of the scan, renamed
# `pi.sense_case` before it is counted.
LAYERS = {
    "parser": ("parser.parse_domain", "parser.parse_program", "parser.parse_query"),
    "envs.gen": ("envs.generate_wumpus", "envs.emit_wumpus_domain", "envs.emit_maze_domain"),
    "interpreter": ("solve",),
    "auxdb": ("auxdb.solve", "auxdb.candidates"),
    "pi.entail": (
        "pi.entails_property",
        "pi.applicable_case_solutions",
        "pi.first_entailment",
    ),
    "pi.update": ("pi.update",),
    "pi.sense_scan": ("pi.integrate_sensing", "pi.sense_case"),
    "pi.closure": ("pi.prime_closure",),
    "envs.step": ("envs.execute", "envs.sense"),
}
SETUP_LAYERS = ("parser", "envs.gen")
_LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans, calls, setup_index, solve_index):
    """Per-layer metrics of one traced setup and solve.

    Returns (metrics, problems). `problems` names every span outside the
    layer map or under the wrong root, and a mismatch between the layer
    self times under `solve` and the solve span itself.
    """
    own = self_times(spans)
    root = [0] * len(spans)
    count, extra_sum, self_sum = {}, {}, {}
    problems = set()
    for i, (name, _, _, parent, extra) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if name == "pi.first_entailment" and spans[parent][0] == "pi.integrate_sensing":
            name = "pi.sense_case"
        if i in (setup_index, solve_index):
            pass
        elif root[i] not in (setup_index, solve_index):
            problems.add(f"span {name} lies outside the setup and solve spans")
        elif (_LAYER_OF.get(name) in SETUP_LAYERS) != (root[i] == setup_index):
            problems.add(f"span {name} lies under the wrong root")
        count[name] = count.get(name, 0) + 1
        extra_sum[name] = extra_sum.get(name, 0) + extra
        self_sum[name] = self_sum.get(name, 0.0) + own[i]

    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_sum.items():
        if name == "setup":
            continue
        if name not in _LAYER_OF:
            problems.add(f"span {name} belongs to no layer")
            continue
        layer_s[_LAYER_OF[name]] += seconds
    solve_s = spans[solve_index][2] - spans[solve_index][1]
    under_solve = sum(s for s, r in zip(own, root) if r == solve_index)
    if abs(under_solve - solve_s) > 1e-6:
        problems.add(
            f"self times under solve sum to {under_solve:.9f} s, "
            f"but the solve span lasts {solve_s:.9f} s"
        )

    c, x = count.get, extra_sum.get
    entail_attempts = c("pi.entails_property", 0) + c("pi.first_entailment", 0)
    entail_answers = x("pi.entails_property", 0) + x("pi.first_entailment", 0)
    parsed = sum(x(name, 0) for name in LAYERS["parser"])
    metrics = {
        "parser.parse_s": layer_s["parser"],
        "parser.kb_per_s": _ratio(parsed / 1024.0, layer_s["parser"]),
        "envs.gen_s": layer_s["envs.gen"],
        "interpreter.self_s": layer_s["interpreter"],
        "auxdb.solve_s": layer_s["auxdb"],
        "auxdb.solve_calls": calls.get("auxdb.solve", 0),
        "auxdb.answer_ratio": _ratio(x("auxdb.solve", 0), c("auxdb.solve", 0)),
        "pi.entail_s": layer_s["pi.entail"],
        "pi.entail_calls": calls.get("pi.entails_property", 0) + c("pi.first_entailment", 0),
        "pi.entail_answer_ratio": _ratio(entail_answers, entail_attempts),
        "pi.update_s": layer_s["pi.update"],
        "pi.update_calls": calls.get("pi.update", 0),
        "pi.update_clauses_scanned": x("pi.update", 0),
        "pi.sense_scan_s": layer_s["pi.sense_scan"],
        "pi.sense_cases_scanned": c("pi.sense_case", 0),
        "pi.sense_case_hit_ratio": _ratio(x("pi.sense_case", 0), c("pi.sense_case", 0)),
        "pi.closure_s": layer_s["pi.closure"],
        "pi.closure_base_clauses": x("pi.prime_closure", 0),
        "envs.step_s": layer_s["envs.step"],
        "envs.calls": calls.get("envs.execute", 0) + calls.get("envs.sense", 0),
        "trace.solve_s": solve_s,
    }
    return metrics, sorted(problems)
