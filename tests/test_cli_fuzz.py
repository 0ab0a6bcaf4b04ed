"""Fuzz the command line with mutated sample texts: whatever the input,
`primelog run` exits 0, 1, 2 or 3 and never lets a traceback, or
Python's own wording of a decoding or integer conversion error, out."""

import contextlib
import io
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from primelog import cli

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# (domain, program, query, --env, --seed)
SCENARIOS = [
    ("corridor5.alpd", "explorer.alp", "explore([2,3,4,5],[])", "maze:5", None),
    ("wumpus4.alpd", "cautious.alp", "run", "wumpus:4x4", "7"),
]

_TOKEN_RE = re.compile(r"%[^\n]*\n?|:-|\d+|\w+|[^\s\w]")
_EXTRA = ["-", "[", "]", "(", ")", ",", ".", "|", "!", "?", "=", "/", "X", "_", "1", "foo", "do"]


# A byte that is not UTF-8, held as the surrogate that writing the text
# with "surrogateescape" turns back into it.
_BAD_BYTE = b"\xff".decode("utf-8", "surrogateescape")
# Longer than Python's 4,300-digit limit on integer conversion.
_LONG_NUMERAL = "9" * 5000


def _mutate(text, edits):
    """Apply (op, position, token) edits to the text's tokens: delete the
    token at a position, insert a token before it (one of the text's own
    when `token` is None), insert a byte that is not UTF-8 before it, put
    a 5,000-digit numeral in place of the first numeral from the position
    on (of the token there when none is left), put a byte-order mark in
    front of the text, or cut the text at the first clause end from the
    position on."""
    toks = [m.group() for m in _TOKEN_RE.finditer(text)]
    for op, position, token in edits:
        if not toks:
            break
        i = position % len(toks)
        if op == "delete":
            del toks[i]
        elif op == "insert":
            toks.insert(i, token or toks[position // len(toks) % len(toks)])
        elif op == "byte":
            toks.insert(i, _BAD_BYTE)
        elif op == "numeral":
            numerals = [j for j in range(i, len(toks)) if toks[j].isdigit()]
            toks[numerals[0] if numerals else i] = _LONG_NUMERAL
        elif op == "bom":
            toks.insert(0, "\ufeff")
        else:
            ends = [j for j in range(i, len(toks)) if toks[j] == "."]
            del toks[ends[0] + 1 if ends else i :]
    return " ".join(toks)


_edits = st.lists(
    st.tuples(
        st.sampled_from(["delete", "delete", "insert", "insert", "cut", "byte", "bom", "numeral"]),
        st.integers(min_value=0, max_value=10**6),
        st.one_of(st.none(), st.sampled_from(_EXTRA)),
    ),
    min_size=1,
    max_size=3,
)

CODES = []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    part=st.sampled_from(["domain", "program", "query"]),
    edits=_edits,
)
def _fuzz_run(tmp, scenario, part, edits):
    domain, program, query, env, seed = scenario
    texts = {
        "domain": (SAMPLES / domain).read_text(encoding="utf-8"),
        "program": (SAMPLES / program).read_text(encoding="utf-8"),
        "query": query,
    }
    texts[part] = _mutate(texts[part], edits)
    (tmp / "d.alpd").write_text(texts["domain"], encoding="utf-8", errors="surrogateescape")
    (tmp / "p.alp").write_text(texts["program"], encoding="utf-8", errors="surrogateescape")
    argv = ["run", "--domain", str(tmp / "d.alpd"), "--program", str(tmp / "p.alp"),
            "--query", texts["query"], "--env", env, "--steps", "20000"]
    if seed is not None:
        argv += ["--seed", seed]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert not any(python in err.getvalue() for python in ("Traceback", "codec", "sys."))
    CODES.append(code)


def test_mutated_samples_keep_the_exit_code_contract(tmp_path):
    CODES.clear()
    _fuzz_run(tmp_path)
    # The pinned examples reach every exit code.
    assert set(CODES) == {0, 1, 2, 3}
