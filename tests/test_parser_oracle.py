"""The scanner and parser give what the ones before them gave.

``surface_oracle`` keeps the scanner of one regular expression of token
classes and the parser that read its tokens through ``peek``, ``at`` and
``next``. On every lexicon file of the repository, on the benchmark's
generated lexicons, on the deep inputs of ``test_depth.py``, on seeded
random short texts and on seeded mutations of the files, ``telic.surface``
must give the same token chunks, the same lexical errors (the first one
raised, and one for each ERROR token), the same parse items with every
span, and the same ``parse_expr`` result or error.

Nodes compare through ``flatten``, a walk with an explicit stack: ``==`` on
nodes leaves spans out, and ``repr`` of a deep parse overflows the stack.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import surface_oracle as oracle
from conftest import load_bench_gen
from telic import surface
from telic.errors import ParseError, Span
from test_depth import DEEP_ARROWS, DEEP_PARENS, DEEP_SUM

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "telic" / "data").rglob("*.tel")) + sorted(
    (ROOT / "tests").rglob("*.tel")
)


def flatten(item: object) -> list[object]:
    """``item`` in preorder: each node or plain tuple as its class name and
    length, each span whole, each parse error as its class, message and
    span, and each other value with its class name."""
    out: list[object] = []
    stack = [item]
    while stack:
        x = stack.pop()
        if isinstance(x, ParseError):
            out.append((type(x).__name__, x.message, x.span))
        elif type(x) is Span:
            out.append(tuple(x))
        elif isinstance(x, tuple):
            out.append((type(x).__name__, len(x)))
            stack.extend(reversed(x))
        else:
            out.append((type(x).__name__, x))
    return out


def _error(e: ParseError) -> tuple:
    return type(e).__name__, e.message, e.span


def _scanned(module, text: str, name: str):
    """The chunks, and each lexical error by its index, or the first one
    raised. The oracle collects its errors in a dict; ``surface`` has an
    ERROR token stand for each."""
    if module is oracle:
        errors: dict[int, ParseError] = {}
        chunks = [list(chunk) for chunk in oracle._scan(text, name, errors)]
    else:
        # each chunk but the last ends with the keyword that starts the next
        chunks = [list(chunk) for chunk in surface._scan(text)]
        chunks = [chunk[:-1] for chunk in chunks[:-1]] + chunks[-1:]
        tokens = [t for chunk in chunks for t in chunk]
        errors = {
            k: surface._lexical_error(t, name) for k, t in enumerate(tokens) if t.kind == "ERROR"
        }
    try:
        raised = len(module.tokenize(text, name))
    except ParseError as e:
        raised = _error(e)
    return chunks, {k: _error(e) for k, e in errors.items()}, raised


def _parsed_expr(module, text: str) -> list[object]:
    try:
        return flatten(module.parse_expr(text, "<e>"))
    except ParseError as e:
        return [_error(e)]


def assert_same(text: str, name: str = "<t>", expr: bool = False) -> None:
    assert _scanned(surface, text, name) == _scanned(oracle, text, name), repr(text)
    new, old = surface.parse_file(text, name), oracle.parse_file(text, name)
    assert flatten(new) == flatten(old), repr(text)
    if expr:
        assert _parsed_expr(surface, text) == _parsed_expr(oracle, text), repr(text)


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_every_lexicon_file(path):
    assert_same(path.read_text(encoding="utf-8-sig"), path.name)


def test_the_generated_lexicons():
    gen = load_bench_gen()
    for source in [gen.lexicon(1), *gen.reduction(1)]:
        assert_same(source.text, source.name)


@pytest.mark.parametrize("text", [
    f"norm {DEEP_SUM} = 800\ncheck 1 : Nat\n",
    f"check {DEEP_PARENS} : Type\ncheck 1 : Nat\n",
    f"postulate f : {DEEP_ARROWS}\n",
    DEEP_PARENS,
    DEEP_SUM,
], ids=["sum", "parentheses", "arrows", "parentheses-expr", "sum-expr"])
def test_deep_inputs(text):
    assert_same(text, expr=True)


# Pieces of random texts: every token class, the characters the scanner
# treats specially, some it rejects, and the declaration keywords.
ALPHABET = (
    *sorted(surface.DECL_KEYWORDS),
    "Type", "Type1", "fst", "snd", "Sigma", "TypeMismatch", "IllegalCharacter",
    "a", "x1", "f'", "x_y", "NP", "0", "42", "007",
    "(", ")", "{", "}", ":", ",", ".", "=", "+", "\\", "λ", "Σ", "⊕", "_", "(+)",
    "->", "=>", "--", "-", "_a", '"', '"s.tel"', "é", "$", "'",
    " ", " ", " ", "\t", "\r", "\n", "\n", "\r\n",
)


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 16)))


def test_random_short_texts():
    rng = random.Random(31)
    for _ in range(10_000):
        text = random_text(rng)
        assert_same(text, expr=True)


def test_chunks_overlap_at_each_top_level_keyword():
    rng = random.Random(31)
    texts = [random_text(rng) for _ in range(10_000)]
    for text in texts + [path.read_text(encoding="utf-8-sig") for path in FILES]:
        chunks = list(surface._scan(text))
        for chunk, after in zip(chunks, chunks[1:]):
            assert chunk[-1] is after[0], repr(text)
        assert chunks[-1][-1].kind == "EOF", repr(text)
        for chunk in chunks:
            for k in range(1, len(chunk) - 1):
                nested = k > 1 and chunk[k - 2].kind == "FAIL" and chunk[k - 1].kind == "IDENT"
                assert nested or chunk[k].kind not in surface._DECL_KINDS, repr(text)


def test_mutated_files():
    rng = random.Random(32)
    for path in FILES:
        text = path.read_text(encoding="utf-8-sig")
        for _ in range(3):
            k = rng.randrange(len(text) + 1)
            cut = rng.randrange(4)
            assert_same(text[:k] + random_text(rng) + text[k + cut:], path.name)
