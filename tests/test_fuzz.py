"""Seeded fuzzing of the parser and checker: random token streams and
mutated corpus files must only ever produce reports.

Every input is processed inside a rollback of one prelude-loaded
processor. The report stream must follow the parse result in source order:
one `parse` report per parse error where it stands, and one report per
declaration up to and including the first failed binding declaration
(which stops the rest of its file's declarations); after that binding only
`parse` reports follow. A declaration's report has its kind and its name
(a `fail`'s is its inner declaration's). An import names a file that does not exist under
the empty base directory, so a top-level import adds the report of the
failed read in front of its own; under `fail` that report is dropped with
the rest of the inner declaration's. The reports' spans never go back in
the file. The parse, which reads the scanner's chunks one declaration at a
time, equals the parse of the whole token list at once.
"""

from __future__ import annotations

import random
import re

import pytest

from telic.corpus import CASES, corpus_dir
from telic.elaborate import Processor, Report
from telic.errors import ParseError
from telic.kernel import Kernel
from telic.prelude import load_prelude
from telic.surface import _KINDS, _Parser, parse_file, tokenize
from test_surface import scanned

# A fuel budget well below the default keeps the non-terminating `loop`
# declarations of the corpus (and whatever mutations make of them) cheap.
FUZZ_FUEL = 2_000

IDENTS = (
    "Nat", "B", "U", "Bd", "NP", "El_NP", "SigmaNP", "Prf", "Prop", "plus",
    "refl", "Id", "Act", "Und", "CulOrAtel", "Cul", "isCul", "loop", "x", "y", "f",
)

# token kind -> texts that lex as exactly that kind
VOCABULARY: dict[str, tuple[str, ...]] = {
    "NAT": ("0", "1", "42"),
    "STRING": ('"missing.tel"', '""'),
    "IDENT": IDENTS,
}
for _text, _kind in _KINDS.items():
    VOCABULARY[_kind] = VOCABULARY.get(_kind, ()) + (_text,)
KINDS = sorted(VOCABULARY)

# text the lexer rejects or skips
NOISE = ("$", "_x", '"open', "-- a comment", "\n")

# declaration openings, so that some streams parse and reach the checker
OPENINGS = (
    "postulate {name} :",
    "def {name} :",
    "entail {name} :",
    "check",
    "norm",
    "fail TypeMismatch check",
    "rewrite (n : Nat) :",
)


# a lexer-shaped split that keeps whitespace, so pieces join back losslessly
_PIECE = re.compile(r"\s+|--[^\n]*|[A-Za-z][\w']*|\d+|->|=>|\(\+\)|\S")


@pytest.fixture(scope="module")
def prelude_processor() -> Processor:
    proc, reports = load_prelude(Processor(Kernel(fuel=FUZZ_FUEL)))
    assert all(r.ok for r in reports)
    return proc


def parsed(items) -> list[tuple]:
    """Parse results with their spans: a declaration's nested spans show
    in its repr, and a parse error compares by code, message and span."""
    return [
        (item.code, item.message, item.span) if isinstance(item, ParseError) else (repr(item),)
        for item in items
    ]


def parse_whole(text: str, name: str) -> tuple:
    """``text`` parsed from one chunk of all its tokens."""
    return tuple(_Parser([], name).declarations(iter([scanned(text)])))


def check_reports(proc: Processor, text: str, name: str, base) -> None:
    items = parse_file(text, name)
    assert parsed(items) == parsed(parse_whole(text, name)), f"{name}: streaming changed the parse"
    with proc.rollback():
        reports = proc.process_text(text, name, base)
    assert all(type(r) is Report for r in reports)
    spans = [(r.span.line, r.span.col) for r in reports]
    assert spans == sorted(spans), f"{name}: reports out of source order"
    i = 0
    halted = False
    for item in items:
        if isinstance(item, ParseError):
            assert i < len(reports), f"{name}: parse error at line {item.span.line} has no report"
            assert (reports[i].kind, reports[i].message) == ("parse", item.message)
            i += 1
        elif not halted:
            assert i < len(reports), f"{name}: declaration at line {item.span.line} has no report"
            report = reports[i]
            assert report.kind == item.kind, f"{name}: {report.render()}"
            assert report.name == item.name, f"{name}: {report.render()}"
            halted = not report.ok and Processor.binds(item)
            i += 1
    assert i == len(reports), f"{name}: {len(reports) - i} reports more than the parse result"


def random_token(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return rng.choice(NOISE)
    kind = "IDENT" if rng.random() < 0.4 else rng.choice(KINDS)
    return rng.choice(VOCABULARY[kind])


def random_stream(rng: random.Random) -> str:
    """A few declaration openings, each followed by random tokens; a
    stream may also start with tokens before any opening."""
    lines = []
    for k in range(rng.randrange(1, 6)):
        words = [] if k == 0 and rng.random() < 0.2 else [rng.choice(OPENINGS).format(name=f"d{k}")]
        words += [random_token(rng) for _ in range(rng.randrange(1, 12))]
        lines.append(" ".join(words))
    return "\n".join(lines)


def mutate(rng: random.Random, text: str) -> str:
    op = rng.choice(("delete", "duplicate", "swap"))
    if rng.random() < 0.5:
        pieces = _PIECE.findall(text)
        solid = [k for k, p in enumerate(pieces) if not p.isspace()]
    else:
        pieces = list(text)
        solid = list(range(len(pieces)))
    for _ in range(rng.randrange(1, 4)):
        k = rng.choice(solid)
        if op == "delete":
            pieces[k] = ""
        elif op == "duplicate":
            pieces[k] = pieces[k] + " " + pieces[k] if len(pieces[k]) > 1 else pieces[k] * 2
        else:
            j = rng.choice(solid)
            pieces[k], pieces[j] = pieces[j], pieces[k]
    return "".join(pieces)


def test_random_token_streams_lex_as_drawn():
    rng = random.Random(20261)
    for _ in range(300):
        kinds = [rng.choice(KINDS) for _ in range(rng.randrange(1, 30))]
        texts = [rng.choice(VOCABULARY[k]) for k in kinds]
        tokens = tokenize(" ".join(texts), "<stream>")
        assert [t.kind for t in tokens] == kinds + ["EOF"]
        assert [t.text for t in tokens[:-1]] == [
            t.strip('"') if k == "STRING" else t for k, t in zip(kinds, texts)
        ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_token_streams_only_produce_reports(prelude_processor, tmp_path, seed):
    rng = random.Random(seed)
    for k in range(150):
        check_reports(prelude_processor, random_stream(rng), f"<stream {seed}.{k}>", tmp_path)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_mutated_corpus_files_only_produce_reports(prelude_processor, tmp_path, case):
    rng = random.Random(case.name)
    text = (corpus_dir() / case.entry).read_text()
    check_reports(prelude_processor, text, case.entry, tmp_path)
    for k in range(6):
        check_reports(prelude_processor, mutate(rng, text), f"{case.name}.{k}.tel", tmp_path)
