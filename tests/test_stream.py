"""Files are tokenized, parsed and checked one declaration at a time.

The parser's boundaries are where streaming could change a report: a
parse error that consumes the next declaration's keyword, a `fail` that
nests one on purpose, lexical errors, nesting too deep to parse and the
end of the file. Each case pins the rendered reports, which are the same
as when the whole file was parsed before the first check.
"""

from __future__ import annotations

import subprocess
import sys
import tracemalloc

import pytest

from telic.elaborate import Processor, render_reports

DEEP = "(" * 3000

BOUNDARIES = {
    "swallowed-keyword": (
        "postulate A : Type\npostulate a : A\ncheck a :\ndef b : A = a\ncheck b : A\n",
        [
            "s.tel:1:1: ok: postulate A",
            "s.tel:2:1: ok: postulate a",
            "s.tel:4:1: error: parse [ParseError]: expected an expression, found 'def'",
            "s.tel:5:7: error: check [UnboundVariable]: `b` is not in scope",
        ],
    ),
    "unknown-code": (
        "postulate A : Type\nfail Nope check A : Type\n",
        [
            "s.tel:1:1: ok: postulate A",
            "s.tel:2:6: error: parse [ParseError]: unknown error code `Nope`",
            "s.tel:2:11: ok: check",
        ],
    ),
    "fail-chain": (
        "postulate A : Type\n"
        "fail TypeMismatch fail TypeMismatch fail TypeMismatch check A : A\n"
        "check A : Type\n",
        [
            "s.tel:1:1: ok: postulate A",
            "s.tel:2:1: ok: fail: fail rejected with TypeMismatch as expected",
            "s.tel:3:1: ok: check",
        ],
    ),
    "lexical-error-at-the-end": (
        "postulate A : Type\npostulate a : A $\ncheck A : Type\ncheck Type : Type1 @",
        [
            "s.tel:1:1: ok: postulate A",
            "s.tel:2:17: error: parse [IllegalCharacter]: illegal character '$'",
            "s.tel:3:1: ok: check",
            "s.tel:4:20: error: parse [IllegalCharacter]: illegal character '@'",
        ],
    ),
    "unclosed-parentheses": (
        f"postulate A : Type\ncheck {DEEP}\ncheck A : Type\npostulate a : A\ncheck a : A\n",
        [
            "s.tel:1:1: ok: postulate A",
            "s.tel:2:1: error: parse [ParseError]: declaration nests too deeply to parse",
            "s.tel:3:1: ok: check",
            "s.tel:4:1: ok: postulate a",
            "s.tel:5:1: ok: check",
        ],
    ),
    "end-of-file-in-a-def": (
        "postulate A : Type\ndef a : A =",
        [
            "s.tel:1:1: ok: postulate A",
            "s.tel:2:12: error: parse [ParseError]: expected an expression, found end of file",
        ],
    ),
    "end-of-file-in-a-fail": (
        "postulate A : Type\nfail TypeMismatch",
        [
            "s.tel:1:1: ok: postulate A",
            "s.tel:2:18: error: parse [ParseError]: expected a declaration, found end of file",
        ],
    ),
}


@pytest.mark.parametrize("text, rendered", BOUNDARIES.values(), ids=BOUNDARIES)
def test_parser_boundaries(text, rendered):
    reports = Processor().process_text(text, "s.tel")
    assert render_reports(reports).splitlines() == rendered


def test_checking_holds_one_declaration_at_a_time():
    # What a whole-file parse held until the last check (4.3 MB of tokens
    # and nodes here) is gone: only the reports outlive their declaration.
    # Each check fails, since Type1 has no type, and costs the kernel little.
    text = "check Type : Type1\n" * 5000
    proc = Processor()
    tracemalloc.start()
    try:
        reports = proc.process_text(text, "<many>")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.code for r in reports] == ["UniverseMismatch"] * 5000
    assert (peak - retained) / 2**20 < 0.25, f"{(peak - retained) / 2**20:.2f} MB"


# A child that starts `telic check` in a child of its own and prints that
# one's peak RSS in MB: in the test's process, RUSAGE_CHILDREN would be the
# largest of every child the session started.
PEAK_RSS = """
import resource, subprocess, sys
with open(sys.argv[2], "wb") as out:
    subprocess.run([sys.executable, "-m", "telic.cli", "check", sys.argv[1]], stdout=out, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def test_a_10428_declaration_lexicon_checks_in_at_most_40_mb(large_lexicon, tmp_path):
    reports = tmp_path / "reports.txt"
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, str(large_lexicon), str(reports)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 40
    lines = reports.read_text(encoding="utf-8").splitlines()
    assert sum(": ok: " in line for line in lines) == 10428
