"""The three workloads and how their outputs are checked.

A workload has a ``setup`` that is not timed (a fresh processor with the
prelude loaded, as ``telic check`` pays before the first user declaration)
and a ``run`` that is. Every pass builds its state afresh, so no pass reuses
what an earlier one built. ``check`` compares the operations a pass ran
with the expected outcomes and returns how many failed plus any problem
that is not the failure of an operation.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path, PurePath

import gen
from probe import Op


def _matches(op: Op, expect: gen.Expect) -> bool:
    r = op.report
    return (
        r is not None
        and r.status == "ok"
        and r.kind == expect.kind
        and r.name == expect.name
        and (expect.normal_form is None or r.normal_form == expect.normal_form)
    )


class Selftest:
    """``telic selftest --format structured``, in process, checked against
    the repository goldens."""

    def __init__(self, telic, root: Path):
        self.cli = telic.cli
        self.portable = telic.corpus.portable
        golden_dir = root / "src" / "telic" / "data" / "corpus" / "golden"
        self.goldens = {p.stem + ".tel": json.loads(p.read_text()) for p in sorted(golden_dir.glob("*.json"))}
        # The case's own declarations report against its entry file; reports
        # of an imported file belong to the `import` that pulled it in.
        self.top = {entry: [i for i, g in enumerate(golden) if g["file"] == entry]
                    for entry, golden in self.goldens.items()}
        self.ops_per_pass = sum(len(v) for v in self.top.values())

    def setup(self):
        return None

    def run(self, state) -> str:
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.cli.main(["selftest", "--format", "structured"])
        return f"{code}\n{out.getvalue()}"

    def check(self, ops: list[Op], output: str) -> tuple[int, list[str]]:
        by_file: dict[str, list[Op]] = {}
        for op in ops:
            by_file.setdefault(PurePath(op.file).name, []).append(op)
        failed_cases = set()
        failed = 0
        problems = []
        for entry, indices in self.top.items():
            got = {op.index: op for op in by_file.pop(entry, [])}
            for i in indices:
                op = got.pop(i, None)
                data = None if op is None or op.report is None else self.portable(op.report)
                if data != self.goldens[entry][i]:
                    # No selftest operation is a known fault.
                    failed += 1
                    failed_cases.add(entry[: -len(".tel")])
                    problems.append(f"{entry}: declaration {i + 1} differs from its golden")
            if got:
                problems.append(f"{entry}: {len(got)} declarations the golden does not list")
        if by_file:
            problems.append(f"declarations from unexpected files: {sorted(by_file)}")

        code, _, text = output.partition("\n")
        lines = [json.loads(line) for line in text.splitlines()]
        if len(lines) != len(self.goldens) + 2:
            return failed, problems + [f"selftest printed {len(lines)} lines"]
        prelude, cases, uncovered = lines[0]["prelude"], lines[1:-1], lines[-1]["uncovered"]
        if prelude["failed"] or not prelude["audits"]:
            problems.append(f"prelude audits failed: {prelude['failed']}")
        if uncovered:
            problems.append(f"uncovered prelude entries: {uncovered}")
        not_ok = {c["case"] for c in cases if not c["ok"]}
        if not_ok != failed_cases:
            problems.append(f"cases not ok {sorted(not_ok)} but failed operations in {sorted(failed_cases)}")
        if (code == "0") != (not failed and not problems):
            problems.append(f"selftest exited {code}")
        return failed, problems


class Generated:
    """Generated lexicon files run the way ``telic check FILE ..`` runs
    them: one prelude load, then the files in order on one processor."""

    def __init__(self, telic, sources: list[gen.Source], workdir: Path):
        self.telic = telic
        self.paths = []
        for src in sources:
            path = workdir / src.name
            path.write_text(src.text, encoding="utf-8")
            self.paths.append(path)
        self.expect = {src.name: src.expect for src in sources}
        self.ops_per_pass = sum(len(e) for e in self.expect.values())

    def setup(self):
        proc, reports = self.telic.load_prelude(self.telic.Processor())
        broken = [r.render() for r in reports if not r.ok]
        if broken:
            raise RuntimeError(f"prelude failed to load: {broken[0]}")
        return proc

    def run(self, proc) -> None:
        for path in self.paths:
            # Each file stands alone: an exception that escapes the processor
            # on one does not keep the next from running. The operation it
            # escaped from, or the ones it kept from running, count as failed.
            try:
                proc.process_path(path)
            except Exception:  # noqa: BLE001
                pass

    def check(self, ops: list[Op], _: None) -> tuple[int, list[str]]:
        by_file: dict[str, list[Op]] = {}
        for op in ops:
            by_file.setdefault(PurePath(op.file).name, []).append(op)
        failed = 0
        problems = []
        for name, expects in self.expect.items():
            got = by_file.pop(name, [])
            if len(got) > len(expects):
                problems.append(f"{name}: {len(got)} declarations, {len(expects)} generated")
            for k, expect in enumerate(expects):
                if k >= len(got) or not _matches(got[k], expect):
                    failed += 1
                    if not expect.known_fault:
                        problems.append(f"{name}: declaration {k + 1} ({expect.cls}) failed")
        if by_file:
            problems.append(f"declarations from unexpected files: {sorted(by_file)}")
        return failed, problems


def make(name: str, telic, root: Path, seed: int, workdir: Path):
    if name == "selftest":
        return Selftest(telic, root)
    if name == "lexicon":
        return Generated(telic, [gen.lexicon(seed)], workdir)
    if name == "reduction":
        return Generated(telic, gen.reduction(seed), workdir)
    raise ValueError(f"unknown workload {name!r}")
