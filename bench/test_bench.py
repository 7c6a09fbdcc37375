"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench

They check that the generators are deterministic, that small draws check
clean, that a wrong expected value counts as a failed operation, and that
the traced run survives a missing function and repeats its counts.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import telic  # noqa: E402
import telic.cli  # noqa: E402
import telic.prelude  # noqa: E402
import workloads  # noqa: E402

WORK = BENCH / "out" / "test"
PRELUDE = str(telic.prelude_path())


def _pass(workload, traced=False) -> run.Pass:
    return run.one_pass(telic, probe, workload, PRELUDE, traced)


def _generated(sources: list[gen.Source]) -> workloads.Generated:
    WORK.mkdir(parents=True, exist_ok=True)
    return workloads.Generated(telic, sources, WORK)


class GeneratorTest(unittest.TestCase):
    def test_one_seed_gives_one_input(self):
        self.assertEqual(gen.lexicon(7, rounds=1), gen.lexicon(7, rounds=1))
        self.assertEqual(gen.reduction(7), gen.reduction(7))
        self.assertNotEqual(gen.lexicon(7, rounds=1).text, gen.lexicon(8, rounds=1).text)
        self.assertNotEqual(gen.reduction(7)[0].text, gen.reduction(8)[0].text)

    def test_lexicon_rounds_follow_the_corpus_kinds(self):
        corpus = gen.corpus_kinds(BENCH.parent / "src" / "telic" / "data" / "corpus")
        self.assertEqual(dict(corpus), gen.CORPUS_KINDS)
        # Less the corpus's import and its FuelExhausted rejection.
        corpus.subtract({"import": 1, "fail": 1})
        per_round = Counter(e.kind for e in gen.lexicon(1, rounds=1).expect)
        self.assertEqual(+corpus, per_round)

    def test_seed_keeps_the_make_up(self):
        def make_up(src):
            return sorted(e.cls for e in src.expect)

        self.assertEqual(make_up(gen.lexicon(1)), make_up(gen.lexicon(2)))
        self.assertEqual([make_up(s) for s in gen.reduction(1)], [make_up(s) for s in gen.reduction(2)])


class CheckTest(unittest.TestCase):
    def test_small_lexicon_checks_clean(self):
        for seed in (1, 2):
            p = _pass(_generated([gen.lexicon(seed, rounds=1)]))
            self.assertEqual((p.failed, p.problems), (0, []))

    def test_reduction_fails_only_its_known_faults(self):
        sources = gen.reduction(3)
        p = _pass(_generated(sources))
        self.assertEqual(p.problems, [])
        self.assertEqual(p.failed, sum(e.known_fault for s in sources for e in s.expect))
        self.assertEqual(p.failed, 2)

    def test_wrong_expected_value_counts_as_failed(self):
        src = gen.lexicon(4, rounds=1)
        k = next(i for i, e in enumerate(src.expect) if e.cls == "sum")
        claimed = int(src.lines[k].rsplit("= ", 1)[1])
        src.lines[k] = src.lines[k].rsplit("= ", 1)[0] + f"= {claimed + 1}"
        p = _pass(_generated([src]))
        self.assertEqual(p.failed, 1)
        self.assertEqual(len(p.problems), 1)

        src = gen.lexicon(4, rounds=1)
        src.expect[k] = dataclasses.replace(src.expect[k], normal_form=str(claimed + 1))
        p = _pass(_generated([src]))
        self.assertEqual(p.failed, 1)

    def test_selftest_checks_against_goldens(self):
        w = workloads.make("selftest", telic, BENCH.parent, 0, WORK)
        self.assertEqual(len(w.goldens), 19)
        p = _pass(w)
        self.assertEqual((p.failed, p.problems), (0, []))
        self.assertEqual(len(p.op_s), w.ops_per_pass)


    def test_selftest_golden_mismatch_is_a_problem(self):
        w = workloads.make("selftest", telic, BENCH.parent, 0, WORK)
        golden = w.goldens["case01_nouns_and_identity.tel"]
        golden[0] = dict(golden[0], name="someone_else")
        p = _pass(w)
        self.assertEqual(p.failed, 1)
        self.assertTrue(p.problems)


class TraceTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        w = _generated([gen.lexicon(5, rounds=1)])
        first, second = _pass(w, traced=True), _pass(w, traced=True)
        for name in probe.DETERMINISTIC:
            _, sources, read = probe.LAYER_METRICS[name]
            self.assertEqual(read({}, first.tracer.counts), read({}, second.tracer.counts), name)
        self.assertGreater(first.tracer.counts["kernel.whnf_calls"], 0)

    def test_missing_function_is_reported_absent(self):
        # As if a refactor had removed the prelude audit.
        w = _generated([gen.lexicon(6, rounds=1)])
        saved = telic.prelude.prelude_self_check
        del telic.prelude.prelude_self_check
        try:
            passes = [_pass(w), _pass(w, traced=True)]
        finally:
            telic.prelude.prelude_self_check = saved
        self.assertEqual((passes[1].failed, passes[1].problems), (0, []))
        metrics, absent, unsteady = run.per_layer(probe, passes)
        self.assertEqual((absent, unsteady), (["prelude.self_check_s"], []))
        self.assertNotIn("prelude.self_check_s", metrics)
        self.assertIn("kernel.whnf_calls", metrics)

    def test_unwraps_after_a_pass(self):
        before = (telic.elaborate.Processor.run_declaration, telic.kernel.Kernel.whnf, telic.cli.check_case)
        _pass(_generated([gen.lexicon(6, rounds=1)]), traced=True)
        after = (telic.elaborate.Processor.run_declaration, telic.kernel.Kernel.whnf, telic.cli.check_case)
        self.assertEqual(before, after)


class CommandTest(unittest.TestCase):
    def test_without_sources_it_fails_without_a_result(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench" / f.name)
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "lexicon", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        self.assertNotEqual(out.returncode, 0)
        self.assertFalse([line for line in out.stdout.splitlines() if line.startswith("{")])

    def test_prints_one_result_line(self):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "reduction", "--seed", "2", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, timeout=180, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        per_pass = sum(len(s.expect) for s in gen.reduction(2))
        self.assertEqual(result["failed"] * per_pass, 2 * result["attempted"])
        bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in bench["end_to_end"]})


if __name__ == "__main__":
    unittest.main()
