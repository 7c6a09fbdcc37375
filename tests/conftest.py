from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from telic.elaborate import Processor
from telic.kernel import Kernel
from telic.prelude import load_prelude

ROOT = Path(__file__).resolve().parent.parent


def load_bench_gen():
    """``bench/gen.py``, the benchmark's input generator, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


@pytest.fixture
def bare_processor() -> Processor:
    """A processor with an empty signature."""
    return Processor()


@pytest.fixture
def loaded_processor() -> Processor:
    """A processor with the full prelude already in its signature."""
    proc, reports = load_prelude()
    bad = [r for r in reports if not r.ok]
    assert not bad, f"prelude failed to load: {bad[0].render()}"
    return proc


@pytest.fixture(scope="session")
def small_lexicon(tmp_path_factory) -> Path:
    """A file holding the benchmark's one-round lexicon, 237 declarations
    that check."""
    path = tmp_path_factory.mktemp("lexicon") / "lexicon.tel"
    path.write_text(load_bench_gen().lexicon(1, rounds=1).text)
    return path


@pytest.fixture(scope="session")
def large_lexicon(tmp_path_factory) -> Path:
    """A file holding the benchmark's 44-round lexicon, 10,428 declarations
    that check."""
    path = tmp_path_factory.mktemp("lexicon") / "lexicon.tel"
    path.write_text(load_bench_gen().lexicon(1, rounds=44).text)
    return path
