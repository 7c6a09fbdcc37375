"""A fixed pure-Python computation that gauges how fast the machine runs now.

It builds and rebuilds a tree of small frozen objects by structural
recursion and pattern matching, the kind of work telic's term code does,
but it shares no code with telic, so no change to telic moves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True, slots=True)
class _Leaf:
    n: int


@dataclass(frozen=True, slots=True)
class _Node:
    left: object
    right: object


def _build(depth: int, seen: dict) -> object:
    if depth == 0:
        return _Leaf(len(seen))
    node = _Node(_build(depth - 1, seen), _build(depth - 1, seen))
    seen[len(seen) % 1031] = node
    return node


def _shift(t: object, k: int) -> object:
    match t:
        case _Leaf(n=n):
            return _Leaf(n + k)
        case _Node(left=left, right=right):
            return _Node(_shift(left, k), _shift(right, k))
    raise AssertionError(t)


def sample() -> float:
    """Seconds for one run of the computation."""
    start = perf_counter()
    _shift(_build(10, {}), 1)
    return perf_counter() - start
