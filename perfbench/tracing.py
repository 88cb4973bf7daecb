"""Spans around the calls into each layer of graphfix.

Tracing lives only in the benchmark: ``instrument`` replaces the public
functions listed in ``BOUNDARIES`` by wrappers that record a span (name,
start, end, parent, thread) around each call, at the place where the
caller looks the name up.  Spans stay in memory and are written when the
process ends.  A layer's self time is its spans' durations minus the
time their child spans cover.

Run as a script, this file is the traced CLI: it instruments the
process, runs ``graphfix.cli.main`` with the remaining arguments, and
writes its spans to the ``--spans`` file at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name).  An attribute is patched where its
# caller looks it up, so a nested call such as problem_from_dict ->
# space_from_dict shows up as a child span.
BOUNDARIES = [
    ("graphfix.problems", "space_from_dict", "metric.space"),
    ("graphfix.problems", "edges_from_dict", "metric.edges"),
    ("graphfix.problems", "problem_from_dict", "problems.load"),
    ("graphfix.cli", "builtin_problem", "problems.load"),
    ("dataclasses", "replace", "engine.restart"),
    ("graphfix.engine", "run_coincidence_iteration", "engine.walk"),
    ("graphfix.cli", "run_coincidence_iteration", "engine.walk"),
    ("graphfix.verifier", "verify_coincidence_hypotheses", "verifier.hypotheses"),
    ("graphfix.cli", "verify_coincidence_hypotheses", "verifier.hypotheses"),
    ("graphfix.verifier", "verify_kamran_inequality", "verifier.kamran"),
    ("graphfix.cli", "verify_kamran_inequality", "verifier.kamran"),
    ("graphfix.bernstein", "operator_matrix", "bernstein.matrix"),
    ("graphfix.bernstein", "iterate_to_limit", "bernstein.iterate"),
    ("graphfix.cli", "iterate_to_limit", "bernstein.iterate"),
    ("graphfix.bernstein", "IterateResult.evaluate_grid", "bernstein.eval"),
    ("graphfix.fbvp", "build_operator_matrix", "fbvp.kernel"),
    ("graphfix.fbvp", "picard_solve", "fbvp.picard"),
    ("graphfix.cli", "picard_solve", "fbvp.picard"),
    ("graphfix.serialize", "write_table", "serialize.table"),
    ("graphfix.cli", "write_table", "serialize.table"),
    ("graphfix.serialize", "json_dumps", "serialize.json"),
    ("graphfix.cli", "json_dumps", "serialize.json"),
    ("graphfix.cli", "json_dump", "serialize.json"),
]


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1]["name"] == name:
                return fn(*args, **kwargs)  # recursion inside one layer call
            with self._lock:
                span = {"id": len(self.spans), "name": name,
                        "parent": stack[-1]["id"] if stack else None,
                        "thread": threading.get_ident()}
                self.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()

        return traced

    def instrument(self) -> None:
        for module, attr, name in BOUNDARIES:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
    return dict(out)


def main(argv: list[str]) -> None:
    """python perfbench/tracing.py --spans FILE -- <graphfix arguments>"""
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.exit("usage: tracing.py --spans FILE -- <graphfix arguments>")
    tracer = Tracer()
    tracer.instrument()
    from graphfix.cli import main as cli_main

    try:
        cli_main(argv[3:], prog_name="graphfix")
    finally:
        tracer.write(argv[1])


if __name__ == "__main__":
    main(sys.argv[1:])
