"""Traced execution of one catwords CLI invocation, measured from outside.

    python3 bench/tracer.py --result RESULT.json -- ARGV... > OUT

imports catwords, rebinds the public functions of each layer to timing
wrappers defined here, runs ``catwords.cli.main(ARGV)`` with its writes to
stdout timed, and writes to RESULT.json the self time and call count of every
span name, the exact work counts, and the span records (id, name, start, end,
parent).  Nothing under src/ is changed: a wrapper replaces a function by
rebinding every module attribute of catwords that refers to it.

Spans are kept in memory and written once, at the end.  A span's self time is
its duration minus the time of the spans it directly contains.  Functions
called hundreds of thousands of times (the enumeration generator's next(),
format_word, stdout writes) are "hot": their time and calls are summed, and
charged to the enclosing span, but no record is kept per call.

A function that a later version of catwords no longer has is skipped, and its
metrics read 0; a new public function of cfrac or catalan is picked up.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict

sys.dont_write_bytecode = True

from checks import catalan  # noqa: E402  (bench/ is sys.path[0])

# Per-layer metrics, in the order of BENCHMARK.json: (name, unit, better).
PER_LAYER = (
    ("polyring.series_div.self_s", "s", "lower"),
    ("polyring.series_div.calls", "count", "lower"),
    ("polyring.specialize.self_s", "s", "lower"),
    ("polyring.series_from_poly.self_s", "s", "lower"),
    ("polyring.mul.calls", "count", "lower"),
    ("polyring.mul.term_pairs", "count", "lower"),
    ("polyring.coeff_bits_max", "bits", "lower"),
    ("cfrac.self_s", "s", "lower"),
    ("cfrac.tail_convergent.self_s", "s", "lower"),
    ("cfrac.expansions", "count", "lower"),
    ("catalan.self_s", "s", "lower"),
    ("oracle.enumerate.self_s", "s", "lower"),
    ("oracle.passes", "count", "lower"),
    ("oracle.words", "count", "lower"),
    ("oracle.useful_ratio", "ratio", "higher"),
    ("oracle.tally.self_s", "s", "lower"),
    ("oracle.words_per_s", "1/s", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.run_verify.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.write.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Counts that must repeat exactly from one traced run of an invocation to the next.
EXACT_COUNTS = (
    "polyring.series_div.calls",
    "polyring.mul.calls",
    "polyring.mul.term_pairs",
    "polyring.coeff_bits_max",
    "cfrac.expansions",
    "oracle.passes",
    "oracle.words",
    "cli.output_bytes",
)

# (module, attribute, span name) for the spans recorded one by one.  The
# oracle tallies are listed under their present names and the single
# `tally` the roadmap proposes in their place.
COLD_SPANS = (
    ("polyring", "series_div", "polyring.series_div"),
    ("polyring", "series_from_poly", "polyring.series_from_poly"),
    ("oracle", "letter_histogram", "oracle.tally"),
    ("oracle", "monomial_multiset", "oracle.tally"),
    ("oracle", "bounded_count", "oracle.tally"),
    ("oracle", "tally", "oracle.tally"),
    ("cli", "run_verify", "cli.run_verify"),
    ("cli", "_render_series", "cli.render"),
    ("cli", "render_verify", "cli.render"),
    ("cli", "_json_text", "cli.render"),
    ("cli", "_csv_text", "cli.render"),
)
# Every public function of these modules gets a span named "<module>.<function>".
LAYER_MODULES = ("catalan", "cfrac")

# Slots of a frame on the span stack.
_CHILD, _ID = range(2)


class Tracer:
    """A span stack, per-name self times and call counts, and exact work counters."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.hot: dict[str, list] = {}
        self.lengths: set[int] = set()
        self.ids = itertools.count()

    def wrap(self, name: str, fn):
        """A wrapper recording one span per call of fn."""
        stack, spans, self_s, calls, clock, ids = (
            self.stack, self.spans, self.self_s, self.calls, self.clock, self.ids
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][_ID] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s[name] += end - start - frame[_CHILD]
                calls[name] += 1
                if stack:
                    stack[-1][_CHILD] += end - start
                spans.append((frame[_ID], name, start, end, parent))

        return traced

    def hot_accumulator(self, name: str) -> list:
        """[seconds, calls] summed by a hot wrapper and merged by finish()."""
        return self.hot.setdefault(name, [0.0, 0])

    def wrap_hot(self, name: str, fn):
        """A wrapper summing the time of fn into the enclosing span, without records."""
        acc, stack, clock = self.hot_accumulator(name), self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            acc[0] += elapsed
            acc[1] += 1
            stack[-1][_CHILD] += elapsed
            return result

        return traced

    def finish(self) -> None:
        for name, (seconds, count) in self.hot.items():
            self.self_s[name] += seconds
            self.calls[name] += count
        self.hot.clear()
        self.counts["oracle.words_needed"] = sum(catalan(n) for n in self.lengths)


class TracedStream:
    """Stand-in for sys.stdout that times each write and flush as `cli.write`."""

    def __init__(self, handle, tracer: Tracer) -> None:
        self._handle = handle
        self.write = tracer.wrap_hot("cli.write", handle.write)
        self.flush = tracer.wrap_hot("cli.write", handle.flush)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _rebind(original, replacement) -> None:
    """Point every catwords module attribute that is `original` at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "catwords" and not module_name.startswith("catwords."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _traced_enumerate(tracer: Tracer, original):
    """Wrap the enumeration generator: count passes and words, time each next()."""
    acc, stack, clock, counts = (
        tracer.hot_accumulator("oracle.enumerate"), tracer.stack, tracer.clock, tracer.counts
    )

    @functools.wraps(original)
    def enumerate_words(n, *args, **kwargs):
        counts["oracle.passes"] += 1
        tracer.lengths.add(n)
        words = original(n, *args, **kwargs)
        yielded = 0
        try:
            while True:
                start = clock()
                try:
                    word = next(words)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    acc[0] += elapsed
                    acc[1] += 1
                    stack[-1][_CHILD] += elapsed
                yielded += 1
                yield word
        finally:
            counts["oracle.words"] += yielded

    return enumerate_words


def _counted_mul(tracer: Tracer, polynomial_type, original):
    """Count Polynomial products, their term pairs and the widest coefficient.

    Not a span: the product's time stays in the caller's self time, so that
    series_div and specialize show the arithmetic they drive.
    """
    counts = tracer.counts

    @functools.wraps(original)
    def __mul__(self, other):
        result = original(self, other)
        if result is NotImplemented:
            return result
        other_terms = len(other) if isinstance(other, polynomial_type) else int(other != 0)
        counts["polyring.mul.calls"] += 1
        counts["polyring.mul.term_pairs"] += len(self) * other_terms
        if result:
            widest = max(abs(coeff) for _, coeff in result.sorted_terms()).bit_length()
            if widest > counts["polyring.coeff_bits_max"]:
                counts["polyring.coeff_bits_max"] = widest
        return result

    return __mul__


def install(tracer: Tracer) -> None:
    """Rebind the layer boundaries of the imported catwords package to tracer wrappers."""
    modules = {
        name: importlib.import_module(f"catwords.{name}")
        for name in ("polyring", "catalan", "cfrac", "oracle", "cli")
    }

    for module_name in LAYER_MODULES:
        module = modules[module_name]
        for attr in getattr(module, "__all__", ()):
            value = getattr(module, attr)
            if inspect.isfunction(value):
                _rebind(value, tracer.wrap(f"{module_name}.{attr}", value))
    for module_name, attr, span in COLD_SPANS:
        value = getattr(modules[module_name], attr, None)
        if inspect.isfunction(value):
            _rebind(value, tracer.wrap(span, value))

    oracle, polyring = modules["oracle"], modules["polyring"]
    if inspect.isfunction(getattr(oracle, "format_word", None)):
        _rebind(oracle.format_word, tracer.wrap_hot("cli.render", oracle.format_word))
    if inspect.isfunction(getattr(oracle, "enumerate_words", None)):
        _rebind(oracle.enumerate_words, _traced_enumerate(tracer, oracle.enumerate_words))

    polynomial = getattr(polyring, "Polynomial", None)
    if polynomial is not None:
        specialize = getattr(polynomial, "specialize", None)
        if inspect.isfunction(specialize):
            polynomial.specialize = tracer.wrap("polyring.specialize", specialize)
        mul = getattr(polynomial, "__mul__", None)
        if inspect.isfunction(mul):
            counted = _counted_mul(tracer, polynomial, mul)
            polynomial.__mul__ = counted
            if polynomial.__dict__.get("__rmul__") is mul:
                polynomial.__rmul__ = counted


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics from the summed raw results of one round of invocations.

    `raw` has "self_s" and "calls" keyed by span name and "counts" keyed by
    counter name; trace.wall_s and trace.overhead_s are filled in by the caller.
    """
    self_s, calls, counts = raw["self_s"], raw["calls"], raw["counts"]

    def layer(prefix: str) -> float:
        return sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)

    words = counts.get("oracle.words", 0)
    enumerate_s = self_s.get("oracle.enumerate", 0.0)
    return {
        "polyring.series_div.self_s": self_s.get("polyring.series_div", 0.0),
        "polyring.series_div.calls": calls.get("polyring.series_div", 0),
        "polyring.specialize.self_s": self_s.get("polyring.specialize", 0.0),
        "polyring.series_from_poly.self_s": self_s.get("polyring.series_from_poly", 0.0),
        "polyring.mul.calls": counts.get("polyring.mul.calls", 0),
        "polyring.mul.term_pairs": counts.get("polyring.mul.term_pairs", 0),
        "polyring.coeff_bits_max": counts.get("polyring.coeff_bits_max", 0),
        "cfrac.self_s": layer("cfrac."),
        "cfrac.tail_convergent.self_s": self_s.get("cfrac.tail_convergent", 0.0),
        "cfrac.expansions": calls.get("cfrac.expand_ratio", 0),
        "catalan.self_s": layer("catalan."),
        "oracle.enumerate.self_s": enumerate_s,
        "oracle.passes": counts.get("oracle.passes", 0),
        "oracle.words": words,
        "oracle.useful_ratio": counts.get("oracle.words_needed", 0) / words if words else 0.0,
        "oracle.tally.self_s": self_s.get("oracle.tally", 0.0),
        "oracle.words_per_s": words / enumerate_s if enumerate_s else 0.0,
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.run_verify.self_s": self_s.get("cli.run_verify", 0.0),
        "cli.render.self_s": self_s.get("cli.render", 0.0),
        "cli.write.self_s": self_s.get("cli.write", 0.0),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
    }


def merge_raw(results: list[dict]) -> dict:
    """Sum the raw results of several invocations (the widest coefficient is a max)."""
    merged: dict = {"self_s": Counter(), "calls": Counter(), "counts": Counter()}
    for result in results:
        for key in merged:
            merged[key].update(result[key])
    widest = [r["counts"].get("polyring.coeff_bits_max", 0) for r in results]
    merged["counts"]["polyring.coeff_bits_max"] = max(widest, default=0)
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="where to write the trace as JSON")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the catwords arguments")
    args = parser.parse_args(argv)
    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    install(tracer)
    from catwords import cli

    traced_main = tracer.wrap("cli.main", cli.main)
    stdout = sys.stdout
    sys.stdout = TracedStream(stdout, tracer)
    try:
        status = traced_main(cli_argv)
    finally:
        sys.stdout = stdout
    stdout.flush()
    tracer.counts["cli.output_bytes"] = os.fstat(stdout.fileno()).st_size
    tracer.finish()
    with open(args.result, "w", encoding="utf-8") as out:
        json.dump(
            {
                "argv": cli_argv,
                "status": status,
                "self_s": tracer.self_s,
                "calls": tracer.calls,
                "counts": tracer.counts,
                "spans": tracer.spans,
            },
            out,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
