"""Command-line front end: expansions, closed forms, enumeration, verification.

``expand`` and ``cfrac`` take each coefficient from the recurrence that
computes it and write it before the next is computed, so memory holds a few
coefficients at a time, never the whole series or the whole output;
``rational`` writes one part at a time.  ``expand`` writes the letter series
straight from the division's dense rows of V-coefficients, with the text of
each power of V from a table; ``cfrac`` and ``rational`` write each
polynomial from its packed keys (``Polynomial.format_json`` and
``format_plain``); both routes write terms through ``polyring``'s one plain
and one JSON writer.  JSON takes the layout that ``json.dumps(..., indent=2)``
gives.  A letter above the expansion order costs nothing: no word that short
uses it, so ``expand`` prints the Catalan numbers without building the
letter's closed form.  ``json``, ``csv`` and ``tempfile`` are imported only on
the paths that use them, so a command does not pay for them at start-up.

Exit codes: 0 on success, 1 when verification fails, 2 on usage errors and
when the output file or stdout cannot be written, stdout closed before the
run included, and 130 when the run is interrupted (Ctrl-C), which prints one
line on stderr instead of a traceback.  A reader that closes stdout early
(``catwords enumerate --length 14 | head``) ends the run quietly with the
status it would otherwise have had.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import stat
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from itertools import islice
from operator import methodcaller

from . import catalan, cfrac, oracle
from .polyring import Polynomial, _check_int, _plain_series, _v_row_text, monomial_str

FORMATS = ("plain", "json", "csv")
DEFAULT_VERIFY_LETTERS = (1, 2, 3, 4, 5)

__all__ = [
    "Check",
    "VerifyReport",
    "build_parser",
    "main",
    "render_verify",
    "run_verify",
]


def _at_least(minimum: int, text: str) -> int:
    # ASCII decimal digits only: int() would also take "５", "1_0", " 3 " and
    # "+3".  Argparse names the type function on a ValueError.
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
    return value


_positive = partial(_at_least, 1)
_nonnegative = partial(_at_least, 0)


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return text


def _json_text(obj) -> str:
    import json

    return json.dumps(obj, indent=2) + "\n"


class _Echo:
    """A file whose write returns its text, so that csv.writer's writerow does."""

    def write(self, text: str) -> str:
        return text


def _csv_rows(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The lines of a CSV table, one chunk per row, header first."""
    import csv

    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(header)
    for row in rows:
        yield writer.writerow(row)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    return "".join(_csv_rows(header, rows))


def _render_series(
    order: int, coefficients: Iterable, fmt: str, text: Callable[..., str] | None = None
) -> Iterator[str]:
    """The rendered series, one chunk per coefficient, each coefficient taken
    from the iterable only when its chunk is rendered.  text(coefficient) is
    the coefficient as written: its ``format_json(2)`` in JSON, else its
    ``format_plain(ascending=True)``; by default the coefficients are Polynomials."""
    if text is None:
        as_json = fmt == "json"
        text = methodcaller("format_json", 2) if as_json else methodcaller("format_plain", True)
    # Each chunk replaces its coefficient, so that no other copy of it is held
    # while it is written and the next coefficient is computed.
    if fmt == "plain":
        yield from _plain_series(coefficients, text)
        yield "\n"
    elif fmt == "json":
        yield f'{{\n  "order": {order},\n  "coeffs": ['
        separator = "\n    "
        for coeff in coefficients:
            coeff = separator + text(coeff)
            yield coeff
            separator = ",\n    "
        yield "\n  ]\n}\n"
    else:
        # A plain polynomial holds no comma, quote or newline: no field needs quoting.
        yield "n,coefficient\n"
        for n, coeff in enumerate(coefficients):
            coeff = f"{n},{text(coeff)}\n"
            yield coeff


def _render_rational(form: cfrac.LetterGF, fmt: str) -> Iterator[str]:
    """The rendered closed form, one chunk per part."""
    if fmt == "plain":
        yield f"numerator: {form.numerator.format_plain()}\n"
        yield f"denominator: {form.denominator.format_plain()}\n"
    elif fmt == "json":
        yield f'{{\n  "letter": {form.letter},\n  "numerator": '
        yield form.numerator.format_json(1)
        yield ',\n  "denominator": '
        yield form.denominator.format_json(1) + "\n}\n"
    else:
        yield "part,polynomial\n"
        yield f"numerator,{form.numerator.format_plain()}\n"
        yield f"denominator,{form.denominator.format_plain()}\n"


def _render_enumerate(
    length: int, max_letter: int | None, histogram_letter: int | None, fmt: str
) -> Iterator[str]:
    """The rendered words or histogram, one chunk at a time."""
    if histogram_letter is not None:
        hist = oracle.letter_histogram(length, histogram_letter)
        if fmt == "plain":
            yield "".join(f"{k}: {count}\n" for k, count in hist.counts.items())
        elif fmt == "json":
            yield _json_text(
                {
                    "letter": hist.letter,
                    "length": hist.length,
                    "counts": {str(k): count for k, count in hist.counts.items()},
                }
            )
        else:
            yield _csv_text(["k", "count"], hist.counts.items())
        return
    words = map(oracle.format_word, oracle.enumerate_words(length, max_letter))
    if fmt == "json":
        from json.encoder import encode_basestring_ascii

        # Stream the words array into the document that json.dumps would give.
        document = {"length": length, "max_letter": max_letter, "words": []}
        head, tail = _json_text(document).split("[]")
        yield head + "["
        words, first, joiner = map(encode_basestring_ascii, words), "\n    ", ",\n    "
    elif fmt == "plain":
        words, first, joiner = (word + "\n" for word in words), "", ""
    else:
        words, first, joiner = _csv_rows(["word"], ([word] for word in words)), "", ""
    # A batch of words per chunk: one write per word costs more than encoding it.
    separator = first
    while batch := list(islice(words, 4096)):
        yield separator + joiner.join(batch)
        separator = joiner
    if fmt == "json":
        yield ("]" if separator == first else "\n  ]") + tail


class Check(namedtuple("Check", "description status expected actual at", defaults=("",))):
    """One verify check; status is "pass" or "fail".  expected and actual are
    the two values compared, a Polynomial or an int, printed with str() only
    by the renderers that show them.  A failed polynomial check keeps only the
    first monomial, in sorted_terms order, whose coefficients differ: ``at``
    names it ("" for the constant term) and expected/actual are its two
    coefficients."""

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "checks words_enumerated")):
    """The checks of ``run_verify``, in order, and how many words it enumerated."""

    __slots__ = ()

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return len(self.checks) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_verify(max_length: int, letters: Sequence[int] | None = None) -> VerifyReport:
    """Cross-check the symbolic pipeline against brute-force enumeration.

    For every length n up to max_length: word count vs the Catalan number,
    the multivariate z^n coefficient vs the enumerated monomial multiset,
    per-letter histograms vs the letter series, and bounded counts vs the
    bounded series.  Then the determinant identity of the convergents is
    checked symbolically through depth min(max_length, 10).
    """
    _check_int("max_length", max_length, 1)
    for i in letters or ():
        _check_int("letter", i, 1)
    tracked = sorted(set(letters)) if letters else list(DEFAULT_VERIFY_LETTERS)

    checks: list[Check] = []
    words_total = 0

    def add(description: str, expected, actual) -> None:
        if expected == actual:
            checks.append(Check(description, "pass", expected, actual))
            return
        at = ""
        if isinstance(expected, Polynomial):
            key = (expected - actual).sorted_terms()[0][0]
            at = monomial_str(key) if key else ""
            expected, actual = expected.coefficient(key), actual.coefficient(key)
        checks.append(Check(description, "fail", expected, actual, at))

    # Truncation never changes lower coefficients, so each series is expanded
    # once, at order max_length, and read at every n.  A word of length n never
    # uses a letter above n, so the multivariate series at depth max_length has
    # the same z^n coefficient as at depth n.
    full = cfrac.gf_full(max_length, cfrac.TAIL_CATALAN, max_length)
    letter_series = {i: cfrac.letter_gf_series(i, max_length) for i in tracked}
    heights = range(1, max_length + 1)
    bounded_series = {h: cfrac.bounded_letter_series(h, max_length) for h in heights}
    cat = catalan.catalan_numbers(max_length)
    for n in range(1, max_length + 1):
        counts = oracle.tally(n)
        count = sum(counts.values())
        words_total += count
        add(f"n={n} word count", cat[n], count)

        add(f"n={n} multivariate coefficient", oracle.multiset_of(counts), full.coefficient(n))

        for i in tracked:
            hist = oracle.histogram_of(counts, n, i)
            hist_text = "{" + ",".join(f"{k}:{v}" for k, v in hist.counts.items()) + "}"
            series = letter_series[i]
            add(f"n={n},i={i} histogram {hist_text}", hist.as_polynomial(), series.coefficient(n))

        for h in range(1, n + 1):
            bounded = oracle.bounded_count_of(counts, h)
            series = bounded_series[h]
            add(f"n={n},h={h} bounded count", Polynomial.constant(bounded), series.coefficient(n))

    quotients = cfrac.generic_quotients(min(max_length, 10))
    lower = cfrac.convergent(0, quotients)
    product = Polynomial.one()
    for depth, quotient in enumerate(quotients, 1):
        upper = cfrac.convergent(depth, quotients)
        determinant = upper.h * lower.k - lower.h * upper.k
        product = product * quotient.value
        add(f"determinant identity depth {depth}", product, determinant)
        lower = upper

    return VerifyReport(tuple(checks), words_total)


def render_verify(report: VerifyReport, fmt: str = "plain") -> str:
    if fmt == "plain":
        lines = []
        for c in report.checks:
            if c.status == "pass":
                lines.append(f"PASS {c.description}")
            else:
                at = f"at {c.at}: " if c.at else ""
                lines.append(f"FAIL {c.description}: {at}expected {c.expected}, actual {c.actual}")
        lines.append(
            f"{report.passed} passed, {report.failed} failed, "
            f"{report.words_enumerated} words enumerated"
        )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json_text(
            {
                "checks": [
                    {
                        "description": c.description,
                        "status": c.status,
                        **({"at": c.at} if c.at else {}),
                        "expected": str(c.expected),
                        "actual": str(c.actual),
                    }
                    for c in report.checks
                ],
                "summary": {
                    "passed": report.passed,
                    "failed": report.failed,
                    "words_enumerated": report.words_enumerated,
                },
            }
        )
    if fmt == "csv":
        # The `at` column appears only when some failed check names a monomial.
        pinpointed = any(c.at for c in report.checks)
        header = ["status", "description", "expected", "actual"] + ["at"] * pinpointed
        rows = [
            [c.status, c.description, str(c.expected), str(c.actual)] + [c.at] * pinpointed
            for c in report.checks
        ]
        return _csv_text(header, rows)
    raise ValueError(f"unknown format: {fmt!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catwords",
        description="Generating functions and exact statistics for Catalan words.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="plain", help="output format")
    common.add_argument("--output", type=_path, metavar="PATH", help="write to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "expand",
        parents=[common],
        help="series for one tracked letter (coefficients are polynomials in V)",
    )
    p.add_argument("--letter", type=_positive, required=True, help="letter to track (>= 1)")
    p.add_argument("--order", type=_nonnegative, required=True, help="truncation order")

    p = sub.add_parser(
        "cfrac", parents=[common], help="expand a convergent of the continued fraction"
    )
    p.add_argument("--depth", type=_positive, required=True, help="truncation depth (>= 1)")
    p.add_argument(
        "--tail",
        choices=(cfrac.TAIL_ONE, cfrac.TAIL_CATALAN),
        default=cfrac.TAIL_CATALAN,
        help="close the fraction with 1 (letters bounded by the depth) or the Catalan series",
    )
    p.add_argument("--order", type=_nonnegative, required=True, help="truncation order")
    p.add_argument(
        "--generic",
        action="store_true",
        help="keep one weight variable per letter instead of setting them all to 1",
    )

    p = sub.add_parser(
        "rational", parents=[common], help="closed rational form for one tracked letter"
    )
    p.add_argument("--letter", type=_positive, required=True, help="letter to track (>= 1)")

    p = sub.add_parser(
        "enumerate",
        parents=[common],
        help="list Catalan words, or tally one letter's occurrences",
    )
    p.add_argument("--length", type=_nonnegative, required=True, help="word length (>= 0)")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--max-letter", type=_positive, help="only words whose letters stay <= this bound"
    )
    group.add_argument(
        "--histogram-letter", type=_positive, help="emit the occurrence histogram of this letter"
    )

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="cross-check the symbolic pipeline against brute-force enumeration",
    )
    p.add_argument("--max-length", type=_positive, default=10, help="largest word length checked")
    p.add_argument(
        "--letters",
        type=_positive,
        nargs="+",
        help="letters whose histograms are checked (default: 1 2 3 4 5)",
    )

    return parser


def _write_chunks(chunks: Iterable[str], path: str | None) -> None:
    """Write to stdout, or replace the file at path only once every chunk is written."""
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        # A device or a pipe (say /dev/null) cannot be replaced: write through it.
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        return
    # open()'s mode: an existing file keeps its permission bits, a new one gets 0o666 & ~umask.
    umask = os.umask(0)
    os.umask(umask)
    mode = stat.S_IMODE(os.stat(target).st_mode) if os.path.exists(target) else 0o666 & ~umask
    import tempfile

    fd, temp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".catwords-")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            os.fchmod(fd, mode)  # mkstemp makes it 0600
            handle.writelines(chunks)
            handle.flush()
            os.fsync(fd)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.output is None and sys.stdout is None:
        # Descriptor 1 was closed when Python started: fail before any work.
        print(f"catwords: error: cannot write stdout: {os.strerror(errno.EBADF)}", file=sys.stderr)
        return 2
    try:
        status = 0
        if args.command == "expand":
            rows = cfrac._letter_rows(args.letter, args.order)
            text = _v_row_text(args.format == "json")
            chunks: Iterable[str] = _render_series(args.order, rows, args.format, text)
        elif args.command == "cfrac":
            rows = cfrac._expand_with_tail(args.depth, args.tail, args.order, args.generic)
            chunks = _render_series(args.order, rows, args.format)
        elif args.command == "rational":
            chunks = _render_rational(cfrac.rational_form(args.letter), args.format)
        elif args.command == "enumerate":
            chunks = _render_enumerate(
                args.length, args.max_letter, args.histogram_letter, args.format
            )
        else:
            report = run_verify(args.max_length, args.letters)
            chunks = [render_verify(report, args.format)]
            status = 0 if report.ok else 1
        try:
            _write_chunks(chunks, args.output)
        except OSError as exc:
            reason = exc.strerror or exc
            if args.output is not None:
                print(f"catwords: error: cannot write {args.output}: {reason}", file=sys.stderr)
                return 2
            # Point the descriptor at the null device so that the flush at
            # interpreter exit cannot fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            # A reader that closed stdout (e.g. `| head`) ends the run quietly.
            if not isinstance(exc, BrokenPipeError):
                print(f"catwords: error: cannot write stdout: {reason}", file=sys.stderr)
                return 2
    except KeyboardInterrupt:
        # _write_chunks has removed its temporary file: an earlier --output file stays.
        print("catwords: interrupted", file=sys.stderr)
        return 130
    return status
