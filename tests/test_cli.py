"""CLI behavior: golden outputs, formats, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import catwords
import catwords.cli
from catwords.cli import FORMATS, build_parser, main, render_verify, run_verify
from catwords.catalan import catalan_numbers, catalan_series
from catwords import cfrac
from catwords.cfrac import (
    TAIL_CATALAN,
    TAIL_ONE,
    LetterGF,
    bounded_letter_series,
    gf_full,
    letter_gf_series,
    rational_form,
    unweighted_series,
)
from catwords.oracle import enumerate_words, format_word
from catwords.polyring import C, Polynomial, Series, V, Z, _v_row_text, letter, monomial
from json_reference import letter_gf_obj, series_obj

GOLDEN = pathlib.Path(__file__).parent / "golden"

# `python -m catwords` in a child process imports the same package as the tests.
SRC = str(pathlib.Path(catwords.__file__).parent.parent)
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def golden_bytes(name):
    return (GOLDEN / name).read_bytes()


def stdout_of(command):
    """What `catwords COMMAND` writes to stdout; the run must exit 0."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(command.split()) == 0, command
    return buffer.getvalue()


def run_main_to_file(tmp_path, argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--output", str(out)])
    return code, out.read_bytes()


# -- golden outputs -----------------------------------------------------------


def test_expand_golden(tmp_path):
    code, data = run_main_to_file(tmp_path, ["expand", "--letter", "5", "--order", "5"])
    assert code == 0
    assert data == golden_bytes("expand_letter5_order5.txt")


def test_rational_golden(tmp_path):
    code, data = run_main_to_file(tmp_path, ["rational", "--letter", "2"])
    assert code == 0
    assert data == golden_bytes("rational_letter2.txt")


def test_enumerate_golden(tmp_path):
    code, data = run_main_to_file(tmp_path, ["enumerate", "--length", "3"])
    assert code == 0
    assert data == golden_bytes("enumerate_length3.txt")


# Full sha256 of larger outputs, so that any change of a digit, a term's
# position or a separator anywhere in them shows.
OUTPUT_SHA256 = {
    "verify --max-length 11": (
        "c904e4bc9d2f3c1409c52908a6d7b7ecfba147674918edd9860ceb00a41c99ff"
    ),
    "verify --max-length 8 --format json": (
        "0ef3865a9ab445d984f1095141dacff09b5d058c6e1743e8fe863bd7dbc2bd0b"
    ),
    "cfrac --depth 12 --order 12 --generic --format json": (
        "23c964c794579e6e0c208a7099818762073f15c55cd8d2a0055a257c3b4922c4"
    ),
    "cfrac --depth 16 --order 16 --generic --format json": (
        "5ab694b29a54bfc2b3fac9761e0a1a4fc0a3cfb325d6339499f5fe5a8814cb1b"
    ),
    "cfrac --depth 6 --order 8 --generic": (
        "331040b2e0b10dfedd1675307e122eca4b5ca01a5b044f4449ad3c81c62d6eed"
    ),
    "cfrac --depth 5 --tail one --order 9 --generic --format csv": (
        "686a9e8acd97b61cb2ddd27c182d32527dc3b756fd4576c938871b88342ac1ce"
    ),
    "cfrac --depth 7 --order 20": (
        "6128a16754d4b899ffe57d5b61dfdff6e9775ef496cea082edfc595c17b1ea77"
    ),
    "expand --letter 5 --order 192 --format json": (
        "8333a3333e277c89006228ecb75c73eb4971c24706d2c69696c0f409d4df1ed8"
    ),
    "expand --letter 5 --order 192": (
        "e80cba0f511d00719bc40c92271d3df34b12c29051070920cf2cf2e1b066d528"
    ),
    "expand --letter 5 --order 192 --format csv": (
        "726d06ad70f866764a0fe027bacaaed2e84193c755ee1263fe6c66238b3fa10e"
    ),
    # A letter above the order: the Catalan numbers, without the closed form.
    "expand --letter 300 --order 200 --format json": (
        "4aa269fadfea902555d7f7d3bd36776d0c26e195b3606e0204cdcc5520f7da0d"
    ),
    "rational --letter 7 --format json": (
        "7e9b863d6af0f4b284336bf27312d57071bfd02aed197a660db78523b1c9399a"
    ),
    "expand --letter 3 --order 20 --format csv": (
        "bfbada2b8b2861feb9dde430e83482d030e044abf24d977a726d51ec67e0fbef"
    ),
    "rational --letter 4": (
        "275885df0c32d8c96868e66a199206fbe6de607217c46c5c90ec737f0e9d0a54"
    ),
    # The closed form at letters beyond the render families below.
    "expand --letter 13 --order 256 --format csv": (
        "d2be388b11637ba68f5f884e526d8e1c3799b88ce76b3412d9e22050ac2d97b7"
    ),
    "rational --letter 40 --format json": (
        "c8de7df9c298a32c5abc17de6d360d4e5bd5b8bf6923f754110a3d1bb95f8e5a"
    ),
    # An even letter, whose E takes its top z-degree from P^2, deep in the division.
    "expand --letter 40 --order 300": (
        "8ba51d27951d061f5683c40e87f933c605554bf465db4e627009eb1caeded5f3"
    ),
    # Length 10 holds the first dotted word, 1.2.3.4.5.6.7.8.9.10.
    "enumerate --length 10": (
        "28d04d772c7436720de2895c55e0a960d1bc131508e3e6d7ab50c0354a4cd2ee"
    ),
    "enumerate --length 10 --format json": (
        "e17410cc743261daccc358046b72ba114fd735276daf26e35d63afcb9c7de7de"
    ),
    "enumerate --length 10 --format csv": (
        "0023f389bcb3d6f7ebd455fe58a0f2ce92f63b1e3f671406e0977a88b268ad74"
    ),
}


@pytest.mark.parametrize("command", OUTPUT_SHA256)
def test_output_sha256(tmp_path, command):
    code, data = run_main_to_file(tmp_path, command.split())
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == OUTPUT_SHA256[command]


def renders(family, fmt):
    if family == "expand":
        commands = [f"expand --letter {i} --order {n}" for i in range(1, 7) for n in range(41)]
    elif family == "cfrac":
        commands = [
            f"cfrac --depth {depth} --tail {tail} --order {order}" + " --generic" * generic
            for depth in range(1, 9)
            for order in range(11)
            for tail in (TAIL_ONE, TAIL_CATALAN)
            for generic in (False, True)
        ]
    else:
        commands = [f"rational --letter {i}" for i in range(1, 13)]
    return [stdout_of(f"{command} --format {fmt}") for command in commands]


# sha256 over every render of a family, format by format in the order of
# FORMATS, so that a changed byte in any small case shows too.
RENDERS_SHA256 = {
    "expand": "7d18f64f3e38af5c06cd6aedccdad67aa6a6bde6c52d268222a207e9a4dad028",
    "cfrac": "0c9c13c372a603c5a280a853e6c09059b45b6c2d8a52a8fdf71a11d61a95e13a",
    "rational": "17aa2f9603fc31467778b1821fff2faf37201fd66dc917cec9d9349d8b5d42bb",
}


@pytest.mark.parametrize("family", RENDERS_SHA256)
def test_renders_sha256(family):
    digest = hashlib.sha256()
    for fmt in FORMATS:
        for text in renders(family, fmt):
            digest.update(text.encode())
    assert digest.hexdigest() == RENDERS_SHA256[family]


def test_stdout_matches_file_output(tmp_path, capsys):
    argv = ["expand", "--letter", "5", "--order", "5"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    _, data = run_main_to_file(tmp_path, argv)
    assert stdout.encode() == data


def test_identical_invocations_are_byte_identical(capsys):
    main(["cfrac", "--depth", "4", "--order", "6", "--generic", "--format", "json"])
    first = capsys.readouterr().out
    main(["cfrac", "--depth", "4", "--order", "6", "--generic", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


# -- expand -------------------------------------------------------------------


def test_expand_order_zero():
    assert stdout_of("expand --letter 3 --order 0") == "1\n"


def test_expand_letter_one_low_orders():
    # Words of length 2 are 11 (two ones) and 12 (one), so [z^2] is V + V^2.
    assert stdout_of("expand --letter 1 --order 2") == "1 + V z + (V+V^2) z^2\n"


def test_expand_trailing_term_letter_five():
    text = stdout_of("expand --letter 5 --order 5")
    assert text.endswith("(41+V) z^5\n")


def test_expand_csv():
    text = stdout_of("expand --letter 5 --order 5 --format csv")
    lines = text.splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[1] == "0,1"
    assert lines[-1] == "5,41+V"


def test_expand_json_roundtrips():
    text = stdout_of("expand --letter 2 --order 4 --format json")
    obj = json.loads(text)
    assert json.dumps(obj, indent=2) + "\n" == text
    assert obj["order"] == 4


# -- rational -----------------------------------------------------------------


def test_rational_letter_one():
    assert stdout_of("rational --letter 1") == "numerator: 1\ndenominator: 1-zVC\n"


def test_rational_letter_four_denominator():
    text = stdout_of("rational --letter 4")
    assert "denominator: 1-zVC-3z+2z^2VC+z^2\n" in text


def test_rational_json_roundtrips():
    text = stdout_of("rational --letter 3 --format json")
    obj = json.loads(text)
    assert json.dumps(obj, indent=2) + "\n" == text
    assert obj["letter"] == 3


def test_rational_csv():
    lines = stdout_of("rational --letter 2 --format csv").splitlines()
    assert lines == ["part,polynomial", "numerator,1-zVC", "denominator,1-zVC-z"]


# -- cfrac ---------------------------------------------------------------------


def test_cfrac_generic_matches_multivariate_expansion():
    text = stdout_of("cfrac --depth 3 --tail catalan --order 3 --generic")
    assert text == "1 + v1 z + (v1v2+v1^2) z^2 + (v1v2v3+v1v2^2+2v1^2v2+v1^3) z^3\n"


def test_cfrac_unweighted_tail_one_is_bounded_counting():
    text = stdout_of("cfrac --depth 2 --tail one --order 5")
    assert text == bounded_letter_series(2, 5).format_plain() + "\n"


def test_cfrac_unweighted_catalan_tail_is_catalan_series():
    text = stdout_of("cfrac --depth 6 --tail catalan --order 8")
    assert text == catalan_series(8).format_plain() + "\n"
    assert unweighted_series(6, TAIL_CATALAN, 8) == catalan_series(8)


# -- JSON against the reference objects ------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 24))
def test_expand_json_parses_back_to_letter_series(letter_index, order):
    obj = json.loads(stdout_of(f"expand --letter {letter_index} --order {order} --format json"))
    assert obj == series_obj(letter_gf_series(letter_index, order))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.sampled_from([TAIL_ONE, TAIL_CATALAN]), st.integers(0, 8), st.booleans())
def test_cfrac_json_parses_back_to_series(depth, tail, order, generic):
    command = f"cfrac --depth {depth} --tail {tail} --order {order} --format json"
    obj = json.loads(stdout_of(command + " --generic" * generic))
    expand = gf_full if generic else unweighted_series
    assert obj == series_obj(expand(depth, tail, order))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 20))
def test_rational_json_parses_back_to_letter_gf(letter_index):
    obj = json.loads(stdout_of(f"rational --letter {letter_index} --format json"))
    assert obj == letter_gf_obj(rational_form(letter_index))


def test_series_json_document():
    series = Series([1, -Polynomial.var(letter(1)) - Polynomial.var(letter(2)), 0, 0])
    text = "".join(catwords.cli._render_series(series.order, series.coefficients, "json"))
    v1, v2 = ({"coeff": "-1", "monomial": {name: 1}} for name in ("v1", "v2"))
    assert json.loads(text) == {
        "order": 3,
        "coeffs": [[{"coeff": "1", "monomial": {}}], [v1, v2], [], []],
    }


# -- streamed renderers ------------------------------------------------------------


LETTERS = [letter(i) for i in range(1, 13)]


def polynomials(variables):
    """Polynomials with the unit monomial, negative and wider-than-64-bit coefficients."""
    powers = st.dictionaries(st.sampled_from(variables), st.integers(1, 40), max_size=4)
    coeffs = st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80))
    return st.lists(st.tuples(powers.map(monomial), coeffs), max_size=6).map(Polynomial)


def letter_gfs():
    def build(letter_index, numerator, denominator):
        return LetterGF(letter_index, numerator, denominator + (1 - denominator.constant_term))

    parts = polynomials([Z, C, V, *LETTERS])
    return st.builds(build, st.integers(1, 10**6), parts, parts)


def examples(values):
    """Each of values as an explicit Hypothesis example."""

    def add(test):
        for value in values:
            test = example(value)(test)
        return test

    return add


def csv_lines(rows):
    """One csv.writer line per row."""
    lines = []
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(row)
        lines.append(buffer.getvalue())
    return lines


EDGE_SERIES = Series(
    [
        Polynomial.zero(),
        Polynomial.one(),
        Polynomial({monomial({V: 3, letter(12): 2}): -(2**70), monomial({C: 1}): 2**64 + 1}),
        Polynomial.zero(),
    ]
)


@settings(max_examples=150, deadline=None)
@given(st.lists(polynomials([C, V, *LETTERS]), min_size=1, max_size=8).map(Series))
@example(EDGE_SERIES)
@example(Series([Polynomial.zero()]))
@example(letter_gf_series(5, 300))
@example(gf_full(6, TAIL_CATALAN, 10))
def test_series_renderers_match_reference(series):
    def render(series, fmt):
        return catwords.cli._render_series(series.order, series.coefficients, fmt)

    assert "".join(render(series, "json")) == json.dumps(series_obj(series), indent=2) + "\n"
    assert "".join(render(series, "plain")) == series.format_plain() + "\n"
    rows = [[n, c.format_plain(ascending=True)] for n, c in enumerate(series.coefficients)]
    assert list(render(series, "csv")) == csv_lines([["n", "coefficient"], *rows])


def test_series_render_pulls_one_coefficient_per_chunk():
    # The renderer takes a coefficient only when it renders that coefficient's
    # chunk, so each one is written before the next is computed.
    series = letter_gf_series(5, 12)
    leading = {"plain": 1, "json": 2, "csv": 2}  # header chunks, then coefficient 0
    for fmt in FORMATS:
        pulled = 0

        def counting():
            nonlocal pulled
            for coeff in series.coefficients:
                pulled += 1
                yield coeff

        chunks = catwords.cli._render_series(series.order, counting(), fmt)
        head = [next(chunks) for _ in range(leading[fmt])]
        assert pulled == 1, fmt
        text = "".join(head) + "".join(chunks)
        assert pulled == series.order + 1
        assert text == "".join(catwords.cli._render_series(series.order, series.coefficients, fmt))


def test_expand_matches_polynomial_route():
    # expand writes each dense V-row straight to text; the old route builds the
    # Polynomial of each row and renders it through format_json or format_plain.
    # The rows through n are those of order n, so one run to order 64 serves
    # every order; the command itself runs at i - 1, i, i + 1 and 64.
    render = catwords.cli._render_series
    for i in [*range(1, 14), 20, 40]:
        rows = list(cfrac._letter_rows(i, 64))
        for order in range(65):
            coefficients = letter_gf_series(i, order).coefficients
            for fmt in FORMATS:
                expected = "".join(render(order, coefficients, fmt))
                text = _v_row_text(fmt == "json")
                assert "".join(render(order, rows[: order + 1], fmt, text)) == expected
                if order in (i - 1, i, i + 1, 64):
                    command = f"expand --letter {i} --order {order} --format {fmt}"
                    assert stdout_of(command) == expected
    # Letters above the order, whose rows are the Catalan numbers alone.
    for i, order in ((100, 64), (300, 200), (10**6, 5)):
        coefficients = letter_gf_series(i, order).coefficients
        for fmt in FORMATS:
            expected = "".join(render(order, coefficients, fmt))
            assert stdout_of(f"expand --letter {i} --order {order} --format {fmt}") == expected


def dense_rows():
    """V-rows with zeros inside and at the end, 1 and -1, and wide coefficients."""
    coeffs = st.one_of(st.integers(-2, 2), st.integers(-(2**80), 2**80))
    return st.lists(coeffs, max_size=8).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(dense_rows(), min_size=1, max_size=6))
@example([(), (0,), (1,), (-1,), (0, 1), (0, -1), (-1, 0, 1, 0)])
def test_v_row_text_matches_polynomial_text(rows):
    v = monomial({V: 1})
    polynomials = [Polynomial({k * v: c for k, c in enumerate(row)}) for row in rows]
    render, order = catwords.cli._render_series, len(rows) - 1
    for fmt in FORMATS:
        expected = "".join(render(order, polynomials, fmt))
        assert "".join(render(order, rows, fmt, _v_row_text(fmt == "json"))) == expected


@settings(max_examples=150, deadline=None)
@given(letter_gfs())
@example(LetterGF(1, Polynomial.zero(), Polynomial.one()))
@examples(map(rational_form, range(1, 12)))
def test_rational_renderers_match_reference(form):
    render = catwords.cli._render_rational
    assert "".join(render(form, "json")) == json.dumps(letter_gf_obj(form), indent=2) + "\n"
    rows = [
        ["numerator", form.numerator.format_plain()],
        ["denominator", form.denominator.format_plain()],
    ]
    assert list(render(form, "csv")) == csv_lines([["part", "polynomial"], *rows])


@pytest.mark.parametrize("fmt", FORMATS)
def test_expand_writes_stdout_as_it_renders(monkeypatch, fmt):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["expand", "--letter", "5", "--order", "30", "--format", fmt]) == 0
    assert len(writes) >= 31  # at least one write per coefficient
    assert "".join(writes) == stdout_of(f"expand --letter 5 --order 30 --format {fmt}")


# -- enumerate -----------------------------------------------------------------


def test_enumerate_bounded():
    assert stdout_of("enumerate --length 3 --max-letter 2") == "111\n112\n121\n122\n"


def test_enumerate_length_zero_is_single_empty_line():
    assert stdout_of("enumerate --length 0") == "\n"


def test_enumerate_histogram_csv():
    text = stdout_of("enumerate --length 5 --histogram-letter 5 --format csv")
    assert text == "k,count\n0,41\n1,1\n"


def test_enumerate_histogram_plain_and_json():
    assert stdout_of("enumerate --length 5 --histogram-letter 5") == "0: 41\n1: 1\n"
    obj = json.loads(stdout_of("enumerate --length 5 --histogram-letter 5 --format json"))
    assert obj == {"letter": 5, "length": 5, "counts": {"0": 41, "1": 1}}


@pytest.mark.parametrize("max_letter", [None, 2])
@pytest.mark.parametrize("length", range(10))  # 4,862 words at length 9: two JSON batches
def test_enumerate_words_csv_and_json(length, max_letter):
    words = [format_word(w) for w in enumerate_words(length, max_letter)]
    command = f"enumerate --length {length}" + f" --max-letter {max_letter}" * bool(max_letter)
    assert stdout_of(command) == "".join(word + "\n" for word in words)
    csv_text = stdout_of(command + " --format csv")
    assert csv_text == "".join(csv_lines([["word"], *([w] for w in words)]))
    text = stdout_of(command + " --format json")
    obj = {"length": length, "max_letter": max_letter, "words": words}
    assert text == json.dumps(obj, indent=2) + "\n"
    if (length, max_letter) == (3, None):
        assert csv_text == "word\n111\n112\n121\n122\n123\n"
        obj = json.loads(text)
        assert obj == {
            "length": 3,
            "max_letter": None,
            "words": ["111", "112", "121", "122", "123"],
        }
        assert json.dumps(obj, indent=2) + "\n" == text


# -- verify ---------------------------------------------------------------------


def test_verify_small_run_passes(capsys):
    assert main(["verify", "--max-length", "5", "--letters", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS n=5,i=5 histogram {0:41,1:1}" in out
    assert "FAIL" not in out
    assert out.rstrip().splitlines()[-1].endswith("0 failed, 64 words enumerated")


def test_verify_length_eight_letter_five(capsys):
    assert main(["verify", "--max-length", "8", "--letters", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS n=8,i=5 histogram {0:1094,1:247,2:75,3:13,4:1}" in out


def test_verify_max_length_one_emits_checks():
    report = run_verify(1)
    assert report.ok
    assert len(report.checks) >= 3
    assert report.words_enumerated == 1


def test_verify_counts_all_words():
    report = run_verify(6)
    assert report.ok
    assert report.words_enumerated == sum(catalan_numbers(6)[1:])


def test_verify_letters_validation():
    with pytest.raises(ValueError):
        run_verify(0)
    with pytest.raises(ValueError, match="letter must be >= 1, got 0"):
        run_verify(3, letters=[0])


def test_verify_json_and_csv_render():
    report = run_verify(2)
    text = render_verify(report, "json")
    obj = json.loads(text)
    assert json.dumps(obj, indent=2) + "\n" == text
    assert obj["summary"] == {
        "passed": len(report.checks),
        "failed": 0,
        "words_enumerated": 3,
    }
    lines = render_verify(report, "csv").splitlines()
    assert lines[0] == "status,description,expected,actual"
    assert all(line.startswith("pass,") for line in lines[1:])
    with pytest.raises(ValueError, match="unknown format: 'xml'"):
        render_verify(report, "xml")


def test_verify_detects_and_reports_mismatch(capsys, monkeypatch):
    import catwords.oracle

    tally = catwords.oracle.tally
    v1 = monomial({letter(1): 1})
    # At n=1 the bounded count for h=1 (every tallied word) reads 999.
    monkeypatch.setattr(catwords.oracle, "tally", lambda n: {v1: 999} if n == 1 else tally(n))
    assert main(["verify", "--max-length", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL n=1,h=1 bounded count: expected 999, actual 1" in out


def test_verify_failure_names_first_differing_monomial(capsys, monkeypatch):
    import catwords.oracle

    tally = catwords.oracle.tally

    def swapped(n):
        # v1^2v2 (112, 121) and v1v2^2 (122) trade counts; the word count still holds.
        counts = tally(n)
        if n == 3:
            v1sq_v2 = monomial({letter(1): 2, letter(2): 1})
            v1_v2sq = monomial({letter(1): 1, letter(2): 2})
            counts[v1sq_v2], counts[v1_v2sq] = counts[v1_v2sq], counts[v1sq_v2]
        return counts

    monkeypatch.setattr(catwords.oracle, "tally", swapped)
    assert main(["verify", "--max-length", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL n=3 multivariate coefficient: at v1^2v2: expected 1, actual 2",
        "FAIL n=3,i=1 histogram {1:3,2:1,3:1}: at V^2: expected 1, actual 2",
        "FAIL n=3,i=2 histogram {0:1,1:2,2:2}: at V^2: expected 2, actual 1",
    ]
    assert "PASS n=3 word count" in lines
    assert lines[-1] == "27 passed, 3 failed, 8 words enumerated"

    report = run_verify(3)
    failed = [c for c in json.loads(render_verify(report, "json"))["checks"] if "at" in c]
    assert failed[0] == {
        "description": "n=3 multivariate coefficient",
        "status": "fail",
        "at": "v1^2v2",
        "expected": "1",
        "actual": "2",
    }
    assert all(c["status"] == "fail" for c in failed) and len(failed) == 3
    rows = render_verify(report, "csv").splitlines()
    assert rows[0] == "status,description,expected,actual,at"
    assert "fail,n=3 multivariate coefficient,1,2,v1^2v2" in rows
    assert "pass,n=2 multivariate coefficient,v1^2+v1v2,v1^2+v1v2," in rows


# -- argument handling -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--letter", "0", "--order", "3"],
        ["expand", "--order", "3"],
        ["expand", "--letter", "2", "--order", "-1"],
        ["rational", "--letter", "x"],
        ["enumerate", "--length", "3", "--max-letter", "2", "--histogram-letter", "1"],
        ["cfrac", "--depth", "2", "--order", "3", "--tail", "never"],
        ["nonsense"],
        [],
        ["expand", "--letter", "\uff15", "--order", "3"],  # fullwidth digit five
        ["expand", "--letter", "5", "--order", "1_0"],
        ["enumerate", "--length", " 3 "],
        ["enumerate", "--length", "+3"],
        ["verify", "--max-length", "3\n"],
        ["expand", "--letter", "5", "--order", "5", "--format", "xml"],
        ["expand", "--letter", "5", "--order", "5", "--output", ""],
        ["enumerate", "--length", "\u0663"],  # Arabic-Indic digit three
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    # argparse names a type function that raises ValueError; ours are private.
    assert "invalid _" not in err
    # argparse's usage lines, then `catwords: error: ...` or, for an error in a
    # subcommand's arguments, `catwords <command>: error: ...`.
    assert err.startswith("usage: catwords")
    assert ": error: " in err.splitlines()[-1]
    assert "Traceback" not in err


def test_parser_defaults():
    args = build_parser().parse_args(["verify"])
    assert args.max_length == 10
    assert args.letters is None
    assert args.format == "plain"
    assert args.output is None


def test_unwritable_output_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    assert main(["expand", "--letter", "1", "--order", "2", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("catwords: error: ")
    assert captured.err.count("\n") == 1
    assert not target.exists()


def test_closed_stdout_ends_quietly():
    # Like `catwords enumerate --length 11 | head -1`: 58,786 lines overflow
    # the pipe buffer, so the writer meets a closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "catwords", "enumerate", "--length", "11"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert first == b"11111111111\n"
    assert stderr == b""
    assert proc.returncode == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_two():
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "catwords", "enumerate", "--length", "3"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("catwords: error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "command",
    [
        "verify --max-length 3",
        "expand --letter 5 --order 5",
        "enumerate --length 3",
        "enumerate --length 3 --output {out}",
    ],
)
def test_stdout_closed_at_start(tmp_path, command):
    # Like `catwords verify >&-`: descriptor 1 is closed before Python starts,
    # so sys.stdout is None in the child.
    out = tmp_path / "out.txt"
    argv = command.format(out=out).split()
    result = subprocess.run(
        [sys.executable, "-m", "catwords", *argv],
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
        preexec_fn=lambda: os.close(1),
    )
    if "--output" in argv:
        assert (result.returncode, result.stderr) == (0, "")
        assert out.read_bytes() == golden_bytes("enumerate_length3.txt")
    else:
        assert result.returncode == 2
        assert result.stderr.startswith("catwords: error: cannot write stdout: ")
        assert result.stderr.count("\n") == 1


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "catwords", "rational", "--letter", "2"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert result.stdout == "numerator: 1-zVC\ndenominator: 1-zVC-z\n"


def test_failed_output_leaves_previous_file(tmp_path, monkeypatch):
    import catwords.cli

    def broken_stream(*args):
        yield "partial\n"
        raise RuntimeError("stream failed")

    target = tmp_path / "out.txt"
    target.write_text("old\n")
    monkeypatch.setattr(catwords.cli, "_render_enumerate", broken_stream)
    with pytest.raises(RuntimeError):
        main(["enumerate", "--length", "3", "--output", str(target)])
    assert target.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == [target]


def interrupted_main(argv):
    """main(argv), where a KeyboardInterrupt that escapes fails this test
    instead of stopping the whole test run."""
    try:
        return main(argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")


@pytest.mark.parametrize("to_file", [False, True])
def test_interrupted_stream_exits_130(tmp_path, monkeypatch, capsys, to_file):
    def interrupted_stream(*args):
        yield "partial\n"
        raise KeyboardInterrupt

    target = tmp_path / "out.txt"
    target.write_text("old\n")
    monkeypatch.setattr(catwords.cli, "_render_enumerate", interrupted_stream)
    output = ["--output", str(target)] * to_file
    assert interrupted_main(["enumerate", "--length", "3", *output]) == 130
    assert capsys.readouterr() == ("" if to_file else "partial\n", "catwords: interrupted\n")
    # The earlier file stays, and no temporary file is left beside it.
    assert target.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == [target]


def test_interrupted_verify_exits_130(monkeypatch, capsys):
    # verify computes every check before it writes anything.
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(catwords.cli, "run_verify", interrupted)
    assert interrupted_main(["verify", "--max-length", "3"]) == 130
    assert capsys.readouterr() == ("", "catwords: interrupted\n")


def test_sigint_ends_a_run_with_one_line():
    # Like Ctrl-C during `catwords enumerate --length 16`, which runs for
    # minutes.  Its first line shows that the command has started, with
    # Python's SIGINT handler in place, so the signal cannot come too early.
    # A runner that ignores SIGINT passes that on to its children, so the
    # child restores the default before Python starts.
    with subprocess.Popen(
        [sys.executable, "-u", "-m", "catwords", "enumerate", "--length", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()  # does nothing once the child has exited
    assert first == b"1" * 16 + b"\n"
    assert stderr == b"catwords: interrupted\n"
    assert proc.returncode == 130


def test_output_replaces_file_and_writes_through_pipes(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n" * 100)
    target.chmod(0o600)
    assert main(["enumerate", "--length", "3", "--output", str(target)]) == 0
    assert target.read_bytes() == golden_bytes("enumerate_length3.txt")
    # The replacement keeps the old file's permission bits; a new file gets open()'s.
    assert target.stat().st_mode & 0o777 == 0o600
    fresh = tmp_path / "new.txt"
    assert main(["enumerate", "--length", "3", "--output", str(fresh)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask
    fresh.unlink()
    # A named pipe, like a device, is written through rather than replaced.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["enumerate", "--length", "3", "--output", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [golden_bytes("enumerate_length3.txt")]
    assert fifo.is_fifo()
    assert sorted(tmp_path.iterdir()) == [target, fifo]


def test_verify_expands_each_series_once(monkeypatch):
    import catwords.cfrac

    calls = []

    def counted(name, original):
        def expand(*args):
            calls.append((name, args))
            return original(*args)

        return expand

    for name in ("gf_full", "letter_gf_series", "bounded_letter_series"):
        monkeypatch.setattr(catwords.cfrac, name, counted(name, getattr(catwords.cfrac, name)))
    assert run_verify(4).ok
    assert sorted(calls) == sorted(
        [("gf_full", (4, TAIL_CATALAN, 4))]
        + [("letter_gf_series", (i, 4)) for i in range(1, 6)]
        + [("bounded_letter_series", (h, 4)) for h in range(1, 5)]
    )
