"""The package surface, its records, the modules a command imports, and the README's
library example and CLI transcripts."""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import catwords
from catwords import catalan, cfrac, cli, oracle, polyring
from catwords.cfrac import Convergent, LetterGF, PartialQuotient
from catwords.cli import Check, VerifyReport, main
from catwords.oracle import Histogram
from catwords.polyring import C, Polynomial, V, Variable, Z, letter

README = pathlib.Path(__file__).parent.parent / "README.md"
SRC = str(pathlib.Path(catwords.__file__).parent.parent)


def test_package_exports_every_module_all():
    modules = (catalan, cfrac, oracle, polyring)
    expected = [name for module in modules for name in module.__all__]
    assert catwords.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(catwords, name) is getattr(module, name)


def test_cli_all_names_its_public_surface():
    namespace: dict = {}
    exec("from catwords.cli import *", namespace)
    assert sorted(cli.__all__) == [
        "Check",
        "VerifyReport",
        "build_parser",
        "main",
        "render_verify",
        "run_verify",
    ]
    for name in cli.__all__:
        assert namespace[name] is getattr(cli, name)


def test_readme_library_example():
    # Each line of the example that ends in a comment evaluates to a value
    # whose repr is that comment; the other lines (the import) just run.
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, hash_mark, comment = line.partition("#")
        if not hash_mark:
            exec(code, namespace)
            continue
        assert repr(eval(code, namespace)) == comment.strip(), line
        checked += 1
    assert checked == 4


def test_readme_cli_transcripts(capsys):
    # Each `$ catwords ...` line in a text block prints the lines shown under
    # it, up to the next `$` line or the closing fence; a `...` line stands for
    # the lines between a shown prefix and a shown suffix.
    fenced = README.read_text(encoding="utf-8").split("```text\n")[1:]
    blocks = [block.split("```", 1)[0] for block in fenced]
    transcripts = [t for block in blocks for t in ("\n" + block).split("\n$ ")[1:]]
    for transcript in transcripts:
        command, *shown = transcript.rstrip("\n").split("\n")
        argv = shlex.split(command)
        assert argv[0] == "catwords", command
        assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out.splitlines()
        if "..." in shown:
            cut = shown.index("...")
            prefix, suffix = shown[:cut], shown[cut + 1 :]
            assert out[: len(prefix)] == prefix, command
            assert out[len(out) - len(suffix) :] == suffix, command
        else:
            assert out == shown, command
    assert len(transcripts) == 6


def test_commands_import_only_the_modules_they_use():
    # -S skips site, so no .pth file can preload a module; -E ignores PYTHON*
    # variables.  Neither command reads JSON, writes CSV or replaces a file.
    code = f"""
import os, sys
sys.path.insert(0, {SRC!r})
import catwords.cli, catwords.__main__
from catwords.cli import main
assert main("expand --letter 5 --order 5 --format json --output".split() + [os.devnull]) == 0
assert main(["verify", "--max-length", "3", "--output", os.devnull]) == 0
unused = {{"dataclasses", "inspect", "json", "csv", "tempfile", "typing"}}
print(*sorted(unused & sys.modules.keys()))
"""
    run = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == []


# -- the records ---------------------------------------------------------------

ONE, z = Polynomial.one(), Polynomial.var(Z)
zVC = z * Polynomial.var(V) * Polynomial.var(C)
CHECK = Check("n=1 word count", "pass", 1, 1)
RECORDS = [
    (PartialQuotient, (2, z), "PartialQuotient(index=2, value=z)"),
    (Convergent, (1, ONE, 1 - z), "Convergent(depth=1, h=1, k=1-z)"),
    (LetterGF, (3, ONE, 1 - zVC), "LetterGF(letter=3, numerator=1, denominator=1-zVC)"),
    (Histogram, (5, 5, {0: 41, 1: 1}), "Histogram(letter=5, length=5, counts={0: 41, 1: 1})"),
    (
        Check,
        ("n=1 word count", "pass", 1, 1, ""),
        "Check(description='n=1 word count', status='pass', expected=1, actual=1, at='')",
    ),
    (VerifyReport, ((CHECK,), 1), f"VerifyReport(checks=({CHECK!r},), words_enumerated=1)"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_named_tuples(cls, fields, text):
    record = cls(*fields)
    assert repr(record) == text
    assert record == cls(*fields)
    assert record == fields and tuple(record) == fields
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], fields[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == fields


def test_check_at_defaults_to_empty():
    assert CHECK.at == "" and CHECK == Check("n=1 word count", "pass", 1, 1, at="")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PartialQuotient(0, z), "quotient index must be >= 1, got 0"),
        (lambda: Convergent(1, ONE, z + 2), "convergent denominator must have constant term 1"),
        (lambda: LetterGF(0, ONE, ONE), "letter must be >= 1, got 0"),
        (lambda: LetterGF(1, ONE, 2 - z), "denominator must have constant term 1"),
    ],
)
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_variable_orders_and_hashes_by_slot():
    v3, also_v3 = Variable("v3"), letter(3)
    assert v3 == also_v3 and hash(v3) == hash(also_v3) and len({v3, also_v3, V}) == 2
    assert Z < V < v3 and Z <= Z <= V and v3 > V > Z and v3 >= v3 >= C
    assert not (V < V or V > V or V <= Z or Z >= V)
    assert v3 != "v3"
    with pytest.raises(TypeError):
        Z < 0
    with pytest.raises(AttributeError):
        v3.extra = 1
