"""The package surface and the README's library example and CLI transcripts."""

import pathlib
import shlex

import catwords
from catwords import catalan, cfrac, cli, oracle, polyring
from catwords.cli import main

README = pathlib.Path(__file__).parent.parent / "README.md"


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
