"""The package surface and the README's library example."""

import pathlib

import catwords
from catwords import catalan, cfrac, oracle, polyring

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_package_exports_every_module_all():
    modules = (catalan, cfrac, oracle, polyring)
    expected = [name for module in modules for name in module.__all__]
    assert catwords.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(catwords, name) is getattr(module, name)


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
