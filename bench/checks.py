"""Output checks for the benchmark's CLI invocations.

Every check recomputes what it needs by itself (Catalan numbers from the
binomial formula, Catalan words from their definition) and never imports
catwords, so a defect in the package cannot vouch for its own output.  The
symbolic side is never consulted: series are checked by summing coefficients
at V = 1, enumerations by re-validating every word.

A check takes the bytes the invocation wrote to stdout and its exit code, and
raises CheckFailed with a one-line reason when the output is wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import re
from typing import Callable

Check = Callable[[bytes, int], None]


class CheckFailed(Exception):
    """An invocation's output or exit code is not what the CLI must produce."""


def catalan(n: int) -> int:
    """The n-th Catalan number, binom(2n, n) / (n + 1)."""
    return math.comb(2 * n, n) // (n + 1)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _require_exit(code: int, expected: int = 0) -> None:
    if code != expected:
        raise CheckFailed(f"exit code {code}, expected {expected}")


def series_check(order: int, sha256: str) -> Check:
    """`expand --format json`: each z^n coefficient summed at V = 1 is C_n,
    and the bytes match the digest recorded when the benchmark was defined."""

    def check(data: bytes, code: int) -> None:
        _require_exit(code)
        obj = json.loads(data)
        coeffs = obj["coeffs"]
        if obj["order"] != order or len(coeffs) != order + 1:
            raise CheckFailed(f"series has order {obj['order']}, expected {order}")
        for n, terms in enumerate(coeffs):
            if any(set(term["monomial"]) - {"V"} for term in terms):
                raise CheckFailed(f"z^{n} coefficient mentions a variable other than V")
            total = sum(int(term["coeff"]) for term in terms)
            if total != catalan(n):
                raise CheckFailed(f"z^{n} coefficient sums to {total} at V=1, expected C_{n}")
        if digest(data) != sha256:
            raise CheckFailed("series output differs from the recorded digest")

    return check


def verify_check(max_length: int, checks: int) -> Check:
    """`verify --max-length N`: exit 0, every check line PASS, and a summary
    counting sum_{1<=n<=N} C_n enumerated words."""
    words = sum(catalan(n) for n in range(1, max_length + 1))
    summary = f"{checks} passed, 0 failed, {words} words enumerated"

    def check(data: bytes, code: int) -> None:
        _require_exit(code)
        lines = data.decode().splitlines()
        if not lines or lines[-1] != summary:
            last = lines[-1] if lines else ""
            raise CheckFailed(f"summary line {last!r}, expected {summary!r}")
        body = lines[:-1]
        if len(body) != checks:
            raise CheckFailed(f"{len(body)} check lines, expected {checks}")
        failed = [line for line in body if not line.startswith("PASS ")]
        if failed:
            raise CheckFailed(f"{len(failed)} check lines do not pass, first: {failed[0]!r}")

    return check


def _key(text: str) -> bytes:
    """A word as bytes, letter v as byte 48 + v, so bytes order is word order.

    An undotted word is already in that form: its letters are the digits 1-9.
    """
    if "." in text:
        return bytes(48 + int(part) for part in text.split("."))
    return text.encode()


def _bad_word_pattern(length: int) -> re.Pattern[bytes]:
    """Matches, in newline-joined keys, anything that breaks a_1 = 1 and
    1 <= a_{i+1} <= a_i + 1 for letters up to `length`."""
    top = bytes([48 + length])
    parts = [rb"(?m)^[^1]", rb"[^\n1-" + re.escape(top) + rb"]"]
    for a in range(1, length - 1):
        jump = re.escape(bytes([50 + a])) + rb"-" + re.escape(top)
        parts.append(re.escape(bytes([48 + a])) + rb"[" + jump + rb"]")
    return re.compile(b"|".join(parts))


def check_words(texts: list[str], length: int) -> None:
    """Exactly C_length words, each a Catalan word of that length, strictly
    increasing in lexicographic order (so none repeats)."""
    if len(texts) != catalan(length):
        raise CheckFailed(f"{len(texts)} words, expected C_{length} = {catalan(length)}")
    keys = [_key(text) for text in texts]
    if any(len(key) != length for key in keys):
        raise CheckFailed(f"a word does not have length {length}")
    bad = _bad_word_pattern(length).search(b"\n".join(keys))
    if bad:
        raise CheckFailed(f"not a Catalan word at byte {bad.start()} of the joined words")
    if not all(map(operator.lt, keys, keys[1:])):
        raise CheckFailed("words do not strictly increase")


def words_check(length: int, fmt: str) -> Check:
    """`enumerate --length N` in plain (one word a line) or json format."""

    def check(data: bytes, code: int) -> None:
        _require_exit(code)
        if fmt == "plain":
            texts = data.decode().splitlines()
        else:
            obj = json.loads(data)
            if obj["length"] != length or obj["max_letter"] is not None:
                raise CheckFailed("json header does not echo the requested length")
            texts = obj["words"]
        check_words(texts, length)

    return check
