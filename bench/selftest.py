"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. BENCHMARK.json names the workloads and metrics that run.py and tracer.py
   produce, with the same units.
2. Every output check accepts the real output of its invocation and rejects
   corrupted copies of it (a changed value, a reordered or repeated line, a
   failing exit code).
3. Two traced runs of each workload give identical exact counts.  The counts
   recorded when the benchmark was defined are printed beside them; a later
   change that does less work is expected to move them.

Exits 0 when every assertion holds and 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

sys.dont_write_bytecode = True

import checks  # noqa: E402  (bench/ is sys.path[0])
import run  # noqa: E402
import tracer  # noqa: E402

# Exact counts of one traced round at the commit that defined the benchmark.
SEED_COUNTS = {
    "letter-series": {
        "polyring.series_div.calls": 1,
        "polyring.mul.calls": 18171,
        "polyring.mul.term_pairs": 1128637,
        "polyring.coeff_bits_max": 374,
        "cfrac.expansions": 1,
        "oracle.passes": 0,
        "oracle.words": 0,
        "cli.output_bytes": 2543209,
    },
    "verify": {
        "polyring.series_div.calls": 132,
        "polyring.mul.calls": 5980,
        "polyring.mul.term_pairs": 176868,
        "polyring.coeff_bits_max": 18,
        "cfrac.expansions": 132,
        "oracle.passes": 143,
        "oracle.words": 1161938,
        "cli.output_bytes": 5658,
    },
    "enumerate": {
        "polyring.series_div.calls": 0,
        "polyring.mul.calls": 0,
        "polyring.mul.term_pairs": 0,
        "polyring.coeff_bits_max": 0,
        "cfrac.expansions": 0,
        "oracle.passes": 2,
        "oracle.words": 950912,
        "cli.output_bytes": 14590005,
    },
}


def check_manifest() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS):
        problems.append("BENCHMARK.json names a workload that run.WORKLOADS lacks")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if per_layer != list(tracer.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    return problems


def _corruptions(argv: tuple[str, ...], data: bytes) -> dict[str, tuple[bytes, int]]:
    """Wrong variants of a correct output, each with the exit code to report."""
    lines = data.decode().splitlines(keepends=True)
    variants = {"nonzero exit": (data, 1)}
    if argv[0] == "expand":
        obj = json.loads(data)
        term = obj["coeffs"][7][0]
        term["coeff"] = str(int(term["coeff"]) + 1)
        variants["changed coefficient"] = (json.dumps(obj, indent=2).encode() + b"\n", 0)
        variants["reformatted"] = (json.dumps(json.loads(data)).encode(), 0)
    elif argv[0] == "verify":
        failing = lines[3].replace("PASS", "FAIL", 1)
        variants["failed check"] = ("".join(lines[:3] + [failing] + lines[4:]).encode(), 0)
        variants["missing check"] = ("".join(lines[1:]).encode(), 0)
    else:
        as_json = "json" in argv
        words = json.loads(data)["words"] if as_json else [line.rstrip("\n") for line in lines]
        i = len(words) // 2
        wrong_words = {
            "swapped words": words[:i] + [words[i + 1], words[i]] + words[i + 2:],
            "repeated word": words[:i] + [words[i - 1]] + words[i + 1:],
            "missing word": words[1:],
            # 11...13 sorts between 11...12 and 11...121 but jumps from 1 to 3.
            "not a Catalan word": [words[0], words[1][:-1] + "3"] + words[2:],
        }
        for label, listed in wrong_words.items():
            if as_json:
                text = json.dumps({**json.loads(data), "words": listed}, indent=2) + "\n"
            else:
                text = "".join(word + "\n" for word in listed)
            variants[label] = (text.encode(), 0)
    return variants


def check_checks(spawner: run.Spawner) -> list[str]:
    problems = []
    path = run.SCRATCH / "stdout.txt"
    for invocations in run.WORKLOADS.values():
        for inv in invocations:
            child = spawner.run([sys.executable, "-m", "catwords", *inv.argv], path)
            data = path.read_bytes()
            try:
                inv.check(data, child.code)
            except checks.CheckFailed as exc:
                problems.append(f"{' '.join(inv.argv)}: real output rejected: {exc}")
            for label, (wrong, code) in _corruptions(inv.argv, data).items():
                try:
                    inv.check(wrong, code)
                except checks.CheckFailed:
                    continue
                problems.append(f"{' '.join(inv.argv)}: {label} not detected")
    path.unlink(missing_ok=True)
    return problems


def check_counts(spawner: run.Spawner) -> list[str]:
    problems = []
    for workload, invocations in run.WORKLOADS.items():
        runs = []
        for seed in (1, 2):
            checker = run.OutputChecker()
            metrics, _ = run.trace(list(invocations), 0, random.Random(seed), spawner, checker)
            problems.extend(checker.failures)
            counts = metrics.get(workload, {})
            runs.append({name: counts.get(name) for name in tracer.EXACT_COUNTS})
        print(f"{workload}:")
        for name in tracer.EXACT_COUNTS:
            first, second, seed = runs[0][name], runs[1][name], SEED_COUNTS[workload][name]
            note = "" if first == seed else f"  (was {seed} when the benchmark was defined)"
            print(f"  {name} {first} {second}{note}")
            if first != second:
                problems.append(f"{workload}: {name} differs between traced runs")
    return problems


def main() -> int:
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        with run.Spawner() as spawner:
            problems = check_manifest() + check_checks(spawner) + check_counts(spawner)
    finally:
        shutil.rmtree(run.SCRATCH)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
