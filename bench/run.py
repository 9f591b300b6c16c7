"""Benchmark of the catwords command-line interface.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the source tree it sits in, importing catwords
from src/ and writing only under .bench_out/.  NAME is a workload below or
`all`, which interleaves every workload's invocations in each round.

The load is a closed loop with a single client: the workload's CLI
invocations run one at a time, each as a child process started by
bench/spawner.py, with stdout sent to a file (a pipe drained while the clock
runs would compete with the child for the two cores).  Inputs are fixed; the
seed only shuffles the order of the invocations in each round.  Rounds repeat
until S seconds have passed, and the outputs are checked after each child has
exited, outside its timed region.  bench/README.md describes the workloads and
metrics.

--trace 0 reports the end-to-end metrics of each workload:
  wall_s       sum over the workload's invocations of the median wall time
  cpu_s        the same for the child's user + system time (os.wait4 rusage)
  peak_rss_mb  largest, over the invocations, median peak RSS of the child
  setup_s      median time to start the interpreter and `import catwords`,
               sampled before every invocation

--trace 1 runs each invocation once untraced, then in rounds under
bench/tracer.py, which times the calls into each layer's public functions
from outside the package, and reports the per-layer metrics (medians over the
rounds; exact counts must repeat in every round).  The spans are written to
.bench_out/trace-<workloads>-seed<N>.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Error rate is failed / attempted; a failure is a nonzero exit, a
child killed at the CPU limit, or an output check that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

sys.dont_write_bytecode = True

import checks  # noqa: E402  (bench/ is sys.path[0])
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SCRATCH = OUT / f"pid{os.getpid()}"  # this process's child outputs, removed at exit
HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
CPU_LIMIT_S = 100
SETUP_SAMPLES = 3  # interpreter starts timed before each invocation

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclass(frozen=True)
class Invocation:
    workload: str
    argv: tuple[str, ...]
    check: checks.Check


# sha256 of `expand --letter 5 --order 192 --format json` at the commit that
# defined this benchmark; every later version must print the same bytes.
LETTER_SERIES_SHA256 = "8333a3333e277c89006228ecb75c73eb4971c24706d2c69696c0f409d4df1ed8"

WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # Dense series division in Z[V] with coefficients up to 374 bits; the
    # oracle does nothing, so this is the control for oracle changes.
    "letter-series": (
        Invocation(
            "letter-series",
            ("expand", "--letter", "5", "--order", "192", "--format", "json"),
            checks.series_check(192, LETTER_SERIES_SHA256),
        ),
    ),
    # 143 enumeration passes plus sparse multivariate gf_full expansions with
    # small coefficients: both sides of the cross-check.  153 checks at N = 11.
    "verify": (
        Invocation("verify", ("verify", "--max-length", "11"), checks.verify_check(11, 153)),
    ),
    # No polynomial arithmetic: the successor loop, format_word and per-line
    # writes, plus the JSON path that holds every word in memory.
    "enumerate": (
        Invocation("enumerate", ("enumerate", "--length", "13"), checks.words_check(13, "plain")),
        Invocation(
            "enumerate",
            ("enumerate", "--length", "12", "--format", "json"),
            checks.words_check(12, "json"),
        ),
    ),
}


@dataclass(frozen=True)
class Child:
    """One finished child process: exit code, wall time and its own rusage."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    """The parent's environment without PYTHON* settings (such as unbuffered
    stdio), catwords on the path, a fixed hash seed and a bytecode cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


class Spawner:
    """Client of bench/spawner.py, which runs one command at a time to
    completion from a small process, so that each child's peak RSS is its own."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py"), str(CPU_LIMIT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, argv: list[str], stdout: Path) -> Child:
        """Run argv with stdout sent to a file (never a pipe read while it runs)."""
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(SCRATCH / "stderr.txt")}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("bench/spawner.py exited early")
        return Child(**json.loads(reply))


class OutputChecker:
    """Checks the first output of each invocation in full, and every later
    output of it by digest against the first one."""

    def __init__(self) -> None:
        self.digests: dict[tuple[str, ...], str] = {}
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.failures: list[str] = []

    def fail(self, workload: str, reason: str) -> None:
        self.failed[workload] += 1
        self.failures.append(f"{workload}: {reason}")

    def __call__(self, inv: Invocation, path: Path, code: int) -> bool:
        self.attempted[inv.workload] += 1
        data = path.read_bytes()
        path.unlink()
        known = self.digests.get(inv.argv)
        try:
            if known is None:
                inv.check(data, code)
                self.digests[inv.argv] = checks.digest(data)
            elif code != 0 or checks.digest(data) != known:
                raise checks.CheckFailed(f"exit code {code} or output differs from the first run")
        except Exception as exc:  # a check that cannot even parse the output is a failure
            stderr = (SCRATCH / "stderr.txt").read_text(errors="replace").strip().splitlines()
            reason = f"{' '.join(inv.argv)}: {type(exc).__name__}: {exc}"
            self.fail(inv.workload, reason + (f" [stderr: {stderr[-1]}]" if stderr else ""))
            return False
        return True


def rounds(invocations: list[Invocation], seconds: float, rng: random.Random):
    """Yield the invocations in a fresh shuffled order per round, until
    `seconds` have passed at the end of a round."""
    start = time.perf_counter()
    while True:
        order = list(invocations)
        rng.shuffle(order)
        yield order
        if time.perf_counter() - start >= seconds:
            return


def run_cli(inv: Invocation, spawner: Spawner, checker: OutputChecker) -> Child:
    path = SCRATCH / "stdout.txt"
    child = spawner.run([sys.executable, "-m", "catwords", *inv.argv], path)
    checker(inv, path, child.code)
    return child


def measure(invocations, seconds, rng, spawner, checker):
    """End-to-end metrics per workload, untraced."""
    children: dict[tuple[str, ...], list[Child]] = {inv.argv: [] for inv in invocations}
    setup: dict[str, list[float]] = {inv.workload: [] for inv in invocations}
    import_cmd = [sys.executable, "-c", "import catwords"]
    warm_cmd = [sys.executable, "-c", "import catwords.cli, catwords.__main__"]
    spawner.run(warm_cmd, SCRATCH / "setup.txt")  # fills the bytecode cache
    for order in rounds(invocations, seconds, rng):
        for inv in order:
            for _ in range(SETUP_SAMPLES):
                setup[inv.workload].append(spawner.run(import_cmd, SCRATCH / "setup.txt").wall_s)
            children[inv.argv].append(run_cli(inv, spawner, checker))

    metrics = {}
    for workload, samples in setup.items():
        runs = [children[inv.argv] for inv in invocations if inv.workload == workload]
        metrics[workload] = {
            "wall_s": sum(median(c.wall_s for c in r) for r in runs),
            "cpu_s": sum(median(c.cpu_s for c in r) for r in runs),
            "peak_rss_mb": max(median(c.rss_mb for c in r) for r in runs),
            "setup_s": median(samples),
        }
    return metrics


def trace(invocations, seconds, rng, spawner, checker):
    """Per-layer metrics per workload from traced rounds, and the span records."""
    untraced: Counter[str] = Counter()
    for inv in invocations:
        untraced[inv.workload] += run_cli(inv, spawner, checker).wall_s

    summaries: dict[str, list[dict]] = {workload: [] for workload in untraced}
    spans = []
    result_path, path = SCRATCH / "trace-child.json", SCRATCH / "stdout.txt"
    cmd = [sys.executable, str(TRACER), "--result", str(result_path), "--"]
    for order in rounds(invocations, seconds, rng):
        done: dict[str, list] = {workload: [] for workload in untraced}
        for inv in order:
            child = spawner.run([*cmd, *inv.argv], path)
            raw = json.loads(result_path.read_text()) if child.code == 0 else None
            if checker(inv, path, raw["status"] if raw else child.code):
                done[inv.workload].append((child.wall_s, raw))
                spans.append({"argv": raw["argv"], "spans": raw["spans"]})
        for workload, results in done.items():
            if len(results) < sum(inv.workload == workload for inv in invocations):
                continue  # a failed invocation leaves this round incomplete
            values = tracer.layer_metrics(tracer.merge_raw([raw for _, raw in results]))
            values["trace.wall_s"] = sum(wall for wall, _ in results)
            values["trace.overhead_s"] = values["trace.wall_s"] - untraced[workload]
            summaries[workload].append(values)

    metrics = {}
    for workload, values in summaries.items():
        if not values:
            checker.fail(workload, "no traced round completed")
            continue
        if len({tuple(v[name] for name in tracer.EXACT_COUNTS) for v in values}) != 1:
            checker.fail(workload, "exact counts differ between traced rounds")
        metrics[workload] = {name: median(v[name] for v in values) for name in values[0]}
        metrics[workload].update((name, values[0][name]) for name in tracer.EXACT_COUNTS)
    return metrics, spans


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read from .git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark of the catwords CLI.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True, help="shuffles the invocation order")
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "catwords" / "__init__.py").is_file():
        print(f"catwords sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    info = environment()
    invocations = [inv for name in args.names for inv in WORKLOADS[name]]
    rng = random.Random(args.seed)
    checker = OutputChecker()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        with Spawner() as spawner:
            if args.trace:
                metrics, spans = trace(invocations, args.seconds, rng, spawner, checker)
            else:
                metrics = measure(invocations, args.seconds, rng, spawner, checker)
    finally:
        shutil.rmtree(SCRATCH)
    if args.trace:
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        trace_path = OUT / f"trace-{'+'.join(args.names)}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"environment": info, "invocations": spans}))
    else:
        units = dict(END_TO_END)
    info["loadavg_after"] = os.getloadavg()

    print(f"environment {json.dumps(info)}")
    for reason in checker.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    reported = {}
    for workload in args.names:
        attempted, failed = checker.attempted[workload], checker.failed[workload]
        print(f"{workload} error_rate {failed / max(attempted, 1):.4f} ({failed} of {attempted})")
        for name, value in metrics.get(workload, {}).items():
            key = name if len(args.names) == 1 else f"{workload}.{name}"
            print(f"{workload} {name} {value:.6g} {units[name]}")
            reported[key] = {"value": value, "unit": units[name]}
    attempted, failed = checker.attempted.total(), checker.failed.total()
    correct = failed == 0 and len(metrics) == len(args.names)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
