"""collabmap benchmark: seeded batch workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is started from ``src/``
in child processes, one batch job at a time (a closed loop with one
client, no threads). The input is one ``collabmap synth`` corpus drawn
from ``--seed``; the focus country is the one at a fixed activity rank of
the corpus' first draw.

With ``--trace 0`` the workload's job runs repeatedly for ``--seconds``
seconds, and the end-to-end metrics are
printed as medians over those repetitions. The host's speed drifts by
tens of percent between minutes, so times are calibrated: the fixed job
in ``reference.py`` runs in a fresh child before the first timed
operation and after each one, and each operation's wall time is scaled by
``REFERENCE_S`` over the mean of the two reference times around it. A
calibrated second is thus a second on a host where the reference job
takes ``REFERENCE_S``. Raw medians are printed beside the metrics.

With ``--trace 1`` the job runs once untraced and once under
``tracer.py``, and the per-layer metrics (self time, calls and item
counts per layer) are printed instead.

Every operation passes through the correctness gate in ``gate.py``
outside the timed interval. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import reference
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_LAUNCHES = 5
DEADLINE_S = 170.0
SETUP_CODE = (
    "import collabmap.cli\n"
    "from collabmap.corpus.registry import load_registry\n"
    "load_registry()\n"
)
# nominal wall time of the reference job; calibrated seconds are relative to it
REFERENCE_S = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: int
    countries: int
    intl_prob: float
    focus_rank: int
    # one argument list per process of a job; "{corpus}" and "{focus}" are filled in
    commands: tuple[tuple[str, ...], ...]
    # the same job as one monolithic `run`, when `commands` is a stage chain
    monolithic: tuple[str, ...] | None = None


_LAYOUT_CAP = ("--layout-weights", "cosine", "--layout-max-iter", "10")

# Runs are compared across seeds, so no workload's work may hinge on the
# corpus a seed draws. Layouts run to tolerance vary about five-fold in
# iteration count between corpora of the same shape, so every layout here
# stops at an iteration cap that every map reaches. layout-budget keeps
# every country of its corpus in each map, so its map sizes are fixed too.
# Operations last one to four seconds, so that a 30-second run holds eight
# or more of them for its median.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="layout-budget",
            why="3k records, three 30-node maps (every country kept), layouts capped at 300 iterations: layout cost at small n",
            docs=3_000,
            countries=30,
            intl_prob=0.3,
            focus_rank=0,
            commands=((
                "run", "--input", "{corpus}",
                "--min-node-fractional", "1", "--min-link-weight", "1",
                "--core-k", "2", "--core-min-link-weight", "1",
                "--focus", "{focus}", "--ego-min-link-weight", "1", "--no-alter-ties",
                "--layout-max-iter", "300",
            ),),
        ),
        Workload(
            name="corpus-wide",
            why="10k records, tiny maps: parse, JSONL, counting and per-stage rebuilds; bypasses layout",
            docs=10_000,
            countries=150,
            intl_prob=0.3,
            focus_rank=0,
            commands=((
                "run", "--input", "{corpus}",
                "--min-node-fractional", "200", "--min-link-weight", "20",
                "--core-k", "3", "--core-min-link-weight", "40",
                "--focus", "{focus}", "--ego-min-link-weight", "80",
            ),),
        ),
        Workload(
            name="paper-stages",
            why="200 countries, seven stage processes, cosine layouts capped at 10 iterations: paper-scale maps",
            docs=4_000,
            countries=200,
            intl_prob=0.3,
            focus_rank=2,
            commands=(
                ("ingest", "--input", "{corpus}"),
                ("summary",),
                ("net",) + _LAYOUT_CAP,
                ("geo",),
                ("core", "--core-k", "10", "--core-min-link-weight", "2") + _LAYOUT_CAP,
                ("ego", "--focus", "{focus}", "--ego-min-link-weight", "2") + _LAYOUT_CAP,
                ("export", "--focus", "{focus}"),
            ),
            monolithic=(
                "run", "--input", "{corpus}",
                "--core-k", "10", "--core-min-link-weight", "2",
                "--focus", "{focus}", "--ego-min-link-weight", "2",
            ) + _LAYOUT_CAP,
        ),
    )
}

# name -> (unit, better); the order is the print order
END_TO_END = {
    "wall_s": ("s", "lower"),
    "records_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

_STAGES = ("ingest", "summary", "net", "geo", "core", "ego", "export")
PER_LAYER = {
    "layout.minimize.s": ("s", "lower"),
    "layout.distances.s": ("s", "lower"),
    "layout.components.s": ("s", "lower"),
    "layout.iterations": ("count", "lower"),
    "layout.calls": ("count", "lower"),
    "layout.nodes": ("count", "lower"),
    "layout.capped": ("count", "lower"),
    "layout.us_per_iteration": ("us", "lower"),
    "layout.stress": ("1", "lower"),
    "records.parse.s": ("s", "lower"),
    "records.parse.records": ("count", "higher"),
    "records.parse.issues": ("count", "lower"),
    "filtering.filter.s": ("s", "lower"),
    "filtering.retained_ratio": ("1", "higher"),
    "registry.load.s": ("s", "lower"),
    "registry.load.calls": ("count", "lower"),
    "cli.jsonl_write.s": ("s", "lower"),
    "cli.jsonl_load.s": ("s", "lower"),
    "cli.jsonl_load.calls": ("count", "lower"),
    "cli.manifest.s": ("s", "lower"),
    "counting.incidence.s": ("s", "lower"),
    "counting.incidence.calls": ("count", "lower"),
    "counting.fractional.s": ("s", "lower"),
    "counting.fractional.calls": ("count", "lower"),
    "counting.integer.s": ("s", "lower"),
    "counting.summarize.s": ("s", "lower"),
    "network.build.s": ("s", "lower"),
    "network.build.calls": ("count", "lower"),
    "network.edges": ("count", "lower"),
    "network.cosine.s": ("s", "lower"),
    "network.cosine.calls": ("count", "lower"),
    "network.extract.s": ("s", "lower"),
    "network.stats.s": ("s", "lower"),
    "network.csv.s": ("s", "lower"),
    "exports.geo.s": ("s", "lower"),
    "exports.pajek.s": ("s", "lower"),
    "exports.vosviewer.s": ("s", "lower"),
    "exports.report.s": ("s", "lower"),
    **{f"cli.stage.{stage}.s": ("s", "lower") for stage in _STAGES},
    "trace.untraced.s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}


class Deadline(Exception):
    """The benchmark ran out of its time budget; the running child was killed."""


class Runner:
    """Starts children one at a time, timing each job and reaping each child."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        # one directory per invocation, so concurrent invocations cannot collide
        self.dir = WORK / f"{workload.name}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
        self.corpus = self.dir / "corpus.txt"
        self.focus = ""
        self.log = self.dir / "child-stderr.txt"

    # -- children -----------------------------------------------------------

    def spawn(self, argv: list[str], stdout=subprocess.DEVNULL) -> tuple[int, int]:
        """Run one child to completion; return (exit code, peak RSS in KiB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline()
        with open(self.log, "ab") as err:
            child = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=stdout, stderr=err,
            )
        expired = []

        def on_alarm(_signum, _frame):
            expired.append(True)
            child.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _pid, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            os.wait4(child.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        child.returncode = os.waitstatus_to_exitcode(status)
        if expired:
            raise Deadline()
        return child.returncode, usage.ru_maxrss

    def reference(self) -> float:
        """Wall seconds of one run of the reference job, whose output is checked."""
        out = self.dir / "reference.txt"
        with open(out, "wb") as sink:
            start = time.perf_counter()
            rc, _ = self.spawn([sys.executable, reference.__file__], stdout=sink)
            elapsed = time.perf_counter() - start
        if rc != 0 or out.read_text(encoding="utf-8").strip() != reference.EXPECTED:
            raise SystemExit("perfbench: the reference job failed or printed a wrong result")
        return elapsed

    # -- inputs ---------------------------------------------------------------

    def make_inputs(self) -> None:
        if not (SRC / "collabmap" / "cli.py").is_file():
            raise SystemExit(f"perfbench: no collabmap sources under {SRC}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        sys.path.insert(0, str(SRC))
        from collabmap import synth
        from collabmap.corpus.registry import load_registry

        registry = load_registry()
        w = self.workload
        # the text `collabmap synth` writes for these arguments
        text = synth.generate_corpus_text(
            registry, n_docs=w.docs, n_countries=w.countries, intl_prob=w.intl_prob, seed=self.seed,
        )
        self.corpus.write_text(text, encoding="utf-8", newline="\n")
        countries = synth.pick_countries(registry, w.countries, random.Random(self.seed))
        self.focus = countries[w.focus_rank]

    def measure_setup(self) -> tuple[list[float], list[float]]:
        """Launch times of fresh children that import the CLI and load the registry.

        Returns (calibrated, raw) seconds; each launch is bracketed by
        reference jobs like a timed operation.
        """
        argv = [sys.executable, "-c", SETUP_CODE]
        raw, refs = [], []
        # the first launch compiles bytecode and warms the file cache
        for launch in range(SETUP_LAUNCHES + 1):
            start = time.perf_counter()
            rc, _ = self.spawn(argv)
            if launch:
                raw.append(time.perf_counter() - start)
            if rc != 0:
                raise SystemExit(f"perfbench: set-up child failed with exit code {rc}")
            refs.append(self.reference())
        return calibrate(raw, refs), raw

    # -- jobs -----------------------------------------------------------------

    def op(self, label: str, traced: bool = False, commands=None):
        """One operation: the workload's job, one process at a time.

        Returns (wall seconds, peak RSS in MB, exit codes all zero,
        workspace, span directory).
        """
        base = self.dir / label
        shutil.rmtree(base, ignore_errors=True)
        spans = base / "spans"
        spans.mkdir(parents=True)
        workspace = base / "ws"
        argvs = []
        for index, template in enumerate(commands or self.workload.commands):
            args = [part.format(corpus=self.corpus, focus=self.focus) for part in template]
            args[1:1] = ["--workspace", str(workspace)]
            if traced:
                out = str(spans / f"{index}.json")
                argvs.append([sys.executable, tracer.__file__, out, str(SRC), "--", *args])
            else:
                argvs.append([sys.executable, "-m", "collabmap.cli", *args])
        peak_kb = 0
        ok = True
        start = time.perf_counter()
        for argv in argvs:
            rc, rss_kb = self.spawn(argv)
            peak_kb = max(peak_kb, rss_kb)
            if rc != 0:
                ok = False
                break
        wall = time.perf_counter() - start
        return wall, peak_kb / 1024.0, ok, workspace, spans


def calibrate(walls: list[float], refs: list[float]) -> list[float]:
    """Scale each wall time to reference speed; refs[i] and refs[i + 1] bracket walls[i]."""
    return [
        wall * REFERENCE_S / ((before + after) / 2)
        for wall, before, after in zip(walls, refs, refs[1:])
    ]


class Gate:
    """Correctness checks for each operation.

    The oracles run on the first tree; every later tree must be
    byte-identical to it, so the oracle verdict carries.
    """

    def __init__(self):
        self.reference: dict[str, str] | None = None
        self.oracle_problems: list[str] = []
        self.stress = 0.0

    def check(self, workspace: Path, exited_ok: bool) -> list[str]:
        """Problems with one operation's outputs; empty when it passes."""
        digests = gate.file_digests(workspace) if workspace.is_dir() else {}
        problems = gate.manifest_problems(workspace, digests)
        if not exited_ok:
            problems.insert(0, "a child exited with a non-zero code")
        if self.reference is None:
            self.reference = digests
            try:
                corpus = gate.Corpus(workspace)
                self.oracle_problems += gate.oracle_problems(workspace, corpus)
                self.stress = gate.layout_stress(workspace, corpus)
            except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                self.oracle_problems.append(f"oracle could not read the outputs: {exc!r}")
        elif digests != self.reference:
            changed = sorted(p for p in digests.keys() | self.reference.keys()
                             if digests.get(p) != self.reference.get(p))
            problems.append(f"artifact tree differs from the first repetition: {changed[:5]}")
        return problems + self.oracle_problems

    def matches(self, workspace: Path) -> bool:
        return gate.file_digests(workspace) == self.reference


def per_layer_metrics(
    span_dir: Path, traced_wall: float, untraced_wall: float, stress: float
) -> dict[str, float]:
    """Per-layer self times, calls and counts of one traced operation."""
    payloads = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(span_dir.glob("*.json"))]
    self_s, calls, counters, root_s = tracer.aggregate(payloads)
    iterations = counters.get("layout.iterations", 0)
    records_in = counters.get("filtering.records_in", 0)
    values = {
        "layout.iterations": iterations,
        "layout.calls": calls.get("layout.minimize", 0),
        "layout.nodes": counters.get("layout.nodes", 0),
        "layout.capped": counters.get("layout.capped", 0),
        "layout.us_per_iteration": (
            1e6 * self_s.get("layout.minimize", 0.0) / iterations if iterations else 0.0
        ),
        "records.parse.records": counters.get("records.parse.records", 0),
        "records.parse.issues": counters.get("records.parse.issues", 0),
        "filtering.retained_ratio": (
            counters.get("filtering.retained", 0) / records_in if records_in else 0.0
        ),
        "network.edges": counters.get("network.edges", 0),
        "layout.stress": stress,
        "trace.untraced.s": traced_wall - root_s,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        span, kind = name.rsplit(".", 1)
        values[name] = {"s": self_s, "calls": calls}[kind].get(span, 0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, time.monotonic() + DEADLINE_S)
    runner.make_inputs()
    print(f"workload {workload.name}: synth --docs {workload.docs} --countries {workload.countries} "
          f"--intl-prob {workload.intl_prob} --seed {args.seed}; "
          f"focus (activity rank {workload.focus_rank}) {runner.focus}")

    checker = Gate()
    problems: list[str] = []
    walls: list[float] = []
    refs: list[float] = []
    rss: list[float] = []
    setup: list[float] = []
    raw_setup: list[float] = []
    failed = interrupted = 0
    layer: dict[str, float] = {}

    def checked(label: str, traced: bool = False):
        """Run one operation and gate it."""
        nonlocal failed
        wall, peak, ok, workspace, spans = runner.op(label, traced)
        op_problems = checker.check(workspace, ok)
        walls.append(wall)
        rss.append(peak)
        failed += bool(op_problems)
        problems.extend(f"{label}: {p}" for p in op_problems)
        return wall, ok, workspace, spans

    try:
        if args.trace:
            untraced, _, _, _ = checked("untraced")
            traced, ok, workspace, spans = checked("traced", traced=True)
            same = ok and checker.matches(workspace)
            if not same:
                problems.append("the traced and untraced runs give different artifact trees")
            print(f"check traced equals untraced: {'ok' if same else 'FAILED'}")
            print(f"wall_s (raw) untraced {untraced:.6g}, traced {traced:.6g}")
            layer = per_layer_metrics(spans, traced, untraced, checker.stress)
        else:
            setup, raw_setup = runner.measure_setup()
            refs.append(runner.reference())
            start = time.perf_counter()
            while not walls or time.perf_counter() - start < args.seconds:
                checked("op")
                refs.append(runner.reference())
        if workload.monolithic is not None:
            _, _, ok, workspace, _ = runner.op("monolithic", commands=(workload.monolithic,))
            same = ok and checker.matches(workspace)
            if not same:
                problems.append("the stage chain and a monolithic run give different artifact trees")
            print(f"check chain equals run: {'ok' if same else 'FAILED'}")
    except Deadline:
        problems.append(f"time budget of {DEADLINE_S:.0f} s exhausted; the running child was killed")
        interrupted = 1
    finally:
        if problems and runner.log.is_file():
            for line in runner.log.read_text(encoding="utf-8", errors="replace").splitlines()[-20:]:
                print(f"child stderr: {line}")
        shutil.rmtree(runner.dir, ignore_errors=True)

    attempted = len(walls) + interrupted
    failed += interrupted
    if checker.reference is not None:
        print(f"artifact tree sha256: {gate.tree_digest(checker.reference)}")
        print(f"layout stress: {checker.stress:.6f}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations failed the gate)")
    for problem in problems:
        print(f"gate: {problem}")
    correct = not problems and failed == 0
    if args.trace:
        table = PER_LAYER
        metrics = {name: layer.get(name, 0.0) for name in table}
    else:
        table = END_TO_END
        calibrated = calibrate(walls, refs)
        wall = statistics.median(calibrated) if calibrated else 0.0
        metrics = {
            "wall_s": wall,
            "records_per_s": workload.docs / wall if wall else 0.0,
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "setup_s": statistics.median(setup) if setup else 0.0,
        }
        for name, values in (
            ("wall_s (calibrated)", calibrated), ("wall_s (raw)", walls),
            ("reference job (raw)", refs), ("peak_rss_mb", rss),
            ("setup_s (calibrated)", setup), ("setup_s (raw)", raw_setup),
        ):
            if values:
                print(f"{name}: median {statistics.median(values):.6g} of n={len(values)} "
                      f"(min {min(values):.6g}, max {max(values):.6g})")
    for name, (unit, better) in table.items():
        print(f"  {name:28s} {metrics[name]:>16.6f} {unit:6s} ({better} is better)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]} for name in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
