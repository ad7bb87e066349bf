"""Self-test of the benchmark at toy size; takes well under a minute.

    python3 perfbench/selftest.py

Runs every workload shape (same commands, stage chain, layout flags) on a
few hundred synthetic documents with thresholds scaled down, in both
trace modes, and asserts that every metric named in ``BENCHMARK.json`` is
emitted and the gate passes. Then checks the calibration arithmetic,
corrupts ``network/edges.csv`` and checks that the gate reports it, and
checks that the benchmark refuses to run without the collabmap sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time

import gate
import run

TOY_VALUES = {
    "--min-node-fractional": "1",
    "--min-link-weight": "1",
    "--core-k": "2",
    "--core-min-link-weight": "1",
    "--ego-min-link-weight": "1",
}


def toy(workload: run.Workload) -> run.Workload:
    """The same job shape on 300 documents, with thresholds every corpus meets."""

    def scale(template):
        return tuple(
            TOY_VALUES.get(template[i - 1], part) if i else part for i, part in enumerate(template)
        )

    return dataclasses.replace(
        workload,
        docs=300,
        countries=min(workload.countries, 20),
        focus_rank=0,
        commands=tuple(scale(c) for c in workload.commands),
        monolithic=scale(workload.monolithic) if workload.monolithic else None,
    )


def run_benchmark(args: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(args) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def check_declaration() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table, f"{key} in BENCHMARK.json differs from run.py"


def check_every_shape() -> None:
    real = dict(run.WORKLOADS)
    try:
        for name, workload in real.items():
            run.WORKLOADS[name] = toy(workload)
            for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                result = run_benchmark(
                    ["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
                )
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert result["correct"] is True and result["failed"] == 0, (name, trace, result)
                assert list(result["metrics"]) == list(table), (name, trace)
                for metric, value in result["metrics"].items():
                    assert value["unit"] == table[metric][0], metric
                print(f"ok  {name} --trace {trace}: {len(table)} metrics, "
                      f"{result['attempted']} operations")
    finally:
        run.WORKLOADS.update(real)


def check_calibration() -> None:
    # each wall time is scaled by REFERENCE_S over the mean of the two reference times around it
    walls = run.calibrate([1.0, 3.0], [run.REFERENCE_S, run.REFERENCE_S, 2 * run.REFERENCE_S])
    assert walls == [1.0, 2.0], walls
    print("ok  calibration scales by the bracketing reference jobs")


def check_gate_flags_corruption() -> None:
    workload = toy(run.WORKLOADS["corpus-wide"])
    runner = run.Runner(workload, seed=5, deadline=time.monotonic() + 120)
    runner.make_inputs()
    try:
        checker = run.Gate()
        _, _, ok, clean, _ = runner.op("clean")
        assert not checker.check(clean, ok)

        _, _, ok, again, _ = runner.op("corrupt")
        edges = again / "network" / "edges.csv"
        lines = edges.read_text(encoding="utf-8").splitlines()
        a, b, w = lines[1].split(",")
        lines[1] = f"{a},{b},{int(w) + 1}"
        edges.write_text("\n".join(lines) + "\n", encoding="utf-8")
        problems = checker.check(again, ok)
        assert any("differs from the first repetition" in p for p in problems), problems
        assert any("network/edges.csv does not match" in p for p in problems), problems

        # the oracle alone catches it on a first tree as well
        problems = gate.oracle_problems(again, gate.Corpus(again))
        assert any("single-relation fold" in p for p in problems), problems
        print("ok  gate flags a corrupted network/edges.csv")
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)


def check_refuses_without_sources() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in (run.ROOT / "perfbench").glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "corpus-wide",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
        print("ok  refuses to run without the collabmap sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_declaration()
    check_every_shape()
    check_calibration()
    check_gate_flags_corruption()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
