"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Run from the repository root.  Runs every workload at tiny size, traced
and untraced, and checks that the result line carries exactly the
metrics of ``BENCHMARK.json`` with their units; then feeds the output
checks one wrong verdict per operation kind and checks that each is
caught.  Exits nonzero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_OPS = 3


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest: {message}")


def check_result_line(workload, trace, result):
    expect(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{workload}: result keys {sorted(result)}",
    )
    expect(result["correct"] and result["failed"] == 0, f"{workload}: wrong outputs")
    expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(wanted))}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{workload}: {name} is not a number")


def _tamper_analyze(doc):
    doc["x_tau_infinite"] = not doc["x_tau_infinite"]


def _tamper_language(doc):
    doc["words"].pop()
    doc["count"] -= 1


def _tamper_classify(doc):
    doc["class"] = "Distal" if doc["class"] != "Distal" else "Asymptotic"


def _tamper_tower(doc):
    doc["has_distal"] = True


TAMPER = {
    "analyze": _tamper_analyze,
    "language": _tamper_language,
    "classify": _tamper_classify,
    "tower": _tamper_tower,
}


def check_injection(workload, workdir):
    """Run a few operations, then corrupt one verdict per operation kind
    and require the output checks to flag it."""
    _, plan, caches = run.setup(workload, 11, workdir)
    main = sys.modules[run.PACKAGE + ".cli"].main
    schema = sys.modules[run.PACKAGE + ".report"].REPORT_SCHEMA
    count = len(plan.cycle) if workload == "points" else TINY_OPS
    outputs = workdir / "outputs.jsonl"
    with open(outputs, "wb") as sink:
        ops, _, _, _ = run.run_loop(main, plan, caches, sink, 0, 1, count)
    records = run.read_records(outputs)
    reasons, _ = run.check_outputs(ops, records, schema)
    expect(not any(reasons), f"{workload}: clean outputs flagged: {reasons}")
    kinds = {op.kind for op in ops} & set(TAMPER)
    expect(kinds, f"{workload}: no operation to tamper with")
    for kind in kinds:
        i = next(i for i, op in enumerate(ops) if op.kind == kind and records[i][0] == 0)
        doc = json.loads(records[i][1])
        TAMPER[kind](doc)
        bad = list(records)
        bad[i] = (0, json.dumps(doc), "")
        reasons, _ = run.check_outputs(ops, bad, schema)
        expect(reasons[i], f"{workload}: wrong {kind} verdict not caught")
    i = next((i for i, op in enumerate(ops) if op.kind == "analyze" and not op.budget_ok), None)
    if i is not None:
        bad = list(records)
        bad[i] = (3, "", json.dumps({"error": "SearchBudgetError", "message": "budget"}) + "\n")
        reasons, _ = run.check_outputs(ops, bad, schema)
        expect(reasons[i], f"{workload}: budget exit outside the budget-limited tier not caught")


def main():
    if not (run.SRC / run.PACKAGE / "__init__.py").is_file():
        raise SystemExit("selftest: run from a repository checkout")
    sys.path.insert(0, str(run.SRC))
    names = [w["name"] for w in SPEC["workloads"]]
    expect(sorted(names) == sorted(run.BUILDERS), "workloads differ from BENCHMARK.json")
    for workload in names:
        workdir = run.ROOT / ".bench_work" / f"selftest-{workload}"
        try:
            result, digest, _ = run.execute(workload, 5, 0, 0, workdir, TINY_OPS)
            check_result_line(workload, 0, result)
            _, again, _ = run.execute(workload, 5, 0, 0, workdir, TINY_OPS)
            expect(digest == again, f"{workload}: output digest differs for the same seed")
            result, _, _ = run.execute(workload, 5, 0, 1, workdir, TINY_OPS)
            check_result_line(workload, 1, result)
            check_injection(workload, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"selftest {workload}: ok")
    print("selftest: ok")


if __name__ == "__main__":
    main()
