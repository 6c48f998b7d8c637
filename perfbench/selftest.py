#!/usr/bin/env python3
"""Self-test of the DIADS benchmark: short runs that check its contract.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds through run.py). For every
workload run.py offers (stream_detect too, which BENCHMARK.json leaves
out) it checks that
  * an untraced run prints each end-to-end metric of BENCHMARK.json, with
    its unit, and the workload's descriptive metrics;
  * a traced run prints each per-layer metric of BENCHMARK.json, with its
    unit;
  * two traced runs at the same seed repeat the deterministic counts
    exactly, with no failed operation and the seed-42 answers;
and that the correctness check is live: a run against a golden table with
one wrong digest must fail. Exits 1 on the first violated check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"

# Descriptive metrics each workload prints in its human-readable block.
NAMED = {
    "fresh_diagnosis": {"diagnoses_per_s": "1/s", "diagnosis_p50_ms": "ms",
                        r"diagnosis_p\d\d_ms": "ms",
                        "top1_accuracy": "fraction"},
    "dashboard_poll": {"polls_per_s": "1/s", "poll_p50_us": "us",
                       r"poll_p\d\d_us": "us", "top1_accuracy": "fraction"},
    "stream_detect": {"ingest_appends_per_s": "1/s",
                      "detect_recall": "fraction",
                      "fleet_query_p50_ms": "ms",
                      r"fleet_query_p\d\d_ms": "ms", "recover_ms": "ms",
                      "top1_accuracy": "fraction"},
}
# The seed-42 answers: top-1 accuracy 1.0 everywhere (50/50 computed
# reports, 50/50 served answers, 49/49 auto-diagnoses).
SEED42_ACCURACY = 1.0
# Per-layer counts that depend only on the seed.
DETERMINISTIC = [
    "workload.q2_runs", "workload.samples_appended",
    "monitor.gather_fetches", "monitor.gather_samples",
    "monitor.gather_bytes", "diads.da_metrics_scored", "diads.model_lookups",
    "fleet.log_bytes_per_verdict", "fleet.rows", "fleet.recover_records",
    "fleet.recover_dropped", "detect.appends_scored", "detect.band_crossings",
    "detect.confirmations", "detect.incidents_opened",
    "detect.suppressed_active", "detect.diagnoses_submitted",
]


def check(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "42", "--seconds", SECONDS,
               "--trace", str(trace), *extra]
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    check(lines, f"{workload}: no output; stderr:\n{result.stderr}")
    return result.returncode, lines[:-1], json.loads(lines[-1])


def check_metrics(where, printed, expected):
    check(set(printed) == set(expected),
          f"{where}: metrics {sorted(set(printed) ^ set(expected))} "
          "missing or unexpected")
    for name, unit in expected.items():
        check(printed[name]["unit"] == unit,
              f"{where}: {name} has unit {printed[name]['unit']}, not {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in NAMED:
        code, text, result = run(workload, 0)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{workload}: untraced run failed: {text[-5:]}")
        check_metrics(f"{workload} untraced", result["metrics"], end_to_end)
        check(result["metrics"]["accuracy"]["value"] == SEED42_ACCURACY,
              f"{workload}: top-1 accuracy is not {SEED42_ACCURACY}")
        check("golden_matches 50/50" in text, f"{workload}: golden digests")
        for pattern, unit in NAMED[workload].items():
            check(any(re.fullmatch(rf"named\s+{pattern}\s+\S+\s+{re.escape(unit)}",
                                   line.strip()) for line in text),
                  f"{workload}: descriptive metric {pattern} ({unit}) missing")
        if workload == "stream_detect":
            recall = next(float(line.split()[2]) for line in text
                          if line.split()[:2] == ["named", "detect_recall"])
            check(recall >= 0.98, f"detect_recall {recall} below 0.98")

        counts = []
        for _ in range(2):
            code, text, result = run(workload, 1)
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{workload}: traced run failed: {text[-5:]}")
            check_metrics(f"{workload} traced", result["metrics"], per_layer)
            counts.append({n: result["metrics"][n]["value"]
                           for n in DETERMINISTIC})
        for name in DETERMINISTIC:
            check(counts[0][name] == counts[1][name],
                  f"{workload}: {name} differs between identical runs "
                  f"({counts[0][name]} vs {counts[1][name]})")
        check(counts[0]["fleet.recover_dropped"] == 0,
              f"{workload}: recovery dropped records")
        print(f"selftest: {workload} ok")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                         or ".bench_build", "perfbench")
    wrong = os.path.join(build, "selftest-golden.txt")
    with open(os.path.join(ROOT, "tests", "golden_report_digests.txt")) as f:
        lines = f.read().splitlines()
    first = next(i for i, line in enumerate(lines)
                 if line and not line.startswith("#"))
    scenario, backend, digest = lines[first].split()
    flipped = digest[:-1] + ("1" if digest[-1] == "0" else "0")
    lines[first] = f"{scenario} {backend} {flipped}"
    with open(wrong, "w") as f:
        f.write("\n".join(lines) + "\n")
    code, text, result = run("fresh_diagnosis", 0, ["--golden", wrong])
    os.remove(wrong)
    check(code != 0 and not result["correct"] and result["failed"] >= 1,
          "a wrong expected digest did not fail the run")
    print("selftest: wrong golden digest fails the run, ok")
    print("selftest passed")


if __name__ == "__main__":
    main()
