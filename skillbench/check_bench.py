"""Self-checks of the benchmark itself.

Run from the root of the checkout, either directly or through pytest:

    python3 skillbench/check_bench.py
    python -m pytest -q skillbench/check_bench.py

The file name keeps it out of the repository's default test collection:
the traced-run check runs every workload twice and takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import widegen  # noqa: E402
from skillops.contract import library_fingerprint  # noqa: E402
from skillops.hseg import build_hseg  # noqa: E402
from workloads import WORKLOADS, signature_counts  # noqa: E402

REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WIDE = REFERENCE["widegen"]

# per-layer metrics that are counts or ratios of counts, so must repeat exactly
EXACT = (
    *bench.COUNTS,
    "maint.apply_per_action",
    "hseg.signature_pairs",
    "cgpd.iterations",
    "cgpd.converged",
    "planner.feasible_ratio",
    "harness.files_written",
    "harness.bytes_written",
)


def test_wide_library_repeats_its_fingerprint():
    for seed, want in WIDE["fingerprints"].items():
        first = library_fingerprint(widegen.build_wide_library(WIDE["n"], WIDE["noise"], int(seed)))
        again = library_fingerprint(widegen.build_wide_library(WIDE["n"], WIDE["noise"], int(seed)))
        assert first == again == want, seed


def test_wide_library_signature_counts_in_recorded_range():
    (a_lo, a_hi), (p_lo, p_hi) = WIDE["artifact_sets"], WIDE["precondition_sets"]
    for seed in WIDE["range_seeds"]:
        lib = widegen.build_wide_library(WIDE["n"], WIDE["noise"], seed)
        a_sets, p_sets = signature_counts(lib)
        assert a_lo <= a_sets <= a_hi, (seed, a_sets)
        assert p_lo <= p_sets <= p_hi, (seed, p_sets)


def test_wide_library_has_dep_edges_below_comp_threshold():
    lib = widegen.build_wide_library(WIDE["n"], WIDE["noise"], 42)
    g = build_hseg(lib.skills)
    below = 0
    for s in lib.skills:
        dep_edges, compatible = g.incident_dep_counts(s.id)
        below += compatible < dep_edges
    assert below > len(lib) // 10, below


def test_output_checks_fail_the_right_operations():
    class TwoPhases:
        phases = (("a", 0.5), ("b", 0.5))

        def cycle_len(self, phase):
            return 2

    def op(phase, index, scope, digest, problems=()):
        return bench.OpRecord(phase, index, scope, 0.1, digest, list(problems), {})

    wl = TwoPhases()
    records = [
        op("a", 0, 0, "x"), op("a", 1, 1, "y"), op("a", 0, 2, "x"), op("a", 1, 3, "z"),
        op("b", 0, 4, "u"), op("b", 1, 5, "v", ["broken"]),
    ]
    pinned = {"a": bench.cycle_digest(wl, records, "a"), "b": "not the cycle digest"}
    failed, mismatched = bench.failures(wl, records, pinned)
    assert mismatched == ["b"]
    assert failed == {3, 4, 5}


def test_untraced_run_reports_the_end_to_end_metrics():
    run = bench.run_workload("plan-queries-1k", 42, 0.0, trace=False)
    assert run["correct"] and run["detail"]["pinned"] == "match"
    assert set(run["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in run["metrics"].values())


def test_traced_runs_repeat_their_counters():
    for name in WORKLOADS:
        runs = [bench.run_workload(name, 42, 0.0, trace=True) for _ in range(2)]
        for run in runs:
            assert run["correct"], (name, run["detail"]["problems"], run["detail"]["pinned"])
            assert run["detail"]["pinned"] == "match", name
            assert run["detail"]["traced_digests_equal_untraced"], name
            assert set(run["metrics"]) == {m["name"] for m in SPEC["per_layer"]}, name
        counters = [{k: run["metrics"][k]["value"] for k in EXACT} for run in runs]
        assert counters[0] == counters[1], name


if __name__ == "__main__":
    for test in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        test()
        print(f"ok  {test.__name__}")
