"""Collect the run records in bench/out/ into one results file.

    python3 bench/summarize.py --seeds 101-110 --traced-seed 101 --note TEXT OUT.json

For each workload with a --trace 0 record for every seed, it gives each
end-to-end metric's values, median, quartiles and spread (the distance
between the quartiles as a share of the median), the medians of the named
metrics, and, where a --trace 1 record for the traced seed exists, its
per-layer metrics and the functions that lead by self time.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("oneshot", "batch_cold", "batch_hot", "library_sweep")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(records: list[dict]) -> dict:
    metrics: dict[str, dict] = {}
    for name in records[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in records]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        metrics[name] = {"unit": records[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
    named = {}
    for key, value in records[0]["named_metrics"].items():
        if isinstance(value, (int, float)):
            named[key] = statistics.median(r["named_metrics"][key] for r in records)
    return {"end_to_end": metrics, "named_metrics_median": named}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--note", default="")
    parser.add_argument("out")
    args = parser.parse_args()
    result: dict = {"note": args.note, "provenance": None, "workloads": {}}
    for workload in WORKLOADS:
        paths = [OUT / f"{workload}-seed{s}-trace0.json" for s in args.seeds]
        if not all(p.exists() for p in paths):
            continue
        records = [json.loads(p.read_text()) for p in paths]
        prov = records[0]["provenance"]
        result["provenance"] = result["provenance"] or {
            k: prov[k] for k in ("python", "nproc", "git_commit", "src_sha256", "machine",
                                 "pool_seed")}
        entry = {"seeds": args.seeds, "jobs_per_run": prov["jobs"], **summarize(records)}
        traced = OUT / f"{workload}-seed{args.traced_seed}-trace1.json"
        if traced.exists():
            record = json.loads(traced.read_text())
            entry[f"traced_seed{args.traced_seed}"] = {
                "focus_self_s": record.get("focus_self_s"),
                "focus_by_phase": record.get("focus_by_phase"),
                "per_layer": {k: v["value"] for k, v in record["metrics"].items()},
            }
        result["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
