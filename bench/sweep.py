"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                           [--trace 0|1] [--write bench/baseline.json]

Runs `run.py` once per workload and seed, in sequence, and prints for every
metric its median, quartiles and spread: the distance between the first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median.  `--write` merges the medians into a baseline file together with
the map from each per-layer metric to the end-to-end metric it should move,
and for traced sweeps records whether each workload's predicted dominant
layer held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BENCHMARKED, PER_LAYER

BENCH = Path(__file__).resolve().parent

#: Predicted dominant layers per workload, and the share of request time
#: they should take together (None: more than any other layer).
PREDICTIONS = {
    "churn-large": (("fleet.self",), 0.90),
    "audited-mix": (("verifier.audit",), None),
    "wide-sparse": (("reservation.insert", "reservation.delete"), None),
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    result["wall_s"] = time.monotonic() - started
    return result


def request_split(medians: dict) -> dict:
    """Per-request µs of each layer on the request path and its share of
    request time (Fleet.apply plus snapshot and audit)."""
    us = {
        "fleet.self": medians["fleet.self_us"],
        "reservation.insert": medians["reservation.insert_us"],
        "reservation.delete": medians["reservation.delete_us"],
        "fleet.snapshot": medians["fleet.snapshot_us"],
        "verifier.audit": medians["verifier.audit_us"],
    }
    us["fleet.apply other children"] = (medians["fleet.apply_us"] - us["fleet.self"]
                                        - us["reservation.insert"] - us["reservation.delete"])
    total = medians["fleet.apply_us"] + us["fleet.snapshot"] + us["verifier.audit"]
    return {layer: {"us": round(v, 3), "share": round(v / total, 4)} for layer, v in us.items()}


def check_prediction(workload: str, medians: dict) -> dict:
    layers, min_share = PREDICTIONS[workload]
    split = request_split(medians)
    observed = sum(split[layer]["share"] for layer in layers)
    if min_share is None:
        held = all(observed > s["share"] for layer, s in split.items() if layer not in layers)
        claim = f"{' + '.join(layers)}: the largest share of request time"
    else:
        held = observed >= min_share
        claim = f"{' + '.join(layers)}: at least {min_share:.0%} of request time"
    return {"prediction": claim, "held": held, "observed_share": observed,
            "request_split": split}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(BENCHMARKED))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="baseline JSON file to update")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_one(workload, seed, args.seconds, args.trace)
            ok &= result["correct"] and result["returncode"] == 0
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall {result['wall_s']:.1f}s {values}", file=sys.stderr)
            results.append(result)
        names = results[0]["metrics"].keys()
        rows = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, share = spread(values)
            rows[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                          "q1": q1, "q3": q3, "spread": share}
            print(f"{workload:12s} {name:32s} median {med:14.6g} q1 {q1:14.6g} "
                  f"q3 {q3:14.6g} spread {share:7.2%}")
        entry = {"seeds": seeds, "seconds": args.seconds, "metrics": rows,
                 "max_wall_s": max(r["wall_s"] for r in results)}
        if args.trace:
            entry["dominant_layer"] = check_prediction(
                workload, {k: v["median"] for k, v in rows.items()})
            print(f"{workload:12s} dominant layer: {json.dumps(entry['dominant_layer'])}")
        summary[workload] = entry
    if args.write:
        path = Path(args.write)
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline["machine"] = (f"{platform.machine()}, {os.cpu_count()} CPUs, "
                               f"{platform.python_implementation()} {platform.python_version()}")
        key = "per_layer" if args.trace else "end_to_end"
        baseline.setdefault(key, {}).update(summary)
        baseline["per_layer_map"] = {
            name: {"unit": unit, "definition": definition, "should_move": moves}
            for name, (unit, definition, moves) in PER_LAYER.items()
        }
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
