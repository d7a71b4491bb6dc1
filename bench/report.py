"""Run every workload several times and print each metric by name.

    python3 bench/report.py [--first-seed 1] [--trace] [--json PATH]
                            [--against PATH]

Every workload of ``BENCHMARK.json`` gets ten runs of its ``run_seconds``,
each one ``bench/run.py`` process with its own seed, from ``--first-seed``
on.  For every end-to-end metric the report gives the median, the quartiles
and their distance as a share of the median (the spread that BENCHMARK.json
bounds), the number of runs and of timed commands behind it, and the share
of commands that failed their correctness gate.  With ``--trace`` each workload also gets one traced
run, whose per-layer metrics are printed and stored.  ``--against`` names the
``--json`` output of an earlier report; each median is then also given as a
change against that report's median, worse being positive, next to the
metric's bound.  Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def run_once(workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace))],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", default=None, help="write the results here")
    parser.add_argument("--against", default=None,
                        help="an earlier --json output to compare medians with")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in config["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None

    doc = {"seconds": config["run_seconds"], "runs": RUNS,
           "seeds": [args.first_seed, args.first_seed + RUNS - 1],
           "workloads": {}}
    if earlier is not None:
        doc["against"] = args.against
    for workload in (w["name"] for w in config["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            info, result = run_once(workload, seed, False)
            results.append(result)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"host": info["host"], "commands": attempted,
                 "failed_frac": failed / attempted, "end_to_end": {}}
        print(f"{workload}: {RUNS} runs, {attempted} commands, "
              f"failed_frac {failed / attempted:.3f}, load {info['host']['loadavg'][0]:.2f}")
        for name, metric in metrics.items():
            unit = metric["unit"]
            stats = spread([r["metrics"][name]["value"] for r in results])
            stats["unit"] = unit
            line = (f"  {name:14s} median {stats['median']:12.6g} {unit:4s} "
                    f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                    f"spread {stats['spread']:.4f} (bound {metric['bound']}) "
                    f"n={RUNS}")
            if earlier is not None:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                change = stats["median"] / before - 1
                if metric["better"] == "higher":
                    change = -change
                stats["worse_than_against"] = change
                line += f" worse {change:+.4f}"
            entry["end_to_end"][name] = stats
            print(line)
        if args.trace:
            info, traced = run_once(workload, args.first_seed, True)
            entry["trace"] = info["trace"]
            entry["per_layer"] = {
                name: [v["value"], v["unit"]] for name, v in traced["metrics"].items()
            }
            print(f"  traced root span {info['trace']['root_s']:.3f} s, layer self "
                  f"times sum to {info['trace']['layer_self_sum_s']:.3f} s")
            for name, (value, unit) in entry["per_layer"].items():
                print(f"  {name:36s} {value:14.6g} {unit}")
        doc["workloads"][workload] = entry
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
