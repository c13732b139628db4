"""Run the benchmark once per seed and report each metric's spread: the
distance between the first and third quartiles of its values, as a share
of their median, beside a third of the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload guided_sim --seeds 1,2,3,4,5

Runs one benchmark process at a time, from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartile_spread(values):
    """(first quartile, median, third quartile, spread): the quartiles of
    ``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
    that the bounds in BENCHMARK.json are judged against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    if len(args.seeds.split(",")) < 2:
        return 0
    for name, vals in values.items():
        q1, med, q3, spread = quartile_spread(vals)
        bound = bounds.get(name)
        limit = "" if bound is None else f"  bound/3 {bound / 3:.4f} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:36s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
