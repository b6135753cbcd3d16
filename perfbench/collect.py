"""Run the benchmark over several seeds and record, per workload, the median,
quartiles and spread of every end-to-end metric, one traced run's per-layer
metrics, and the workload properties a later claim may depend on that are
not among those metrics. Run from the repository root:

    python3 perfbench/collect.py --runs 10 --out perfbench/results/NAME.json

Seeds go round the workloads in turn (seed 1 on every workload, then seed 2,
...), so drift of the machine spreads over all workloads instead of landing on
one. Spread is (q3 - q1) / median with statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return env, json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def properties(workload):
    """Workload properties that are not per-layer metrics. The others a claim
    may depend on are in the traced run's metrics: diverged-response share
    (kernel.scan.diverged_frac), live-sample share (kernel.scan.live_frac),
    exact-repeat share (1 - search.distinct_frac), evaluations, frames and
    bytes written per pass."""
    import workloads
    from pidtune.lti import SimConfig

    tmax = {"zn_tune": workloads.FULL.zn_tmax, "random_tune": workloads.FULL.random_tmax,
            "frames_tune": workloads.FULL.frames_tmax}[workload]
    kinds = [r[0] for r in workloads.RANDOM_REF.values()]
    return {
        "samples_per_response": SimConfig(t_max=tmax).n_samples,
        "plateau_start_share": (
            kinds.count("plateau") / len(kinds) if workload == "random_tune" else 0.0
        ),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs = {w: [] for w in names}
    env = None
    for seed in range(1, args.runs + 1):
        for w in names:
            env, res = run_once(w, seed, seconds, 0)
            runs[w].append(res)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    out = {"env": env, "run_seconds": seconds, "seeds": [1, args.runs], "workloads": {}}
    for w in names:
        entry = {
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "end_to_end": {
                m: summarize([r["metrics"][m]["value"] for r in runs[w]]) for m in bounds
            },
        }
        for m, s in entry["end_to_end"].items():
            flag = ("" if s["spread"] <= bounds[m] / 3 else
                    " OVER BOUND" if s["spread"] > bounds[m] else " over a third of bound")
            print(f"{w} {m}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[m]}){flag}")
        _, traced = run_once(w, 1, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced"] = {"seed": 1, "correct": traced["correct"], "metrics": layers}
        entry["properties"] = properties(w)
        print(f"{w} traced: overhead {layers['trace.overhead_s']:.4g} s", flush=True)
        out["workloads"][w] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
