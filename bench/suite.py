"""The whole benchmark in one command: every workload, every metric.

    python3 bench/suite.py                 # 7 trials of each workload
    python3 bench/suite.py --trace         # ... plus one traced trial each
    python3 bench/suite.py --quick         # 1 short trial each, a smoke test
    python3 bench/suite.py --aa 3          # A/A study: 3 sets, suggested bounds

Each trial is one ``bench/run.py`` in a fresh child process (clean heap,
meaningful RSS); trials are interleaved round-robin over the workloads
so that a slow minute of the host hits all of them alike.  The command
prints every metric by name with its unit, checks outputs and counters,
and exits non-zero if any check failed.

Without ``--aa`` every trial of a workload uses the same seed, and the
counters that must repeat exactly for a seed are required to.  With
``--aa N`` it does what the benchmark's driver does, N times over: each
trial of a set takes the next seed, and for every end-to-end metric it
prints the spread inside each set (quartile distance over median) and
the largest shift between two sets' medians, next to the bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if __name__ == "__main__":
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from bench.stats import best_mean, quartile_spread  # noqa: E402
from bench.workloads import SPECS, UNGATED  # noqa: E402

#: end-to-end metrics that repeat exactly when the seed does
EXACT = ("wal_bytes_per_txn", "fsyncs_per_txn")
#: floor of a suggested bound, and how far above the observed noise it sits
MIN_BOUND, MAX_BOUND, HEADROOM = 0.05, 0.25, 3.0


def run_trial(
    workload: str, seed: int, seconds: float, trace: int, repeats: int
) -> Dict[str, Any]:
    """One child run; returns its result line plus the per-trial record."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--repeats", str(repeats),
    ]
    started = time.perf_counter()
    child = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if child.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} exited {child.returncode}:\n{child.stderr}"
        )
    result = json.loads(child.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH / "out" / f"run_{workload}_{seed}_{trace}.json").read_text()
    )
    result["spin_s"] = record["spin_s"]
    result["slowdown"] = record.get("slowdown")
    result["problems"] = record["problems"]
    result["wall_s"] = time.perf_counter() - started
    result["seed"] = seed
    return result


def run_set(
    workloads: Sequence[str], seeds: Sequence[int], seconds: float, repeats: int,
    jobs: int = 1,
) -> Dict[str, List[Dict[str, Any]]]:
    """``len(seeds)`` trials of every workload, interleaved round-robin.

    ``jobs`` > 1 runs that many children at once -- for the smoke run
    only: trials that share the host's cores do not time anything."""
    todo = [(name, seed) for seed in seeds for name in workloads]
    trials: Dict[str, List[Dict[str, Any]]] = {name: [] for name in workloads}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        done = pool.map(
            lambda job: run_trial(job[0], job[1], seconds, 0, repeats), todo
        )
        for (name, seed), trial in zip(todo, done):
            trials[name].append(trial)
            print(
                f"  {name} seed {seed}: {trial['wall_s']:.1f}s, host slowdown "
                f"{trial['slowdown']:.2f}, spin "
                f"{trial['spin_s'][0] * 1e3:.1f}/{trial['spin_s'][1] * 1e3:.1f}ms"
                + ("" if trial["correct"] else "  CHECK FAILED"),
                flush=True,
            )
    return trials


def values(trials: Sequence[Dict[str, Any]], metric: str) -> List[float]:
    return [trial["metrics"][metric]["value"] for trial in trials]


def check_trials(
    name: str, trials: Sequence[Dict[str, Any]], same_seed: bool
) -> List[str]:
    failures = []
    for trial in trials:
        failures.extend(f"{name}: {problem}" for problem in trial["problems"])
        if not trial["correct"] and not trial["problems"]:
            failures.append(f"{name}: run reported correct=false")
    if same_seed:
        for metric in EXACT:
            seen = set(values(trials, metric))
            if len(seen) > 1:
                failures.append(
                    f"{name}: {metric} differs between trials of one seed: "
                    f"{sorted(seen)}"
                )
    return failures


def print_metrics(
    name: str, trials: Sequence[Dict[str, Any]], spec: Dict[str, Dict[str, Any]]
) -> None:
    keep = min(3, len(trials))
    gate = "  [not gated: see workloads.UNGATED]" if name in UNGATED else ""
    print(f"\n{name}  ({len(trials)} trials; best = mean of the best {keep}){gate}")
    print(f"  {'metric':34} {'unit':6} {'best':>12} {'median':>12} {'spread':>8}")
    for metric, meta in spec.items():
        found = values(trials, metric)
        lower = meta["better"] == "lower"
        spread = f"{quartile_spread(found):8.1%}" if len(found) > 1 else "       -"
        print(
            f"  {metric:34} {meta['unit']:6} "
            f"{best_mean(found, keep, lower):12.4f} "
            f"{statistics.median(found):12.4f} {spread}"
        )


def worse_by(first: float, second: float, lower_is_better: bool) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    shift = (second - first) / first
    return shift if lower_is_better else -shift


def aa_study(
    sets: Sequence[Dict[str, List[Dict[str, Any]]]],
    spec: Dict[str, Dict[str, Any]],
) -> Dict[str, float]:
    """Print the A/A table; returns the suggested bound per metric."""
    suggested: Dict[str, float] = {}
    print(f"\nA/A over {len(sets)} sets: spread inside a set (quartile distance "
          "/ median), worst shift between two sets' medians")
    print(f"  {'metric':22} {'workload':18} {'spread':>8} {'shift':>8} {'bound':>7}")
    for metric, meta in spec.items():
        lower = meta["better"] == "lower"
        noise = 0.0
        for name in sets[0]:
            found = [values(one[name], metric) for one in sets]
            spread = max(quartile_spread(v) for v in found)
            medians = [statistics.median(v) for v in found]
            shift = max(
                (worse_by(a, b, lower) for a in medians for b in medians),
                default=0.0,
            )
            if metric == "setup_s":
                spread = 0.0  # the driver does not bound setup_s's spread
            if name in UNGATED:
                print(f"  {metric:22} {name:18} {spread:8.1%} {shift:8.1%} "
                      "(not gated)")
                continue
            noise = max(noise, spread, shift)
            print(f"  {metric:22} {name:18} {spread:8.1%} {shift:8.1%} "
                  f"{meta['bound']:7.0%}")
        suggested[metric] = min(MAX_BOUND, max(MIN_BOUND, HEADROOM * noise))
    print("\nsuggested bounds (max(5%, 3 x worst noise), capped at 25%):")
    for metric, bound in suggested.items():
        flag = "" if bound <= spec[metric]["bound"] + 1e-9 else "   <-- above the recorded bound"
        print(f"  {metric:22} {bound:6.1%}{flag}")
    return suggested


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--trials", type=int, help="trials per workload "
                        "(default 7; 10 per set with --aa; 1 with --quick)")
    parser.add_argument("--seconds", type=float,
                        help="seconds per trial (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", action="store_true",
                        help="add one traced trial per workload")
    parser.add_argument("--quick", action="store_true",
                        help="1 short trial each, two at a time: a smoke test, "
                        "its timings mean nothing")
    parser.add_argument("--aa", type=int, metavar="N", default=0,
                        help="A/A study over N >= 2 sets, seeds differ per trial")
    parser.add_argument("--write-bounds", action="store_true",
                        help="with --aa: record the suggested bounds in BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="write every trial's values here")
    args = parser.parse_args(argv)

    config_path = ROOT / "BENCHMARK.json"
    config = json.loads(config_path.read_text())
    known = [spec.name for spec in SPECS]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    if args.aa == 1 or args.aa < 0:
        parser.error("--aa needs at least 2 sets")
    end_to_end = {m["name"]: m for m in config["end_to_end"]}
    per_layer = {m["name"]: m for m in config["per_layer"]}
    seconds = args.seconds or (0.5 if args.quick else float(config["run_seconds"]))
    repeats = 1 if args.quick else 5
    trials = args.trials or (1 if args.quick else 10 if args.aa else 7)

    failures: List[str] = []
    output: Dict[str, Any] = {"seconds": seconds, "seed": args.seed}
    started = time.perf_counter()
    if args.aa:
        sets = []
        for index in range(args.aa):
            print(f"set {index + 1}/{args.aa}", flush=True)
            seeds = [args.seed + index * trials + i for i in range(trials)]
            sets.append(run_set(workloads, seeds, seconds, repeats))
        for one in sets:
            for name, found in one.items():
                failures.extend(check_trials(name, found, same_seed=False))
        suggested = aa_study(sets, end_to_end)
        output["sets"] = sets
        output["suggested_bounds"] = suggested
        if args.write_bounds:
            for metric in config["end_to_end"]:
                metric["bound"] = round(suggested[metric["name"]], 3)
            config_path.write_text(json.dumps(config, indent=2) + "\n")
            print(f"wrote bounds to {config_path}")
    else:
        found = run_set(
            workloads, [args.seed] * trials, seconds, repeats,
            jobs=2 if args.quick else 1,
        )
        for name, name_trials in found.items():
            failures.extend(check_trials(name, name_trials, same_seed=True))
            print_metrics(name, name_trials, end_to_end)
        output["trials"] = found
        if args.trace:
            traced = {}
            for name in workloads:
                trial = run_trial(name, args.seed, seconds, 1, repeats)
                failures.extend(check_trials(name, [trial], same_seed=False))
                traced[name] = trial
                print(f"\n{name}  (traced; spans of the first transactions in "
                      f"bench/out/trace_{name}.json)")
                for metric, meta in per_layer.items():
                    value = trial["metrics"][metric]["value"]
                    print(f"  {metric:38} {meta['unit']:6} {value:14.4f}")
            output["traced"] = traced
    output["wall_s"] = time.perf_counter() - started
    print(f"\ntotal wall {output['wall_s']:.0f}s")
    if args.out:
        args.out.write_text(json.dumps(output, indent=1))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("all checks passed" if not failures else f"{len(failures)} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
