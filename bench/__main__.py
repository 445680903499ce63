"""Command line of the benchmark.

    python3 -m bench --workload W --seed N --seconds S --trace 0|1
        one workload in this process (the form BENCHMARK.json's command takes);
        the last line of standard output is the result object
    python3 -m bench [--seed N]      every workload, gated then traced, one
                                     fresh process each; writes out/latest.json
    python3 -m bench --quick         every workload, 3 repetitions, no trace:
                                     a smoke test, "gated": false
    python3 -m bench --selfcheck     the gated pass twice, the second time
                                     beside a busy process; fails if they differ
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any  # noqa: E402

from bench import MANIFEST, OUT_DIR, ROOT, use_checkout_source  # noqa: E402

#: Set-ups measured per gated run, this process's own included: fresh child
#: processes are set up until there are ``SETUP_SAMPLES[0]`` samples, and on
#: until there are ``SETUP_SAMPLES[1]`` while fewer than ``SETUP_BUDGET_S``
#: seconds went into them.  A one-second set-up is the kind a passing burst
#: on the host distorts most, and gets five samples; the six-second one of
#: the 1000-node mesh gets three, or two on a host running at half speed,
#: which keeps the run inside the time the driver allows it.
SETUP_SAMPLES = (2, 5)
SETUP_BUDGET_S = 12.0
#: Selfcheck: a run whose own repetitions scatter more than this (IQR over
#: median of the per-unit costs, which differ in run seed as well as in host
#: conditions) is not worth comparing.
MAX_REP_IQR = 0.25
QUICK_REPS = 3


def _child(arguments: list[str]) -> list[dict[str, Any]]:
    """Run ``python3 -m bench`` with ``arguments``; return its JSON output lines."""
    done = subprocess.run([sys.executable, "-m", "bench", *arguments], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"bench: child {' '.join(arguments)} exited {done.returncode}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def run_one(args: argparse.Namespace, manifest: dict[str, Any]) -> int:
    """One workload, in this process."""
    use_checkout_source()
    from bench import harness
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    run = harness.set_up(WORKLOADS[args.workload], args.seed)
    setups = [time.perf_counter() - _STARTED]
    if args.setup_only:
        harness.report_errors(run)
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    base = ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.quick:
        harness.measure(run, 0.0, QUICK_REPS)
    elif args.trace:
        harness.measure(run, args.seconds / 2, harness.TRACED_REPS + 2)
    else:
        while len(setups) < SETUP_SAMPLES[0] or (len(setups) < SETUP_SAMPLES[1]
                                                 and sum(setups) < SETUP_BUDGET_S):
            setups.append(_child(base)[-1]["setup_s"])
        harness.measure(run, args.seconds, harness.MIN_REPS)
    peak_rss = harness.peak_rss_mib()

    values = harness.bench_metrics(run)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = peak_rss
    if args.trace:
        values.update(harness.traced_pass(run, values["bench.calib_s"]))
    harness.report_errors(run)

    first = run.units[:harness.TRACED_REPS]
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "gated": not args.quick,
        "sim.digest": [unit.digest for unit in first],
        "bench.rep_costs": [round(unit.cost, 4) for unit in run.units if unit.cpu_s],
        **{name: value for name, value in values.items() if name.startswith("bench.")},
        **{name: [unit.totals.get(name) for unit in first] for name in first[0].totals},
    }}))
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric["name"]: {"value": values.get(metric["name"], 0.0),
                                     "unit": metric["unit"]}
                    for metric in manifest[kind]},
    }))
    return 0


def run_all(args: argparse.Namespace, manifest: dict[str, Any],
            trace: bool = True) -> dict[str, Any]:
    """Every workload, each pass in a fresh process; returns the merged report."""
    report: dict[str, Any] = {"seed": args.seed, "gated": not args.quick, "workloads": {}}
    for workload in manifest["workloads"]:
        name = workload["name"]
        base = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
        passes = [base + ["--quick"]] if args.quick else [base + ["--trace", "0"]]
        if trace and not args.quick:
            passes.append(base + ["--trace", "1"])
        entry: dict[str, Any] = {"correct": True, "ops_attempted": 0, "ops_failed": 0,
                                 "metrics": {}}
        for arguments in passes:
            *_, detail, result = _child(arguments)
            entry["correct"] &= result["correct"]
            entry["ops_attempted"] += result["attempted"]
            entry["ops_failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
            entry.setdefault("detail", detail["detail"])
        report["workloads"][name] = entry
        print(f"bench: {name}: " + ", ".join(
            f"{metric['name']}={entry['metrics'][metric['name']]['value']:.4g}"
            for metric in manifest["end_to_end"]), file=sys.stderr)
    return report


def _write(name: str, report: dict[str, Any]) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")


def _git_status() -> str | None:
    """``git status --porcelain`` of the checkout; ``None`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=60)
    return done.stdout if done.returncode == 0 else None


def selfcheck(args: argparse.Namespace, manifest: dict[str, Any]) -> int:
    """Same code, quiet host then loaded host: every gated number must agree."""
    tree_before = _git_status()
    quiet = run_all(args, manifest, trace=False)
    _write("aa-quiet.json", quiet)
    sibling = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        loaded = run_all(args, manifest, trace=False)
    finally:
        sibling.kill()
        sibling.wait()
    _write("aa-loaded.json", loaded)

    problems = []
    if _git_status() != tree_before:
        problems.append("the run changed what `git status --porcelain` reports")
    for name, before in quiet["workloads"].items():
        after = loaded["workloads"][name]
        for metric in manifest["end_to_end"]:
            first = before["metrics"][metric["name"]]["value"]
            second = after["metrics"][metric["name"]]["value"]
            if abs(second - first) > metric["bound"] * first:
                problems.append(f"{name} {metric['name']}: {first:.4g} quiet, "
                                f"{second:.4g} loaded (bound {metric['bound']})")
        for label, entry in (("quiet", before), ("loaded", after)):
            if entry["detail"]["bench.rep_iqr"] > MAX_REP_IQR:
                problems.append(f"{name} ({label}): repetitions scatter "
                                f"{entry['detail']['bench.rep_iqr']:.3f} > {MAX_REP_IQR}")
            if not entry["correct"] or entry["ops_failed"]:
                problems.append(f"{name} ({label}): incorrect output or failed operations")
        for field in before["detail"]:
            if field.startswith("sim.") and before["detail"][field] != after["detail"][field]:
                problems.append(f"{name} {field}: simulated statistics differ between passes")
    for problem in problems:
        print(f"bench: selfcheck: {problem}", file=sys.stderr)
    print(json.dumps({"selfcheck": "failed" if problems else "passed",
                      "problems": problems}))
    return 1 if problems else 0


def main() -> int:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: every run seed derives from it (default 1)")
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="length of the timed loop (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass, per-layer metrics; 0: gated metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_REPS} repetitions, no trace; numbers mean nothing")
    parser.add_argument("--selfcheck", action="store_true",
                        help="gated pass quiet and beside a busy process; compare")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.workload:
        return run_one(args, manifest)
    use_checkout_source()  # fail here, not in five children
    if args.selfcheck:
        return selfcheck(args, manifest)
    report = run_all(args, manifest)
    _write("latest.json", report)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
