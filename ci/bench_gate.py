#!/usr/bin/env python3
"""Merge per-bench smoke JSON records and gate on perf regressions.

Subcommands:

  merge <dir> -o merged.json
      Collects every *.json record written by the bench binaries
      (TPR_BENCH_JSON) under <dir> into one {"records": [...]} document,
      sorted by bench name so the artifact diffs cleanly.

  check <merged.json> <baseline.json> [--tolerance 0.25]
      Compares current metrics against the checked-in baseline. All
      gated metrics are lower-is-better; a metric regresses when
      current > baseline * (1 + tolerance). A baseline metric may be a
      bare number (uses the default tolerance) or an object
      {"value": v, "tolerance": t} for metrics with a wider noise band
      (wall time on shared CI runners). A bench or metric present in
      the baseline but missing from the merged record is also a
      failure: losing coverage silently would defeat the gate.

  floors <merged.json> <baseline.json>
      Floor-gates higher-is-better ratio metrics (batched-serving
      speedup, int8 encode ratios, drift recovery, fleet scaling): every
      floor declared in the baseline's "floors" list, the one source of
      truth for these gates. They are deliberately NOT among the
      baseline records — the check subcommand is lower-is-better-only.
      Each entry names bench, metric, floor, degraded_floor, threads and
      requires_avx2. The degraded floor applies when the runner has
      fewer cores than `threads` (a saturated unbatched service and a
      batched one then contend for the same core, compressing the
      measurable gap); a requires_avx2 floor is skipped, not failed, on
      a host without AVX2.

  speedup <timing.json> [--min-speedup 1.3]
      Gates the BENCH_parallel_training.json record written by
      run_benches.sh full mode: identical_metrics must be true (the
      bitwise-reproducibility contract across thread counts) and the
      1-vs-N-thread wall-clock speedup must clear the floor. The floor
      is core-count aware: on a runner with fewer cores than the
      benchmarked thread count, real parallel speedup is physically
      impossible, so the gate only requires that threading does not
      grossly slow the run down (--min-speedup-degraded, default 0.45).

Only the Python standard library is used.
"""

import argparse
import json
import os
import pathlib
import sys


def load_records(path):
    with open(path) as f:
        doc = json.load(f)
    return {rec["bench"]: rec for rec in doc["records"]}


def cmd_merge(args):
    records = []
    for p in sorted(pathlib.Path(args.dir).glob("*.json")):
        try:
            with open(p) as f:
                records.append(json.load(f))
        except (json.JSONDecodeError, OSError) as e:
            print(f"bench_gate: skipping unreadable {p}: {e}", file=sys.stderr)
            return 1
    records.sort(key=lambda r: r.get("bench", ""))
    merged = {"records": records}
    with open(args.output, "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_gate: merged {len(records)} records into {args.output}")
    return 0


def baseline_entry(raw, default_tolerance):
    if isinstance(raw, dict):
        return float(raw["value"]), float(raw.get("tolerance", default_tolerance))
    return float(raw), default_tolerance


def cmd_check(args):
    current = load_records(args.merged)
    with open(args.baseline) as f:
        baseline = json.load(f)

    failures = []
    rows = []
    for rec in baseline["records"]:
        bench = rec["bench"]
        cur = current.get(bench)
        if cur is None:
            failures.append(f"{bench}: missing from merged results")
            continue
        for metric, raw in sorted(rec["metrics"].items()):
            base, tol = baseline_entry(raw, args.tolerance)
            if metric not in cur.get("metrics", {}):
                failures.append(f"{bench}/{metric}: missing from merged results")
                continue
            try:
                value = float(cur["metrics"][metric])
            except (TypeError, ValueError):
                failures.append(
                    f"{bench}/{metric}: non-numeric value "
                    f"{cur['metrics'][metric]!r} in merged results"
                )
                continue
            limit = base * (1.0 + tol)
            ok = value <= limit
            rows.append((bench, metric, base, value, tol, ok))
            if not ok:
                if base != 0:
                    delta = value / base - 1.0
                    failures.append(
                        f"{bench}/{metric}: {value:.6g} vs baseline "
                        f"{base:.6g} ({delta:+.1%} > allowed +{tol:.0%})"
                    )
                else:
                    failures.append(
                        f"{bench}/{metric}: {value:.6g} vs baseline 0 "
                        f"(any increase regresses)"
                    )

    width = max((len(f"{b}/{m}") for b, m, *_ in rows), default=20)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'tol':>5}  status")
    for bench, metric, base, value, tol, ok in rows:
        print(f"{bench + '/' + metric:<{width}}  {base:>12.6g}  "
              f"{value:>12.6g}  {tol:>5.0%}  {'ok' if ok else 'REGRESSED'}")

    if failures:
        print(f"\nbench_gate: {len(failures)} failure(s):", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"\nbench_gate: all {len(rows)} gated metrics within tolerance")
    return 0


def floor_failures(current, bench, threads, gates):
    """Prints one bench's floor table; returns its failure messages."""
    rec = current.get(bench)
    if rec is None:
        return [f"bench {bench!r} missing from merged results"]

    cores = os.cpu_count() or 1
    degraded_runner = cores < threads
    if degraded_runner:
        mode = (f"{cores} core(s) < {threads} workers: degraded floors "
                "(pipelines contend for the same cores)")
    else:
        mode = f"{cores} cores >= {threads} workers: full floors"
    print(f"bench_gate floors: bench={bench} cores={cores} ({mode})")

    failures = []
    for metric, floor, degraded in gates:
        required = degraded if degraded_runner else floor
        raw = rec.get("metrics", {}).get(metric)
        if raw is None:
            failures.append(f"{metric}: missing from {bench} record")
            print(f"  {metric:<32} MISSING (floor {required:.2f})")
            continue
        try:
            value = float(raw)
        except (TypeError, ValueError):
            failures.append(f"{metric}: non-numeric value {raw!r} in "
                            f"{bench} record")
            print(f"  {metric:<32} NON-NUMERIC (floor {required:.2f})")
            continue
        ok = value >= required
        print(f"  {metric:<32} {value:>8.3f}  floor {required:.2f}  "
              f"{'ok' if ok else 'BELOW FLOOR'}")
        if not ok:
            failures.append(
                f"{metric}: {value:.3f} below required {required:.2f} ({mode})"
            )
    return failures


FLOOR_KEYS = ("bench", "metric", "floor", "degraded_floor", "threads",
              "requires_avx2")


def load_floors(path):
    """The baseline's declared floors, validated; ValueError if malformed."""
    with open(path) as f:
        doc = json.load(f)
    floors = []
    for i, raw in enumerate(doc.get("floors", [])):
        missing = [k for k in FLOOR_KEYS if k not in raw]
        if missing:
            raise ValueError(f"floors[{i}]: missing {', '.join(missing)}")
        try:
            floors.append({
                "bench": str(raw["bench"]),
                "metric": str(raw["metric"]),
                "floor": float(raw["floor"]),
                "degraded_floor": float(raw["degraded_floor"]),
                "threads": int(raw["threads"]),
                "requires_avx2": bool(raw["requires_avx2"]),
            })
        except (TypeError, ValueError) as e:
            raise ValueError(f"floors[{i}]: {e}")
    if not floors:
        raise ValueError(f"{path} declares no floors")
    return floors


def host_has_avx2():
    try:
        with open("/proc/cpuinfo") as f:
            return any(line.startswith("flags") and " avx2" in line
                       for line in f)
    except OSError:
        return False


def cmd_floors(args):
    try:
        floors = load_floors(args.baseline)
    except (OSError, ValueError) as e:
        print(f"bench_gate: bad floors in {args.baseline}: {e}",
              file=sys.stderr)
        return 1
    current = load_records(args.merged)
    avx2 = host_has_avx2()
    groups = {}
    for fl in floors:
        if fl["requires_avx2"] and not avx2:
            print(f"bench_gate floors: no AVX2 on this host; "
                  f"{fl['bench']}/{fl['metric']} skipped")
            continue
        groups.setdefault((fl["bench"], fl["threads"]), []).append(
            (fl["metric"], fl["floor"], fl["degraded_floor"]))
    failures = []
    for (bench, threads), gates in groups.items():
        failures += floor_failures(current, bench, threads, gates)
    if failures:
        print(f"\nbench_gate: {len(failures)} failure(s):", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    cleared = sum(len(g) for g in groups.values())
    print(f"\nbench_gate: all {cleared} floor(s) cleared")
    return 0


def cmd_speedup(args):
    with open(args.timing) as f:
        rec = json.load(f)

    threads = int(rec.get("threads", 0))
    speedup = float(rec.get("speedup", 0.0))
    identical = rec.get("identical_metrics", False)
    cores = os.cpu_count() or 1

    failures = []
    if identical is not True:
        failures.append(
            "identical_metrics is not true: thread count changed the "
            "training result, breaking the bitwise-reproducibility contract"
        )
    if cores >= threads:
        floor = args.min_speedup
        mode = f"{cores} cores >= {threads} threads: full floor"
    else:
        floor = args.min_speedup_degraded
        mode = (f"{cores} core(s) < {threads} threads: degraded floor "
                "(no parallel speedup physically possible)")
    if speedup < floor:
        failures.append(
            f"speedup {speedup:.3f} below required {floor:.2f} ({mode})"
        )

    print(f"bench_gate speedup: bench={rec.get('bench', '?')} "
          f"threads={threads} cores={cores}")
    print(f"  seconds threads=1: {rec.get('seconds_threads1', '?')}")
    print(f"  seconds threads=N: {rec.get('seconds_threadsN', '?')}")
    print(f"  speedup:           {speedup:.3f} (floor {floor:.2f}; {mode})")
    print(f"  identical_metrics: {identical}")

    if failures:
        print(f"\nbench_gate: {len(failures)} failure(s):", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print("\nbench_gate: parallel-training gate passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge per-bench records")
    p_merge.add_argument("dir", help="directory of per-bench *.json records")
    p_merge.add_argument("-o", "--output", required=True)
    p_merge.set_defaults(func=cmd_merge)

    p_check = sub.add_parser("check", help="gate merged results vs baseline")
    p_check.add_argument("merged")
    p_check.add_argument("baseline")
    p_check.add_argument("--tolerance", type=float, default=0.25,
                         help="default relative tolerance (default 0.25)")
    p_check.set_defaults(func=cmd_check)

    p_floors = sub.add_parser(
        "floors", help="apply the floors declared in the baseline")
    p_floors.add_argument("merged", help="merged smoke document")
    p_floors.add_argument("baseline", help="bench_baseline.json")
    p_floors.set_defaults(func=cmd_floors)

    p_speedup = sub.add_parser(
        "speedup", help="gate the parallel-training timing record")
    p_speedup.add_argument("timing", help="BENCH_parallel_training.json")
    p_speedup.add_argument("--min-speedup", type=float, default=1.3,
                           help="required 1-vs-N speedup when the runner "
                                "has >= N cores (default 1.3)")
    p_speedup.add_argument("--min-speedup-degraded", type=float, default=0.45,
                           help="required speedup when the runner has fewer "
                                "cores than threads (default 0.45)")
    p_speedup.set_defaults(func=cmd_speedup)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
