"""kalmanvar benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload conic_det|ladder_det|audit|queries
                             --seed N --seconds S --trace 0|1 [--corrupt]

Run from the root of a checkout.  Each repetition runs the whole job list
in a fresh interpreter (`worker.py`), one job at a time, so no cache of
the program outlives a repetition.  Repetitions follow each other until
the next one would end after `--seconds`; there is always at least one,
and `queries` keeps going until it has 100 job latencies, so that ten
lie beyond p90.

--trace 0  end-to-end metrics, medians over the repetitions:
           wall_s       first job's start to last job's end, set-up excluded
           setup_s      interpreter start to `import kalmanvar` done and the
                        job list built (at least five set-ups per run)
           peak_rss_mb  peak resident memory of a repetition's process
           pass_share   jobs whose output passed its check / jobs attempted
           job_p50_ms, job_p90_ms  per-job latency over all repetitions
--trace 1  per-layer metrics from spans (spans.py), in repetitions that
           alternate untraced and traced; `trace.overhead_ratio` is the
           traced wall_s over the untraced one.
--corrupt  damages each output that has a corruption defined before it is
           checked; the checks must then fail (the benchmark's self-check).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
`failed` counts jobs whose output is wrong; the documented defects
(workloads.WITNESS_GAP_AUDIT and WITNESS_GAP_SAMPLE) fail as documented
and count in `known_failed` and in pass_share instead.  The full record
(environment, every repetition, every job with the sha256 of its output)
goes to .perfbench/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("conic_det", "ladder_det", "audit", "queries")
MIN_LATENCIES = {"queries": 100}
MIN_SETUPS = 5
REP_TIMEOUT_S = 170


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def _worker(workload: str, seed: int, mode: str, *extra: str) -> tuple[dict, float]:
    """One fresh interpreter; returns its JSON and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    return rep, rep["ready"] - spawned


def _environment(workload: str, seed: int, digest: str) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": workload,
        "seed": seed,
        "job_list_sha256": digest,
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mark_unstable(reps: list[dict]) -> None:
    """A job whose output bytes differ between repetitions of one seed fails."""
    first = [j["sha256"] for j in reps[0]["jobs"]]
    for rep in reps[1:]:
        for job, sha in zip(rep["jobs"], first):
            if job["sha256"] != sha and job["status"] != "fail":
                job["status"] = "fail"
                job["reason"] = "output differs between repetitions of one seed"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "kalmanvar" / "__init__.py").is_file():
        return _fail(f"no kalmanvar package under {ROOT / 'src'}; run from a checkout")
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--corrupt"] if args.corrupt else []

    reps, traced, setups = [], [], []
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            rep, setup = _worker(args.workload, args.seed, "run", *extra)
            reps.append(rep)
            setups.append(setup)
            if args.trace:
                spans_file = [] if traced else ["--spans", str(OUT / f"{name}.spans.jsonl")]
                rep, setup = _worker(args.workload, args.seed, "trace", *extra, *spans_file)
                traced.append(rep)
                setups.append(setup)
            took = time.perf_counter() - t0
            latencies = sum(len(r["jobs"]) for r in reps)
            if (time.perf_counter() - start + took > args.seconds
                    and latencies >= MIN_LATENCIES.get(args.workload, 1)):
                break
        while len(setups) < MIN_SETUPS:
            setups.append(_worker(args.workload, args.seed, "setup")[1])
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        return _fail(str(e))

    all_reps = reps + traced
    _mark_unstable(all_reps)
    jobs = [j for r in all_reps for j in r["jobs"]]
    attempted = len(jobs)
    failed = sum(j["status"] == "fail" for j in jobs)
    known = sum(j["status"] == "known" for j in jobs)
    latencies = [j["ms"] for r in reps for j in r["jobs"]]
    wall = statistics.median(r["wall_s"] for r in reps)
    repeat_share = sum(j["repeat"] for j in reps[0]["jobs"]) / len(reps[0]["jobs"])

    if args.trace:
        per_layer = {key: statistics.median(r["layers"][key] for r in traced)
                     for key in traced[0]["layers"]}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        per_layer.update({
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": wall,
            "trace.overhead_ratio": traced_wall / wall,
            "trace.spans": statistics.median(r["spans"] for r in traced),
            "jobs.repeat_share": repeat_share,
        })
        units = {k: _unit(k) for k in per_layer}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in reps), "unit": "MB"},
            "pass_share": {"value": sum(j["status"] == "pass" for j in jobs) / attempted,
                           "unit": "share"},
            "job_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
            "job_p90_ms": {"value": _percentile(latencies, 90), "unit": "ms"},
        }

    report = {
        "environment": _environment(args.workload, args.seed, reps[0]["digest"]),
        "seconds": args.seconds,
        "trace": args.trace,
        "corrupt": args.corrupt,
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "setups_s": setups,
        "latency_samples": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "known_failed": known,
        "failed_share": (failed + known) / attempted,
        "repeat_share": repeat_share,
        "metrics": metrics,
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in all_reps],
    }
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")

    for j in reps[0]["jobs"]:
        if j["status"] != "pass":
            print(f"perfbench: {j['status']}: {j['label']}: {j['reason']}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed}: {len(reps)} repetitions, "
          f"{attempted} jobs, failed_share={report['failed_share']:.3f} "
          f"({known} documented defects, {failed} wrong), record in {OUT / (name + '.json')}",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("ns_per_pair"):
        return "ns"
    if key.endswith("_share"):
        return "share"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    if key.endswith("bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
