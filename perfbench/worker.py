"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode run|trace|setup
                                [--spans FILE] [--corrupt]

Imports kalmanvar from the checkout's `src`, builds the job list, and
prints `ready` (time.perf_counter, CLOCK_MONOTONIC on Linux and so
comparable with the parent's clock) as soon as set-up is done.  In `run`
and `trace` mode it then runs every job, timing each, with the spans of
`spans.Tracer` around the library in `trace` mode only, and checks every
output after the timed region.  The last line of stdout is one JSON
object.  A nonzero exit means the checkout has no kalmanvar to import or
the harness itself broke; a job that fails is reported, not fatal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kalmanvar
    except ImportError as e:
        sys.exit(f"perfbench: cannot import kalmanvar from {src}: {e}")
    if src not in Path(kalmanvar.__file__).resolve().parents:
        sys.exit(f"perfbench: kalmanvar was imported from {kalmanvar.__file__}, not from {src}")
    return kalmanvar


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    kalmanvar = _import_package()
    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.perf_counter()
    labels = [job.label for job in jobs]
    result = {"ready": ready,
              "digest": hashlib.sha256("\n".join(labels).encode()).hexdigest()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install(kalmanvar)

    outputs, errors, ms = [], [], []
    first = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            outputs.append(job.run())
            errors.append(None)
        except Exception as e:  # a job that raises is a failed job, not a harness fault
            outputs.append(None)
            errors.append(f"raised {type(e).__name__}: {e}"[:200])
        ms.append((time.perf_counter() - t0) * 1e3)
    wall = time.perf_counter() - first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)

    records = []
    seen = set()
    for job, out, err, t in zip(jobs, outputs, errors, ms):
        if out is not None and args.corrupt and job.corrupt:
            out = job.corrupt(out)
        reason = err
        if reason is None:
            try:
                reason = job.check(out)
            except Exception as e:  # an output the check cannot read is a wrong output
                reason = f"check raised {type(e).__name__}: {e}"[:200]
        if reason is None:
            status = "pass"
        elif job.known and job.known in reason:
            status = "known"
        else:
            status = "fail"
        sha = None if out is None else hashlib.sha256(job.text(out).encode()).hexdigest()
        records.append({"label": job.label, "ms": t, "status": status, "reason": reason,
                        "repeat": job.label in seen, "sha256": sha})
        seen.add(job.label)
    result.update(wall_s=wall, rss_mb=rss_mb, jobs=records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
