"""One benchmark process: import hardylab, run passes of one workload.

Usage (started by run.py, never by hand):

    python3 worker.py --mode setup|pass|traced --workload W --seed N
                      --work DIR --result FILE

``setup`` only imports ``hardylab.cli`` and records the moment it is ready.
``pass`` runs one untraced pass.  ``traced`` installs the span recorder, runs
one traced pass, then a second pass in the same process to count report
drift.  The result (times, job outcomes, report digests, layer metrics) is
written as JSON to FILE.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from hardylab import cli

READY = time.monotonic()


def _env_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "HARDYLAB_THREADS": os.environ.get("HARDYLAB_THREADS"),
    }


def _digest(out: Path) -> tuple[str, int]:
    """Digest and total size of every file one job wrote."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def run_pass(jobs, ctx, out_root: Path, rec=None) -> dict:
    """Run every job through hardylab.cli.main and check its outputs."""
    from workloads import check

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    close = rec.root("bench.pass", t0) if rec else None
    results = []
    for job in jobs:
        out = out_root / job["name"]
        if rec:
            rec.job = job["name"]
        sink = io.StringIO()
        t_job = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(job["argv"] + ["--out", str(out)])
            if rc == 0:
                problems, facts = check(job, out, ctx)
            else:
                problems, facts = [f"exit {rc}: {sink.getvalue().strip()}"], {}
        except Exception as exc:  # a crashed job is a failed op, not a crash
            problems, facts = [f"{type(exc).__name__}: {exc}"], {}
        results.append({"name": job["name"], "ok": not problems,
                        "problems": problems,
                        "wall_s": time.perf_counter() - t_job, **facts})
    t1 = time.perf_counter()
    if close:
        close(t1)
    cpu = time.process_time() - cpu0
    for res in results:
        out = out_root / res["name"]
        res["digest"], res["bytes"] = _digest(out) if out.is_dir() else ("", 0)
    return {"wall_s": t1 - t0, "cpu_s": cpu, "jobs": results}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "pass", "traced"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    src = (Path.cwd() / "src").resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"hardylab imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"ready": READY, "env": _env_facts()}
    if args.mode != "setup":
        from workloads import prepare

        args.work.mkdir(parents=True, exist_ok=True)
        jobs, ctx = prepare(args.workload, args.seed, args.work)
        if args.mode == "pass":
            result["passes"] = [run_pass(jobs, ctx, args.work / "pass1")]
        else:
            from tracing import Recorder, layer_metrics

            rec = Recorder()
            rec.install()
            first = run_pass(jobs, ctx, args.work / "pass1", rec)
            result["layers"] = layer_metrics(rec)
            rec.enabled = False
            second = run_pass(jobs, ctx, args.work / "pass2")
            rec.uninstall()
            result["passes"] = [first, second]
    result["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
