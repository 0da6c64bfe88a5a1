"""hardylab benchmark: drives the public CLI in-process, one workload per
process and one process at a time.

    python3 perfbench/run.py --workload bound-2d|geometry|large-grid \
        --seed N --seconds S --trace 0|1

Run from the root of a hardylab checkout; the program is imported from its
``src`` directory.  Workers run with ``OPENBLAS_NUM_THREADS=1`` and
``HARDYLAB_THREADS=1``.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s       median time from process start until hardylab.cli is
                imported and ready, over SETUP_SAMPLES fresh processes
  wall_s        median time of one pass over the workload's jobs, from the
                first job's start until the last report is checked; passes
                run in fresh processes until --seconds is used up (at least 1)
  peak_rss_mib  median peak resident set of those pass processes

--trace 1 runs one untraced pass and then, in a second process, a traced
pass followed by a second in-process pass, and reports the per-layer
metrics of tracing.py.  It checks that the traced reports are byte-identical
to the untraced ones, counts the jobs whose reports change in the second
pass (cli.report_drift), reports the tracing overhead, and checks the layer
shares the workload is chosen for.

Every job's outputs are checked (workloads.py).  Detail lines (environment,
per-job outcomes and digests) go to stdout; the last line is the result:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when a
result was printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 5     # setup-only processes, plus one per pass process
DEADLINE_S = 170.0    # the whole run stays below this


def _steal() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench-work" / f"run-{os.getpid()}"
        self.t_start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS="1", HARDYLAB_THREADS="1")
        self.count = 0

    def worker(self, mode: str) -> tuple[dict, float]:
        """Run one worker process; returns its result and setup time."""
        self.count += 1
        tag = f"{mode}{self.count}"
        result = self.work / f"{tag}.json"
        log = self.work / f"{tag}.log"
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--work", str(self.work / tag), "--result", str(result)]
        budget = DEADLINE_S - (time.monotonic() - self.t_start)
        t0 = time.monotonic()
        with open(log, "w") as fh:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(budget, 1.0))
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n"
                               + log.read_text()[-2000:])
        data = json.loads(result.read_text())
        shutil.rmtree(self.work / tag, ignore_errors=True)
        return data, data["ready"] - t0

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start


# units of the metrics that are neither times (*_s) nor counts
UNITS = {"capacity.max_residual": "1", "hardy.class_reuse": "1",
         "dimension.loc_mc_gap": "1", "hardy.tightness_min": "1",
         "hardy.tightness_max": "1", "host.steal_frac": "1",
         "cli.bytes_written": "bytes", "peak_rss_mib": "MiB"}


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else UNITS.get(name, "count")


def measure(run: Runner, seconds: float):
    setups = []
    for _ in range(SETUP_SAMPLES):
        data, setup = run.worker("setup")
        setups.append(setup)
    env = data["env"]
    passes, rss = [], []
    t0 = time.monotonic()
    while True:
        data, setup = run.worker("pass")
        setups.append(setup)
        passes.append((f"pass{len(passes) + 1}", data["passes"][0]))
        rss.append(data["peak_rss_mib"])
        used = time.monotonic() - t0
        if used + used / len(passes) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for _, p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(rss),
    }
    env = {**env, "passes": len(passes), "setup_samples": len(setups)}
    return metrics, passes, env, []


def traced(run: Runner):
    ref, _ = run.worker("pass")
    data, _ = run.worker("traced")
    untraced = ref["passes"][0]
    first, second = data["passes"]
    layers = data["layers"]
    wall = first["wall_s"]
    problems = []

    # Tracing must not change a report.  A job whose report changes when it
    # is simply run again (drift) cannot show that either way; it is counted
    # in trace.identity_mismatch and cli.report_drift instead of failing.
    digests = [j["digest"] for j in untraced["jobs"]]
    drifted = [a["digest"] != b["digest"]
               for a, b in zip(first["jobs"], second["jobs"])]
    mismatched = [a["digest"] != b for a, b in zip(first["jobs"], digests)]
    perturbed = [j["name"] for j, m, d in zip(first["jobs"], mismatched,
                                              drifted) if m and not d]
    if perturbed:
        problems.append(f"tracing changed the reports of {perturbed}")

    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    if abs(self_sum - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"layer self times sum to {self_sum!r}, "
                        f"traced wall_s is {wall!r}")
    # the layer each workload is chosen to stress must dominate it; for
    # bound-2d that is the per-cube capacity field, which holds every solve
    claim, holds = {
        "bound-2d": ("capacity field >= 90% of wall_s",
                     layers["hardy.capacity_field_s"] >= 0.9 * wall),
        "geometry": ("no capacity solves",
                     layers["capacity.solves.eigen-exact"]
                     + layers["capacity.solves.descent"]
                     + layers["capacity.solves.other"] == 0),
        "large-grid": ("direct + cone split > 50% of wall_s",
                       layers["hardy.direct_s"] + layers["cone.split_s"]
                       > 0.5 * wall),
    }[run.workload]
    if not holds:
        problems.append(f"layer share not met: {claim}")

    gaps = [j["loc_mc_gap"] for j in first["jobs"] if "loc_mc_gap" in j]
    tight = [j["tightness"] for j in first["jobs"] if "tightness" in j]
    metrics = dict(layers)
    metrics.update({
        "dimension.loc_mc_gap": max(gaps, default=0.0),
        "hardy.tightness_min": min(tight, default=0.0),
        "hardy.tightness_max": max(tight, default=0.0),
        "cli.bytes_written": sum(j["bytes"] for j in first["jobs"]),
        "cli.report_drift": sum(drifted),
        "trace.identity_mismatch": sum(mismatched),
        "process.cpu_s": first["cpu_s"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_s": wall - untraced["wall_s"],
    })
    passes = [("untraced", untraced), ("traced", first), ("second", second)]
    return metrics, passes, {**data["env"], "digests": digests}, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hardylab" / "cli.py").is_file():
        print(f"no hardylab sources under {root / 'src'}; run from the root "
              "of a hardylab checkout", file=sys.stderr)
        return 2
    run = Runner(root, args.workload, args.seed)
    run.work.mkdir(parents=True)
    steal0 = _steal()
    try:
        metrics, passes, env, problems = (
            traced(run) if args.trace else measure(run, args.seconds))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    steal1 = _steal()
    steal_frac = (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1)
    if args.trace:
        metrics["host.steal_frac"] = steal_frac

    jobs = [job for _, p in passes for job in p["jobs"]]
    failed = sum(not job["ok"] for job in jobs)
    for label, p in passes:
        for job in p["jobs"]:
            print(json.dumps({"pass": label, **job}, sort_keys=True))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host.steal_frac": steal_frac,
                      "run_s": run.elapsed(), "problems": problems, **env},
                     sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
