"""chirpfed benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

Each set-up runs in a fresh process started from here; the last one goes on
to the timed ops.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics named in
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no bytecode cache in the checkout
from reference import Reference, scaled  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("synth", "fed", "detect")
SETUPS = 3          # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, all processes included
# For this process and the workload processes.  One BLAS thread: steadier
# figures on a shared machine, and within nproc.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
             # compile the package afresh each time, so no run pays for
             # writing the bytecode cache that later runs read
             "PYTHONDONTWRITEBYTECODE": "1"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def run_child(cmd, deadline):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs and one set-up; for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "chirpfed", "__init__.py")):
        return fail(f"no chirpfed sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    # before numpy loads here, so the reference kernel runs as in the children
    os.environ.update(CHILD_ENV)
    os.environ.pop("PYTHONPATH", None)

    deadline = time.monotonic() + DEADLINE_S
    n_setups = 1 if args.tiny else SETUPS
    ref = Reference()
    setups, raw_setups, imports = [], [], []
    for k in range(n_setups):
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT]
        cmd += ["--tiny"] * args.tiny + ["--setup-only"] * (k < n_setups - 1)
        ref_before = ref.sample()
        spawned = time.monotonic()
        try:
            res = run_child(cmd, deadline)
        except (RuntimeError, ValueError, IndexError) as exc:
            return fail(str(exc))
        raw_setups.append(res["ready"] - spawned - res["pause_s"])
        setups.append(scaled(raw_setups[-1],
                             statistics.mean([ref_before, *res["setup_refs"]])))
        imports.append(res["import_s"])

    rates = res["rates"]
    ops = res["attempted"]
    e2e = {"setup_s": statistics.median(setups),
           "peak_rss_mb": res["peak_rss_mb"],
           "work_per_s": res["work_per_s"],
           "cycle_s": res["cycle_s"]}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"setup_s {e2e['setup_s']:.4f} s  (median of "
          f"{', '.join(f'{s:.3f}' for s in setups)}; unscaled "
          f"{', '.join(f'{s:.3f}' for s in raw_setups)})")
    for name, value in rates.items():
        print(f"{name} {value:.6g} 1/s  (unscaled {res['unscaled_rates'][name]:.6g})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio {res['failed'] / ops:.4f} ratio  ({res['failed']} of {ops} ops)")
    print(f"work_per_s {e2e['work_per_s']:.6g} 1/s  cycle_s {e2e['cycle_s']:.4f} s  "
          f"({len(res['cycles'])} cycles)")
    for problem in res["problems"]:
        print(f"failed check: {problem}")

    if args.trace:
        available = dict(res["layers"], **{"cli.import_s": statistics.median(imports)})
        wanted = bench["per_layer"]
    else:
        available = e2e
        wanted = bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in available:
            metrics[m["name"]] = {"value": available[m["name"]], "unit": m["unit"]}
        else:
            # a traced name the package no longer binds
            print(f"absent {m['name']}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")

    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as f:
        json.dump({"args": vars(args), "setup_s": setups,
                   "setup_unscaled_s": raw_setups, "import_s": imports,
                   "metrics": metrics, **res}, f, indent=1)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": ops,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
