"""cablefield benchmark: one workload, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one ``cablefield`` CLI command (``perfbench/op.py`` running
``cablefield.cli.main``) in a fresh Python process on a scenario file
written from the seed.  Ops run one at a time from this process (a closed
loop with one client); another op starts only while it is expected (by the
median op so far) to end within ``--seconds``, and at least one op always
runs.  Every op is gated on correctness (``workloads.check_op``).
The program is imported from ``src/`` of the checkout; nothing is
installed.  BLAS threads are capped at min(2, available cores).

``--trace 0`` prints the end-to-end metrics (medians over the run's ops):

    wall_s       spawn -> exit of one op, outputs written
    setup_s      spawn -> entry to Scenario.simulate (certify: -> command return)
    peak_rss_mb  peak resident memory of the op's process

and, as text only, ``steps_per_s`` (simulate workloads) and
``failed_op_ratio``.  ``--trace 1`` alternates untraced and traced ops and
prints the per-layer metrics of ``tracing.LAYER_METRICS``, including the
tracing overhead (traced - untraced wall_s) and the op time no span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# every run must end within 180 s; an op still running past this is killed
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(cmd, env, stdout, stderr, limit_s):
    """Run cmd to completion; returns (exit code, wall s, peak RSS MB, CPU s, spawn time)."""
    lock = threading.Lock()
    reaped = False
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=stdout, stderr=stderr)

    def kill():
        with lock:
            if not reaped:
                proc.kill()

    timer = threading.Timer(max(limit_s, 1.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        with lock:
            reaped = True
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, t1 - t0, usage.ru_maxrss / 1024.0, cpu, t0


def run_op(name: str, seed: int, op: int, traced: bool, workdir: str, env: dict,
           deadline: float) -> dict:
    """Run and gate one op; returns its measurements."""
    wl = workloads.WORKLOADS[name]
    opdir = os.path.join(workdir, f"op{op}")
    outdir = os.path.join(opdir, "out")
    os.makedirs(outdir)
    scenario = os.path.join(opdir, "scenario.json")
    with open(scenario, "w") as f:
        json.dump(workloads.scenario_for(name, seed, op), f)
    marks_path = os.path.join(opdir, "marks.json")
    spans_path = os.path.join(opdir, "spans.json") if traced else "-"
    cmd = [sys.executable, os.path.join(HERE, "op.py"), marks_path, spans_path, str(op),
           "--", wl["command"], scenario, "--output-dir", outdir]
    with open(os.path.join(opdir, "stdout.txt"), "w") as out, \
            open(os.path.join(opdir, "stderr.txt"), "w") as err:
        rc, wall, rss, cpu, t0 = _spawn(cmd, env, out, err, deadline - time.monotonic())

    rec = {"op": op, "traced": traced, "returncode": rc, "wall_s": wall,
           "peak_rss_mb": rss, "cpu_s": cpu, "setup_s": None, "simulate_s": None, "spans": None}
    problems = workloads.check_op(name, op, rc, outdir)
    try:
        with open(marks_path) as f:
            marks = json.load(f)
    except (OSError, json.JSONDecodeError):
        marks = {}
        problems.append("no timing marks")
    if marks and not marks["module"].startswith(SRC + os.sep):
        problems.append(f"imported {marks['module']}, not the checkout's src/")
    if wl["command"] == "simulate" and "simulate_enter" in marks:
        rec["setup_s"] = marks["simulate_enter"] - t0
        rec["simulate_s"] = marks["simulate_exit"] - marks["simulate_enter"]
    elif wl["command"] == "certify" and "main_return" in marks:
        rec["setup_s"] = marks["main_return"] - t0
    elif not traced:
        problems.append("no set-up time measured")
    if traced:
        try:
            with open(spans_path) as f:
                rec["spans"] = json.load(f)
        except (OSError, json.JSONDecodeError):
            problems.append("no spans written")
    rec["problems"] = problems
    if not problems:
        shutil.rmtree(opdir)
    return rec


def _summary(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def end_to_end(name: str, ops: list) -> tuple:
    """End-to-end metrics (medians over the ops that passed) and text lines."""
    good = [o for o in ops if not o["problems"]] or ops
    wl = workloads.WORKLOADS[name]
    metrics, text = {}, []
    for metric, unit in END_TO_END.items():
        values = [o[metric] for o in good if o[metric] is not None]
        if not values:
            values = [0.0]
        med, q1, q3 = _summary(values)
        metrics[metric] = {"value": med, "unit": unit}
        text.append(f"{metric:16s} {med:12.6g} {unit:5s} median of {len(values)} ops, "
                    f"quartiles {q1:.6g} .. {q3:.6g}")
    if wl["command"] == "simulate":
        rates = [wl["steps"] / o["simulate_s"] for o in good if o["simulate_s"]]
        if rates:
            med, q1, q3 = _summary(rates)
            text.append(f"{'steps_per_s':16s} {med:12.6g} {'1/s':5s} median of {len(rates)} ops, "
                        f"quartiles {q1:.6g} .. {q3:.6g}")
    return metrics, text


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cablefield benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cablefield", "cli.py")):
        print(f"error: no cablefield sources under {SRC}", file=sys.stderr)
        return 2

    name = args.workload
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = _child_env()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # compile bytecode and warm the file cache; users do not pay this per run
    try:
        subprocess.run([sys.executable, "-c", "import cablefield.cli"], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    except subprocess.TimeoutExpired:
        pass      # the ops themselves then report the failure

    # start another op only while it is expected to end within --seconds
    min_ops = 2 if args.trace else 1
    t_run = time.monotonic()
    ops = []
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_op(name, args.seed, len(ops), traced, workdir, env, deadline))
        now = time.monotonic()
        expected_end = now - t_run + statistics.median(o["wall_s"] for o in ops)
        if now >= deadline or (len(ops) >= min_ops and expected_end > args.seconds):
            break

    failed = [o for o in ops if o["problems"]]
    wl = workloads.WORKLOADS[name]
    print(f"# workload {name}: {wl['why']}")
    print(f"# seed {args.seed}; {len(ops)} ops over {time.monotonic() - t_run:.1f} s, one at a "
          f"time; BLAS threads {env['OMP_NUM_THREADS']}")
    for o in ops:
        setup = "-" if o["setup_s"] is None else f"{o['setup_s']:.4f}"
        print(f"# op {o['op']}{' traced' if o['traced'] else ''}: wall_s {o['wall_s']:.4f} "
              f"cpu_s {o['cpu_s']:.4f} setup_s {setup} peak_rss_mb {o['peak_rss_mb']:.1f}"
              + (f" FAILED: {'; '.join(o['problems'])}" if o["problems"] else ""))

    if args.trace:
        traced_ops = [o for o in ops if o["traced"] and o["spans"]]
        untraced_walls = [o["wall_s"] for o in ops if not o["traced"]]
        with open(os.path.join(workdir, "spans.json"), "w") as f:
            json.dump([s for o in traced_ops for s in o["spans"]], f)
        if traced_ops:
            first = traced_ops[0]
            for line in tracing.share_lines(first["spans"], first["wall_s"]):
                print(f"# {line}")
        else:
            print("# no traced op completed")
            traced_ops = [{"spans": [], "wall_s": 0.0}]
        layer = tracing.run_metrics([(o["spans"], o["wall_s"]) for o in traced_ops],
                                    untraced_walls)
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]}
                   for k, v in layer.items()}
        for k, v in metrics.items():
            print(f"{k:40s} {v['value']:14.6g} {v['unit']}")
    else:
        metrics, text = end_to_end(name, ops)
        for line in text:
            print(line)
    print(f"{'failed_op_ratio':16s} {len(failed) / len(ops):12.6g} {'ratio':5s} "
          f"{len(failed)} of {len(ops)} ops")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
