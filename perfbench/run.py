"""Benchmark of the bohm-equilibrium CLI: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its src/.
Every operation is one cli.main call in a fresh worker process, as a
command-line run is. --trace 0 measures the end-to-end metrics, starting
operations one after another until --seconds is spent. --trace 1 runs three
operations: untraced, traced, and traced with tracemalloc, and prints the
per-layer metrics. Every operation's CSV is checked against its physics gate
and every operation of a run must write byte-identical files. The last stdout
line is one JSON object with keys correct, attempted, failed and metrics; the
full record, environment included, goes to
perfbench/out/<workload>/result-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, UNITS, counts, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_SAMPLES = 5  # set-up-only processes top up the operations' set-ups
CALIBRATION_REF_S = 0.06  # worker.calibrate() time that defines the reference speed
PROCESS_LIMIT_S = 170.0  # the whole run must end within 180 s


class WorkerError(RuntimeError):
    pass


def spawn(args, out_dir: Path, mode: str, op_id: int = 0) -> tuple[float, dict, float]:
    """Run one worker process; return (set-up seconds, its result, wall seconds)."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(out_dir), "--mode", mode,
               "--op-id", str(op_id)]
    if args.size == "tiny":
        command.append("--tiny")
    started = time.monotonic()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, args.hard_deadline - started))
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("READY "):
        raise WorkerError(f"{mode} worker never reported ready")
    setup = float(lines[0].split()[1]) - started
    return setup, json.loads(lines[-1]), time.monotonic() - started


def flag_differing_outputs(ops: list[dict]):
    """Every operation of a run must write byte-identical CSV and meta files."""
    digests = [op["digest"] for op in ops if op["digest"] is not None]
    for op in ops:
        if op["digest"] is not None and op["digest"] != digests[0]:
            op["problems"].append("CSV or meta file differs from the run's first operation")


def measure(args, out_dir: Path) -> dict:
    """End-to-end metrics: one fresh process per operation until --seconds is spent."""
    deadline = time.monotonic() + args.seconds
    setups, ops, walls, calibration = [], [], [], []
    while not ops or time.monotonic() + statistics.median(walls) <= deadline:
        setup, result, wall = spawn(args, out_dir, "op")
        setups.append(setup)
        ops.append(result)
        walls.append(wall)
        calibration.append(result["calibration"])
    while len(setups) < MIN_SETUP_SAMPLES:
        setup, result, _ = spawn(args, out_dir, "setup")
        setups.append(setup)
        calibration.append(result["calibration"])
    flag_differing_outputs(ops)
    op_wall = statistics.median(op["seconds"] for op in ops)
    setup_wall = statistics.median(setups)
    speed = CALIBRATION_REF_S / statistics.median(calibration)
    op_speed = speed if WORKLOADS[args.workload].page_fault_bound else 1.0
    return {
        "ops": ops,
        "setup_samples": setups,
        "calibration_samples": calibration,
        "environment": ops[0]["environment"],
        "raw": {"op_wall_s": op_wall, "setup_wall_s": setup_wall, "speed": speed},
        "metrics": {
            "op_s": op_wall * op_speed,
            "setup_s": setup_wall * speed,  # mapping libraries and modules: page faults
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        },
    }


def trace(args, out_dir: Path) -> dict:
    """Per-layer metrics: an untraced operation, a traced one, one traced for memory."""
    ops = [spawn(args, out_dir, mode, op_id)[1]
           for op_id, mode in enumerate(("op", "traced", "traced-memory"))]
    plain, timed, memory = ops
    flag_differing_outputs(ops)
    problems = []
    if counts(timed["trace"]) != counts(memory["trace"]):
        problems.append(f"counts differ between traced operations: "
                        f"{counts(timed['trace'])} vs {counts(memory['trace'])}")
    overhead = timed["seconds"] / plain["seconds"] - 1.0
    metrics, missing = layer_metrics(
        timed["trace"], memory["trace"], overhead, timed.get("speedup_w2")
    )
    return {"ops": ops, "environment": plain["environment"], "metrics": metrics,
            "missing": missing, "problems": problems}


def report(args, result: dict, names) -> dict:
    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    problems = result.get("problems", [])
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": UNITS[name]}
                    for name in names},
    }
    env = result["environment"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} operations, failed_frac {failed / len(ops):g} ({failed} of {len(ops)})")
    print(f"environment: {env['cpu_count']} cpus ({env['cpus_usable']} usable), "
          f"{env['memory_bytes'] / 2**30:.2f} GiB, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}")
    for i, op in enumerate(ops):
        for problem in op["problems"]:
            print(f"FAILED operation {i}: {problem}")
    for problem in problems:
        print(f"FAILED check: {problem}")
    if args.trace == 0:
        raw = result["raw"]
        print(f"  op_s over {len(ops)} operations, setup_s over "
              f"{len(result['setup_samples'])} set-ups; unscaled wall medians "
              f"{raw['op_wall_s']:.4f} s and {raw['setup_wall_s']:.4f} s; "
              f"page-fault speed against reference {raw['speed']:.4f}")
    for name in names:
        print(f"  {name} = {result['metrics'][name]!r} {UNITS[name]}")
    for name, reason in result.get("missing", {}).items():
        print(f"  not measured (reported as 0): {name}: {reason}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "summary": summary, **result}
    path = HERE / "out" / args.workload / f"result-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds, for the self-test")
    args = parser.parse_args(argv)
    args.hard_deadline = time.monotonic() + PROCESS_LIMIT_S
    # SIGTERM becomes SystemExit, so spawn() kills and reaps its worker first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit word")
    if not (ROOT / "src" / "bohm_equilibrium" / "cli.py").is_file():
        print(f"error: no bohm_equilibrium package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = trace(args, out_dir)
            names = [name for name, _, _ in PER_LAYER]
        else:
            result = measure(args, out_dir)
            names = [name for name, _, _ in END_TO_END]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
