"""One workload process: set up, run one CLI operation, check its answer.

Started by run.py once per operation, so every operation starts cold in a
fresh process, as a command-line user's run does, and its peak RSS is its
own. Prints `READY <time.monotonic()>` when the operation can begin, then
one JSON line: the calibration kernel's time and, unless --mode setup, the
operation's time, gate result, output digest and peak RSS, plus the trace
summary when traced.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import mmap
import os
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODES = ("setup", "op", "traced", "traced-memory")


def import_cli():
    """Import bohm_equilibrium.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import bohm_equilibrium
        from bohm_equilibrium import cli
    except ImportError as exc:
        raise SystemExit(f"cannot import bohm_equilibrium from {SRC}: {exc}")
    if not Path(bohm_equilibrium.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bohm_equilibrium was imported from {bohm_equilibrium.__file__}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "memory_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
    }


def calibrate() -> float:
    """Seconds this process takes to fault in 96 MB of fresh anonymous pages.

    The host's speed for this work drifts by a quarter over minutes, and the
    page-fault-bound operations and the set-up drift with it, so their times
    are rescaled by this kernel, timed in the same processes. It runs after
    the operation's peak RSS is read and maps 8 MB at a time.
    """
    import numpy as np

    start = time.perf_counter()
    for _ in range(12):
        with mmap.mmap(-1, 8 << 20) as fresh:
            np.frombuffer(fresh, dtype=np.uint8)[::4096] = 1
    return time.perf_counter() - start


def check(workload, settings: dict, rc: int, csv_path: Path) -> tuple[list[str], str | None]:
    """Gate problems of one finished operation, and its output digest."""
    if rc != 0:
        return [f"exit code {rc}"], None
    meta_path = Path(f"{csv_path}.meta.json")
    try:
        text, meta = csv_path.read_bytes(), meta_path.read_bytes()
    except FileNotFoundError as exc:
        return [f"output missing: {exc.filename}"], None
    digest = hashlib.sha256(text + b"\0" + meta).hexdigest()
    try:
        return workload.gate(text.decode(), settings), digest
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable CSV: {exc!r}"], digest


def propagate_speedup_w2(cli, config_path: str) -> tuple[float, bool]:
    """Time the operation's first propagate_ensemble call at widths 1 and 2."""
    from bohm_equilibrium import propagate_ensemble, sample_equilibrium
    import numpy as np

    config = cli.load_config(config_path, {})
    state = config.state()
    positions = sample_equilibrium(state, config.samples, config.seed)
    segment = dataclasses.replace(
        config.integrator(), t_final=config.resolved_times()[0], record_stride=0
    )
    seconds, finals = {}, {}
    for width in (1, 2):
        start = time.perf_counter()
        ensemble = propagate_ensemble(
            state, positions, segment, parallel_width=width, seed=config.seed
        )
        seconds[width] = time.perf_counter() - start
        finals[width] = ensemble.final_positions
    return seconds[1] / seconds[2], bool(np.array_equal(finals[1], finals[2]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for config and outputs")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--op-id", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    settings = workload.settings(args.seed, args.tiny)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{workload.name}.csv"
    config_path = out_dir / "config.ini"
    config_path.write_text(config_text({**settings, "out": str(csv_path)}))
    argv = [workload.subcommand, "--config", str(config_path)]
    for path in (csv_path, Path(f"{csv_path}.meta.json")):
        path.unlink(missing_ok=True)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        print(json.dumps({"calibration": calibrate()}), flush=True)
        return

    tracer = None
    if args.mode != "op":
        from tracing import ROOT_SPAN, Tracer

        tracer = Tracer(args.op_id, memory=args.mode == "traced-memory")
        tracer.install()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span(ROOT_SPAN, lambda: cli.main(argv))
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, digest = check(workload, settings, rc, csv_path)
    result = {"seconds": seconds, "rc": rc, "summary": sink.getvalue().strip(),
              "problems": problems, "digest": digest, "peak_rss_mb": peak_rss_mb,
              "calibration": calibrate()}

    if tracer is not None:
        result["trace"] = tracer.summary()
        (out_dir / f"spans-op{args.op_id}.json").write_text(json.dumps(tracer.spans))
        if args.mode == "traced" and workload.name == "equilibrium":
            speedup, identical = propagate_speedup_w2(cli, str(config_path))
            result["speedup_w2"] = speedup
            if not identical:
                result["problems"].append(
                    "propagate_ensemble differs between parallel widths 1 and 2"
                )
    result["environment"] = environment()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
