"""Benchmark of the cvqkd package: one workload per fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rate_figures --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): mc_validate, rate_figures, range_limit. The
program is imported from ./src. A run measures set-up time in fresh child
processes, then repeats passes of the workload until the next pass would
end after --seconds, checks every pass's outputs against expected.json and
prints one JSON object as its last line of standard output. With --trace 0
it reports the end-to-end metrics; with --trace 1 it alternates untraced
and traced passes and reports the per-layer metrics. End-to-end times are
normalized to a nominal host speed (see hostspeed.py); the raw medians are
printed in the notes. The exit code is 0 when every output check passes,
1 on a mismatch, 2 on a usage error or when ./src holds no cvqkd package.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

SETUP_REPEATS = 9

_SETUP_CHILD = """\
import sys
sys.path.insert(0, {bench!r})
from hostspeed import HostSpeed
speed = HostSpeed("import")
with speed:
    import cvqkd.cli
    from cvqkd.config import ExperimentConfig
    ExperimentConfig().validate()
print("ready", speed.busy_s, speed.factor, flush=True)
"""

def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(src: Path) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until cvqkd is imported
    and the default config is validated: raw, and at nominal host speed as
    sampled inside the child."""
    script = _SETUP_CHILD.format(bench=str(Path(__file__).resolve().parent))
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", script],
                          stdout=subprocess.PIPE, env=_child_env(src),
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        child.wait(timeout=120)
    words = line.split()
    if len(words) != 3 or words[0] != "ready" or child.returncode != 0:
        raise RuntimeError("set-up child failed to import cvqkd")
    busy, factor = float(words[1]), float(words[2])
    return elapsed, (elapsed - busy) * factor


def _openblas_threads() -> int | None:
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "git_sha": _git_sha(root),
        "source_sha256": digest.hexdigest(),
    }


def run_passes(workload, out_dir: str, seed: int, seconds: float,
               trace: bool):
    """Repeat passes until the next one would end after ``seconds``.

    With ``trace`` the passes alternate untraced and traced, starting
    untraced, and at least one of each runs. Untraced passes sample the
    host speed; traced passes do not, so that no span holds a chunk.
    """
    from hostspeed import HostSpeed
    from tracing import Tracer

    plain, traced, outputs = [], [], []
    start = perf_counter()
    while True:
        tracer = Tracer() if trace and len(plain) > len(traced) else None
        if tracer is not None:
            tracer.install()
        speed = HostSpeed(workload.reference) if tracer is None else None
        with speed or contextlib.nullcontext():
            t0, c0 = perf_counter(), process_time()
            try:
                outputs.append(workload.run_pass(out_dir, seed, len(outputs)))
            finally:
                wall, cpu = perf_counter() - t0, process_time() - c0
                if tracer is not None:
                    tracer.uninstall()
        record = {"wall": wall, "cpu": cpu}
        if speed is not None:
            record.update(wall_norm=speed.normalize(wall),
                          cpu_norm=speed.normalize(cpu), factor=speed.factor,
                          busy=speed.busy_s)
        if tracer is not None:
            record["tracer"] = tracer
            record["csv_bytes"] = sum(
                entry.stat().st_size for entry in os.scandir(out_dir)
                if entry.name.endswith(".csv"))
            traced.append(record)
        else:
            plain.append(record)
        done = perf_counter() - start
        typical = median([r["wall"] for r in plain + traced])
        if done + typical > seconds and (not trace or traced):
            return plain, traced, outputs


def end_to_end(workload, plain, setup) -> tuple[dict, list[str]]:
    walls = [r["wall_norm"] for r in plain]
    values = {
        "setup_s": median([norm for _, norm in setup]),
        "wall_norm_s": median(walls),
        "work_per_norm_s": median([workload.units / w for w in walls]),
        "cpu_norm_s": median([r["cpu_norm"] for r in plain]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh processes at nominal host "
        f"speed (import reference); raw median "
        f"{median([raw for raw, _ in setup]):.4f} s",
        f"wall_norm_s, cpu_norm_s: median of {len(plain)} passes at nominal "
        f"host speed ({workload.reference} reference); raw medians "
        f"{median([r['wall'] for r in plain]):.4f} s and "
        f"{median([r['cpu'] for r in plain]):.4f} s, median host-speed "
        f"factor {median([r['factor'] for r in plain]):.3f}",
        f"work_per_norm_s: {workload.units} {workload.unit} per pass over "
        f"wall_norm_s, median of {len(plain)} passes",
        "peak_rss_mb: peak resident set of the benchmark process",
    ]
    return values, notes


def per_layer(plain, traced) -> tuple[dict, list[str]]:
    passes = [r["tracer"].metrics() for r in traced]
    values = {name: median([m[name] for m, _ in passes])
              for name in passes[0][0]}
    values["experiments.csv_bytes"] = median([r["csv_bytes"] for r in traced])
    untraced = median([r["wall"] - r["busy"] for r in plain])
    values["trace.overhead_ratio"] = (
        median([r["wall"] for r in traced]) / untraced - 1.0)
    notes = [f"per-layer values: median over {len(traced)} traced passes; "
             f"trace.overhead_ratio against {len(plain)} untraced passes"]
    notes += [f"{name}: {how}" for name, how in passes[0][1].items()]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cvqkd" / "__init__.py").is_file():
        print(f"perfbench: no cvqkd package under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    env = environment(root)
    setup = ([] if args.trace else
             [measure_setup(src) for _ in range(SETUP_REPEATS)])
    workload = WORKLOADS[args.workload]()
    expected = checks.load_expected()

    scratch = root / ".bench_run"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        plain, traced, outputs = run_passes(workload, out_dir, args.seed,
                                            args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    tally = checks.Tally()
    workload.check(outputs, expected, tally)

    if args.trace:
        values, notes = per_layer(plain, traced)
    else:
        values, notes = end_to_end(workload, plain, setup)
    # BENCHMARK.json names every reported metric and its unit
    with open(root / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    notes.append(f"ops_failed_ratio: {tally.failed}/{tally.attempted} "
                 "checked outputs failed")
    for problem in tally.problems[:20]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload,
                      "seed": args.seed, "notes": notes}))
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
