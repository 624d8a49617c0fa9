"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

One workload, as declared in BENCHMARK.json::

    python3 bench/run.py --workload run-4mem --seed 1 --seconds 15 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

All four workloads, several runs each, into one results file that
``bench/compare.py`` reads::

    python3 bench/run.py --runs 5 --out bench/out/results.json

Each workload runs in its own fresh process (``bench/workload.py``);
``setup_s`` is the median of nine more fresh launches, each timed in CPU
seconds from spawn until its inputs are built.  ``--regen-expected`` rewrites
``bench/expected/seed<N>.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOAD_PY = BENCH / "workload.py"
RESULT_PREFIX = "BENCH-RESULT "
#: fresh launches behind one setup_s reading
SETUP_LAUNCHES = 9
#: the whole workload process must end within this (a run must end within
#: 180 s, set-up launches included)
CHILD_TIMEOUT_S = 165


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def _child_env() -> dict:
    """The environment of every child: this checkout's sources, no
    REPRO_* override that would change what the simulator does, and one
    BLAS thread.  numpy's OpenBLAS otherwise starts a thread per CPU at
    import, which adds 0-70 ms to set-up depending on the other CPU's
    load; the simulator does no linear algebra."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _workload_cmd(name: str, seed: int, scale: float) -> list[str]:
    return [sys.executable, str(WORKLOAD_PY), "--workload", name,
            "--seed", str(seed), "--scale", repr(scale)]


def setup_seconds(name: str, seed: int, scale: float) -> list[float]:
    """CPU seconds from spawn to built inputs, for each of several launches.

    The child prints ``ready`` with the CPU seconds it has used since it
    was spawned, and the totals of the host-speed probes it ran while it
    set up and just after.  Each launch, less its probes, is scaled to
    the reference host by its own probes, like every op time
    (hostspeed.py).  CPU time leaves out the waits for a CPU that a
    shared host adds to wall time: over twelve runs of nine launches,
    the median's interquartile range was 4.8 % of the median in CPU
    time and 7.9 % in wall time.
    """
    out = []
    cmd = _workload_cmd(name, seed, scale) + ["--probe"]
    for _ in range(SETUP_LAUNCHES):
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 5 or words[0] != "ready":
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        cpu, inside, n, inv = map(float, words[1:])
        out.append((cpu - inside) * speed(n, inv))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """One workload process; returns its record (see bench/workload.py)."""
    cmd = _workload_cmd(name, seed, scale) + [
        "--seconds", repr(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(
            RESULT_PREFIX):
        raise BenchError(f"workload {name} exited {proc.returncode} "
                         "without a result")
    return json.loads(lines[-1][len(RESULT_PREFIX):])


def check_expected(record: dict) -> list[str]:
    """Compare the op output with the committed one for this seed, if any."""
    path = BENCH / "expected" / f"seed{record['seed']}.json"
    if record["scale"] != 1.0 or not path.is_file():
        return []
    expected = json.loads(path.read_text())["outputs"].get(record["key"])
    if expected is None or expected == record["reference"]:
        return []
    return [f"output differs from {path.relative_to(ROOT)} "
            f"[{record['key']}]: {_first_difference(expected, record['reference'])}"]


def _first_difference(a, b, where: str = "") -> str:
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if a.get(k) != b.get(k):
                return _first_difference(a.get(k), b.get(k), f"{where}.{k}")
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_difference(x, y, f"{where}[{i}]")
    return f"{where or '.'}: expected {a!r}, got {b!r}"


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict:
    """Run one workload; returns the result whose last-line form
    ``_print_result`` prints, plus what suite mode keeps."""
    spec = load_spec()
    setup = [] if trace else setup_seconds(name, seed, scale)
    record = run_workload(name, seed, seconds, trace, scale)
    failures = record["failures"] + check_expected(record)
    failed = record["failed"]
    if len(failures) > len(record["failures"]):
        failed = record["attempted"]  # every op produced the bad output
    ops = record["ops"]
    if trace:
        values = record["layers"]
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": _median(o["wall_s"] for o in ops),
            "cpu_s": _median(o["cpu_s"] for o in ops),
            "sim_kinst_per_cpu_s": _median(
                o["insts"] / 1e3 / o["cpu_s"] for o in ops),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_kb"] / 1024,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"workload {name} did not measure {missing}")
    return {
        "correct": failed == 0 and not failures,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "ops": len(ops),
        "failures": failures,
        "exact": {"digest": record["digest"], **record["exact"]},
        "reference": record["reference"],
    }


def _median(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("no op completed")
    return statistics.median(values)


def _print_result(name: str, seed: int, result: dict) -> None:
    print(f"{name} seed {seed}: {result['ops']} timed ops, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<32} {m['value']:>14.6g} {m['unit']}")
    for key, value in result["exact"].items():
        print(f"  exact {key:<26} {value}")
    for f in result["failures"]:
        print(f"  FAILED {f}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


# -- all workloads into one results file ----------------------------------------


def _summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def run_suite(seed: int, seconds: float, runs: int) -> dict:
    """``runs`` untraced runs of every workload, interleaved so that a slow
    spell of the host spreads over all of them, then one traced run each."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    untraced: dict[str, list[dict]] = {n: [] for n in names}
    for i in range(runs):
        for n in names:
            print(f"[{i + 1}/{runs}] {n}", file=sys.stderr, flush=True)
            untraced[n].append(measure(n, seed, seconds, False))
    out = {
        "seed": seed, "seconds": seconds, "runs": runs,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), "platform": platform.platform(),
        "workloads": {},
    }
    for n in names:
        print(f"[traced] {n}", file=sys.stderr, flush=True)
        traced = measure(n, seed, seconds, True)
        results = untraced[n] + [traced]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        digests = {r["exact"]["digest"] for r in results}
        out["workloads"][n] = {
            "end_to_end": {
                m["name"]: {**m, **_summary(
                    [r["metrics"][m["name"]]["value"] for r in untraced[n]])}
                for m in spec["end_to_end"]},
            "per_layer": {
                m["name"]: {**m, "value": traced["metrics"][m["name"]]["value"]}
                for m in spec["per_layer"]},
            "exact": (traced["exact"] if len(digests) == 1
                      else {"digest": sorted(digests)}),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "failures": [f for r in results for f in r["failures"]],
        }
    return out


def regen_expected(seed: int) -> Path:
    """Rewrite the committed outputs for ``seed`` from the current code."""
    spec = load_spec()
    outputs, exact = {}, {}
    for w in spec["workloads"]:
        record = run_workload(w["name"], seed, 0.0, False)
        if record["failed"]:
            raise BenchError(f"{w['name']}: {record['failures']}")
        if outputs.setdefault(record["key"], record["reference"]) != \
                record["reference"]:
            raise BenchError(f"{w['name']} disagrees with another workload "
                             f"on [{record['key']}]")
        exact[record["key"]] = {"digest": record["digest"], **record["exact"]}
    path = BENCH / "expected" / f"seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "scale": 1.0, "exact": exact,
                                "outputs": outputs}, indent=1,
                               sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    ap.add_argument("--workload", help="run one workload and print its result line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds per run (default: run_seconds "
                         "from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=5,
                    help="untraced runs per workload in suite mode")
    ap.add_argument("--out", type=Path, help="suite mode: results file")
    ap.add_argument("--regen-expected", action="store_true")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no simulator sources under {ROOT / 'src'}")
        spec = load_spec()
        seconds = (args.seconds if args.seconds is not None
                   else float(spec["run_seconds"]))
        if args.regen_expected:
            print(f"wrote {regen_expected(args.seed)}")
        elif args.workload is not None:
            if args.workload not in {w["name"] for w in spec["workloads"]}:
                raise BenchError(f"unknown workload {args.workload!r}")
            result = measure(args.workload, args.seed, seconds,
                             bool(args.trace))
            _print_result(args.workload, args.seed, result)
        elif args.out is not None:
            doc = run_suite(args.seed, seconds, args.runs)
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {args.out}")
        else:
            ap.error("give --workload, --out or --regen-expected")
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
