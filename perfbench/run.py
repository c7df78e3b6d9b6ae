#!/usr/bin/env python3
"""Benchmark of the wignerlab command line, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # every metric of every workload

Run from a source checkout: the CLI is started as `python3 -m wignerlab.cli`
with `src/` on PYTHONPATH, one child process at a time, BLAS pinned to one
thread through the child's environment.  Each child's wall time is taken
around its whole life; CPU time and peak RSS come from `os.wait4` on that
child alone.  Every report is checked (see gate.py) and must be byte-identical
to the report of the same invocation earlier in the run.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a separate traced run
(tracer.py), next to untraced invocations of the same workload so the tracing
overhead is their difference.  Full results, the environment record and the
report digests go to `.perfbench_out/<workload>.json` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import BELL, Call, check
from layers import PROTOCOL_RUN, STATE_INDEPENDENT, TRACED, per_layer_metrics
from stats import layer_totals, summarize, time_under

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SWEEP_RUNS = 100
CHILD_TIMEOUT_S = 120.0
# Share of a traced run's time spent on the untraced invocations it is compared with.
UNTRACED_SHARE = 0.45
MIN_SAMPLES = 2

PINNED_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

WORKLOADS = {
    "pm-sweep-projective": "per-state sweep loop with JSON reports; every per-run layer, C-stage decomposition included",
    "pm-sweep-expectation-text": "same loop, fixed C projectors instead of decomposition, text renderer instead of json",
    "cold-start": "single-run hardy/peres-mermin invocations; import, frame build and Hardy paths, no sweep loop",
}


@dataclasses.dataclass
class Sample:
    call: Call
    wall_s: float
    cpu_s: float
    rss_kib: int
    problems: list[str]
    digest: str = ""
    spans: Path | None = None


def child_env(pinned: bool) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_THREADS}
    env["PYTHONPATH"] = str(SRC)
    if pinned:
        env.update(PINNED_THREADS)
    return env


def random_amplitudes(rnd: random.Random) -> tuple[tuple[float, float], ...]:
    amps = [complex(rnd.gauss(0.0, 1.0), rnd.gauss(0.0, 1.0)) for _ in range(4)]
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    return tuple((a.real / norm, a.imag / norm) for a in amps)


class Runner:
    """Runs one CLI child at a time in a scratch directory and checks its output."""

    def __init__(self, work: Path):
        self.work = work
        self.samples: list[Sample] = []
        self.digests: dict[Call, str] = {}
        self.count = 0

    def _argv(self, call: Call, out: Path) -> list[str]:
        options = {"scenario": call.scenario, "format": call.fmt, "out": str(out)}
        if call.scenario != "hardy":
            options["mode"] = call.mode
        if isinstance(call.state, str):
            options["state"] = call.state
        elif call.state is not None:
            options["state"] = [list(pair) for pair in call.state]
        if call.scenario == "pm-sweep":
            options.update(runs=call.runs, seed=call.seed)
        if call.via_config:
            config = out.with_suffix(".config.json")
            config.write_text(json.dumps({"schema": "wignerlab-config/1", **options}))
            return ["--config", str(config)]
        argv = []
        for key, value in options.items():
            argv += [f"--{key}", value if isinstance(value, str) else json.dumps(value)]
        return argv

    def run(self, call: Call, traced: bool = False, pinned: bool = True) -> Sample:
        self.count += 1
        tag = f"call{self.count}"
        out = self.work / f"{tag}.report"
        argv = self._argv(call, out)
        spans = self.work / f"{tag}.spans.json" if traced else None
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), tag, *argv]
        else:
            cmd = [sys.executable, "-m", "wignerlab.cli", *argv]
        stdout_path, stderr_path = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=child_env(pinned), stdout=stdout, stderr=stderr)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(call, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, [], spans=spans)
        if proc.returncode != 0:
            detail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
            sample.problems.append(f"exit status {proc.returncode}: {' | '.join(detail)}")
        else:
            report = out.read_bytes() if out.exists() else b""
            sample.problems += check(call, stdout_path.read_text(), report.decode())
            sample.digest = hashlib.sha256(report).hexdigest()
            first = self.digests.setdefault(call, sample.digest)
            if sample.digest != first:
                sample.problems.append("report differs from an earlier identical invocation")
        for path in (out, out.with_suffix(".config.json"), stdout_path, stderr_path):
            path.unlink(missing_ok=True)
        self.samples.append(sample)
        return sample


def repeat(step, deadline: float, minimum: int = MIN_SAMPLES) -> list:
    """Call step() until the next call would likely end past the deadline."""
    results, last = [], 0.0
    while len(results) < minimum or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - start
    return results


# --------------------------------------------------------------------------
# Workloads and the untraced (end-to-end) measurement.


def sweep_calls(workload: str, rnd: random.Random) -> tuple[Call, Call]:
    mode, fmt = ("projective", "structured") if workload == "pm-sweep-projective" else ("expectation", "text")
    full = Call("pm-sweep", fmt, mode, runs=SWEEP_RUNS, seed=rnd.randrange(2**31))
    return dataclasses.replace(full, runs=1), full


def cold_start_calls(rnd: random.Random) -> list[Call]:
    """A fixed mix of single-run invocations with seeded states and order."""

    def bell():
        return rnd.choice(sorted(BELL))

    def amps():
        return random_amplitudes(rnd)

    calls = [
        Call("hardy", "structured"),
        Call("hardy", "text"),
        Call("hardy", "structured", state=amps()),
        Call("hardy", "text", state=amps()),
        Call("peres-mermin", "structured", "projective", bell()),
        Call("peres-mermin", "text", "projective", bell()),
        Call("peres-mermin", "structured", "expectation", bell()),
        Call("peres-mermin", "text", "expectation", bell()),
        Call("peres-mermin", "structured", "projective", amps()),
        Call("peres-mermin", "text", "expectation", amps()),
        Call("peres-mermin", "structured", "expectation", amps(), via_config=True),
    ]
    rnd.shuffle(calls)
    return calls


def sweep_cycles(runner: Runner, single: Call, full: Call, deadline: float):
    return repeat(lambda: (runner.run(single), runner.run(full)), deadline)


def cold_passes(runner: Runner, calls: list[Call], deadline: float, traced=False):
    return repeat(lambda: [runner.run(call, traced=traced) for call in calls], deadline)


def end_to_end(workload: str, runner: Runner, rnd: random.Random, seconds: float):
    start = time.perf_counter()
    info: dict = {}
    if workload == "cold-start":
        calls = cold_start_calls(rnd)
        runner.run(calls[0])  # warm-up: the first cold start pays for the file cache
        passes = cold_passes(runner, calls, start + seconds)
        pass_walls = [sum(s.wall_s for s in p) for p in passes]
        values = {
            "setup_s": [s.wall_s for p in passes for s in p],
            "wall_s": pass_walls,
            "cpu_s": [sum(s.cpu_s for s in p) for p in passes],
            "peak_rss_mb": [max(s.rss_kib for s in p) / 1024 for p in passes],
        }
        runs_per_s = sum(len(p) for p in passes) / sum(pass_walls)
        info["invocations_per_pass"] = len(calls)
    else:
        single, full = sweep_calls(workload, rnd)
        runner.run(single)  # warm-up
        reserve = 0.0
        if workload == "pm-sweep-projective":
            sample = runner.run(full, pinned=False)
            reserve = sample.wall_s
            info["unpinned_sample"] = {
                "note": "information only, not a metric: BLAS threads left to their default",
                "runs": SWEEP_RUNS,
                "wall_s": sample.wall_s,
                "cpu_s": sample.cpu_s,
            }
        cycles = sweep_cycles(runner, single, full, start + seconds - reserve)
        values = {
            "setup_s": [one.wall_s for one, _ in cycles],
            "wall_s": [n.wall_s for _, n in cycles],
            "cpu_s": [n.cpu_s for _, n in cycles],
            "peak_rss_mb": [n.rss_kib / 1024 for _, n in cycles],
        }
        runs_per_s = (SWEEP_RUNS - 1) / (statistics.median(values["wall_s"]) - statistics.median(values["setup_s"]))
        info["runs"] = SWEEP_RUNS
        info["program_seed"] = full.seed
    summaries = {name: summarize(vals) for name, vals in values.items()}
    summaries["runs_per_s"] = {"median": runs_per_s, "count": len(values["wall_s"])}
    info["samples"] = values
    return summaries, info


# --------------------------------------------------------------------------
# Traced run.


def _spans(path: Path):
    doc = json.loads(path.read_text())
    names = doc["names"]
    spans = [(names[i], start, end, parent) for i, start, end, parent in doc["spans"]]
    return doc, spans


def layer_figures(group: list[Sample]) -> dict[str, float]:
    """Per-layer figures of one group of traced invocations, per protocol run."""
    runs = sum(s.call.protocol_runs for s in group)
    totals: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    inside = root = 0.0
    imports = []
    for sample in group:
        doc, spans = _spans(sample.spans)
        for name, entry in layer_totals(spans).items():
            acc = totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += entry[key]
        inside_ns, root_ns = time_under(spans, STATE_INDEPENDENT, PROTOCOL_RUN)
        inside += inside_ns
        root += root_ns
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
        imports.append(doc["import_ms"])
    figures = {}
    for layer in TRACED:
        entry = totals.get(layer, {"calls": 0, "total_ns": 0, "self_ns": 0})
        figures[f"{layer}.calls"] = entry["calls"] / runs
        figures[f"{layer}.total_ms"] = entry["total_ns"] / 1e6 / runs
        figures[f"{layer}.self_ms"] = entry["self_ns"] / 1e6 / runs
    tried = counters.get("qsim.branch_decompose.tried", 0)
    figures["qsim.branch_decompose.kept_ratio"] = counters.get("qsim.branch_decompose.kept", 0) / tried if tried else 0.0
    figures["scenarios.state_independent_share"] = inside / root if root else 0.0
    figures["cli.import_ms"] = statistics.mean(imports)
    figures["cli.report_bytes"] = counters.get("cli.report_bytes", 0) / runs
    return figures


def traced(workload: str, runner: Runner, rnd: random.Random, seconds: float):
    """Untraced invocations, then the same traced; per-layer figures as medians over groups."""
    start = time.perf_counter()
    split = start + UNTRACED_SHARE * seconds
    if workload == "cold-start":
        calls = cold_start_calls(rnd)
        runner.run(calls[0])
        plain = cold_passes(runner, calls, split)
        plain_walls = [sum(s.wall_s for s in p) for p in plain]
        groups = cold_passes(runner, calls, start + seconds, traced=True)
        rss_per_run = 0.0
        runs = len(calls)
    else:
        single, full = sweep_calls(workload, rnd)
        runner.run(single)
        plain = sweep_cycles(runner, single, full, split)
        plain_walls = [n.wall_s for _, n in plain]
        groups = [[s] for s in repeat(lambda: runner.run(full, traced=True), start + seconds)]
        rss_full = statistics.median(n.rss_kib for _, n in plain)
        rss_single = statistics.median(one.rss_kib for one, _ in plain)
        rss_per_run = (rss_full - rss_single) / (SWEEP_RUNS - 1)
        runs = SWEEP_RUNS
    if any(s.problems for s in runner.samples):
        return {}, {}
    per_group = [layer_figures(group) for group in groups]
    traced_walls = [sum(s.wall_s for s in group) for group in groups]
    figures = {name: statistics.median(g[name] for g in per_group) for name in per_group[0]}
    figures["rss_per_run_kib"] = rss_per_run
    figures["tracing_overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    absent = json.loads(groups[0][0].spans.read_text())["absent"]
    info = {
        "protocol_runs_per_group": runs,
        "traced_groups": len(groups),
        "untraced_wall_s": summarize(plain_walls),
        "traced_wall_s": summarize(traced_walls),
        "absent_layers": absent,
        "spans_file": str(groups[-1][-1].spans.relative_to(ROOT)),
    }
    return figures, info


# --------------------------------------------------------------------------
# Environment record.


def environment() -> dict:
    probe = (
        "import contextlib, io, json, platform, sys, numpy, wignerlab\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "except (TypeError, KeyError):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        numpy.show_config()\n"
        "    blas = buf.getvalue()\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
        "                  'blas': blas, 'wignerlab_file': wignerlab.__file__,\n"
        "                  'wignerlab_version': getattr(wignerlab, '__version__', None)}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(True), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"environment probe failed: {done.stderr.strip()}")
    env = json.loads(done.stdout)
    if not Path(env["wignerlab_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"wignerlab imported from {env['wignerlab_file']}, not from {SRC}")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:  # no git binary
            pass
    env.update(
        child_thread_env=PINNED_THREADS,
        nproc=os.cpu_count(),
        nproc_available=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
        commit=commit,
        source_sha256=digest.hexdigest(),
    )
    return env


# --------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    rnd = random.Random(f"{workload}:{seed}")
    env = environment()
    measure = traced if trace else end_to_end
    values, info = measure(workload, runner, rnd, seconds)
    failures = [s for s in runner.samples if s.problems]
    digests = {}
    for sample in runner.samples:
        if sample.digest:
            digests.setdefault(sample.digest, sample.call)
    result = {
        "workload": workload,
        "why": WORKLOADS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "metrics": values,
        "info": info,
        "report_sha256": {digest: dataclasses.asdict(call) for digest, call in digests.items()},
        "attempted": len(runner.samples),
        "failed": len(failures),
        "problems": [f"{s.call}: {p}" for s in failures for p in s.problems][:50],
    }
    (OUT / f"{workload}{'.trace' if trace else ''}.json").write_text(json.dumps(result, indent=2, default=str))
    return result


def contract_line(result: dict, trace: bool) -> dict:
    metrics = {}
    if not result["failed"]:
        if trace:
            units = {m["name"]: m["unit"] for m in per_layer_metrics()}
            metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
        else:
            metrics = {
                name: {"value": result["metrics"][name]["median"], "unit": unit} for name, unit in END_TO_END
            }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_table(result: dict, trace: bool) -> None:
    print(f"== {result['workload']} (seed {result['seed']}): {result['why']}")
    if trace:
        for name, value in result["metrics"].items():
            print(f"  {name:<52} {value:>14.6g}")
    else:
        for name, unit in END_TO_END:
            s = result["metrics"][name]
            tails = ", ".join(f"{k} {v:.6g}" for k, v in s.items() if k.startswith("p")) or "no tail percentile"
            print(f"  {name:<12} {s['median']:>12.6g} {unit:<4} median of {s['count']} ({tails})")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<12} {rate:>12.6g}      {result['failed']} failed of {result['attempted']} invocations")
    for problem in result["problems"]:
        print(f"  FAIL {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wignerlab" / "cli.py").is_file():
        print(f"error: no wignerlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print_table(result, trace)
        ok = ok and result["failed"] == 0
        if args.workload != "all":
            print("environment: " + json.dumps(result["environment"], sort_keys=True))
            print(json.dumps(contract_line(result, trace)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
