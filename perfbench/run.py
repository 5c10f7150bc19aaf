"""The idamp benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; idamp is imported from its ``src``.
The inputs are generated from the seed (gen.py) and written before timing.
With ``--trace 0`` the run spawns fresh workload processes to time set-up,
lets one of them run operations for about S seconds (timing more set-ups
between its operations), and reports the end-to-end metrics named in
BENCHMARK.json. With ``--trace 1`` each operation
runs once untraced and once traced, and the run reports the per-layer metrics.
Every operation's output is checked against an independent reference
(oracle.py) after the timed interval. Human-readable lines come first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The parent's own numpy (inputs and checks) uses one BLAS thread as well.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import gen  # noqa: E402
import oracle  # noqa: E402

#: Set-up probes before the workload process in an untraced run.
SETUP_PROBES_BEFORE = 4

#: After each operation, further probes until there has been one per this
#: many seconds of measured time.
SETUP_PROBE_EVERY_S = 2.0

#: Longest any one workload process may live.
PROCESS_TIMEOUT = 170.0


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Worker:
    """One workload process, timed from spawn until it reports ready."""

    def __init__(self, workdir: Path, manifest: Path, seconds: int, trace: bool):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **BLAS_THREADS)
        self.stderr = open(workdir / "worker-stderr.txt", "a")
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(workdir), str(manifest),
             str(seconds), "1" if trace else "0"],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        self.timer = threading.Timer(PROCESS_TIMEOUT, self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline().strip()
        self.setup_s = perf_counter() - start
        if ready != "ready":
            self.finish("")
            raise RuntimeError("workload process did not become ready")

    def run(self, between) -> None:
        """Start the operations; after each one, call ``between(measured seconds)``."""
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        for line in self.proc.stdout:
            between(float(line.split()[1]))
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()

    def finish(self, command: str) -> int:
        """Send the command, wait for exit, release everything; the exit code."""
        try:
            self.proc.communicate(command + "\n" if command else None)
        finally:
            self.timer.cancel()
            self.stderr.close()
        return self.proc.returncode


def probe_setup(workdir: Path, manifest: Path, seconds: int) -> float:
    """Set-up time of one workload process that exits once ready."""
    probe = Worker(workdir, manifest, seconds, False)
    probe.finish("exit")
    return probe.setup_s


def check_output(workload: str, item: dict, code: int, text: str) -> list[str]:
    if workload == "verify-suite":
        return oracle.check_verify(text, code)
    if code != 0:
        return [f"exit code {code}"]
    return oracle.check_coarse(item["doc"], text)


class Checker:
    """Checks every output and counts the failures."""

    def __init__(self, workload: str, items: dict[str, dict]):
        self.workload = workload
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.problems.extend(f"{label}: {p}" for p in problems[:3])
        self.failed += bool(problems)

    def smoke(self, run: dict) -> None:
        problems = [] if run["exit_code"] == 0 else [f"exit code {run['exit_code']}"]
        try:
            problems += oracle.check_smoke(run["name"], run["stdout"])
        except ValueError as exc:
            problems.append(f"unreadable output: {exc}")
        self._record(f"smoke {run['name']}", problems)

    def op(self, op: dict, text: str) -> None:
        try:
            problems = check_output(self.workload, self.items[op["input"]], op["exit_code"], text)
        except (ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems and op["stderr"].strip():
            problems.append(op["stderr"].strip().splitlines()[-1])
        self._record(op["input"], problems)


def per_layer_values(ops: list[dict]) -> dict[str, float]:
    """Per-operation means of the traced passes; maxima for max_* counters."""
    traced = [op["stats"] for op in ops if op["traced"]]
    names = set().union(*traced)
    values = {}
    for name in names:
        series = [stats.get(name, 0.0) for stats in traced]
        is_max = name.rsplit(".", 1)[-1].startswith("max_")
        values[name] = max(series) if is_max else statistics.fmean(series)
    untraced = sum(op["seconds"] for op in ops if not op["traced"])
    values["trace.overhead_frac"] = sum(op["seconds"] for op in ops if op["traced"]) / untraced - 1
    return values


def end_to_end_values(ops: list[dict], setups: list[float], rss_kb: int) -> dict[str, float]:
    seconds = [op["seconds"] for op in ops]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(seconds) / sum(seconds),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def run(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = gen.generate(workload, seed)
        gen.check_reproducible(workload, seed, inputs)
        manifest = []
        for item in inputs:
            argv = list(item["argv"])
            if item["doc"] is not None:
                path = workdir / f"{item['name']}.json"
                path.write_bytes(gen.document_bytes(item["doc"]))
                argv = [str(path) if arg == "{file}" else arg for arg in argv]
            manifest.append({"name": item["name"], "argv": argv})
        manifest_path = workdir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))

        # Untraced runs time set-up in probes before the workload process and
        # between its operations, so that the median spans the host's speed
        # over the whole run rather than at one moment.
        setups: list[float] = []

        def probe(due: float) -> None:
            while not trace and len(setups) < due:
                setups.append(probe_setup(workdir, manifest_path, seconds))

        probe(SETUP_PROBES_BEFORE)
        worker = Worker(workdir, manifest_path, seconds, trace)
        setups.append(worker.setup_s)
        try:
            worker.run(lambda measured: probe(SETUP_PROBES_BEFORE + 1 + measured / SETUP_PROBE_EVERY_S))
        finally:
            code = worker.finish("")
        result_path = workdir / "result.json"
        if code != 0 or not result_path.is_file():
            tail = (workdir / "worker-stderr.txt").read_text()[-2000:]
            print(f"error: workload process exited with {code}\n{tail}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())

        checker = Checker(workload, {item["name"]: item for item in inputs})
        for smoke in result["smoke"]:
            checker.smoke(smoke)
        for op in result["ops"]:
            checker.op(op, (workdir / op["stdout_file"]).read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    if trace:
        values = per_layer_values(ops)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_values(ops, setups, result["peak_rss_kb"])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    environment = dict(result["environment"], git_sha=git_sha(ROOT))
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    print("environment " + json.dumps(environment, sort_keys=True))
    if trace and result["hook_errors"]:
        print(f"tracer hook errors: {result['hook_errors']}")
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}")
    print(f"operations {len(ops)} timed, {checker.attempted} checked, {checker.failed} failed")
    print("operation seconds " + " ".join(f"{op['seconds']:.4f}" for op in ops))
    if not trace:
        print("setup seconds " + " ".join(f"{s:.4f}" for s in setups))
    # Printed for reading, not gated: failed_frac is 0 on a correct program,
    # and the median of a run's operations flips with the host's speed.
    print(f"  failed_frac = {checker.failed / checker.attempted:.6g} ratio")
    if not trace:
        print(f"  op_s.p50 = {statistics.median(op['seconds'] for op in ops):.6g} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "idamp" / "cli.py").is_file():
        print(f"error: no idamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
