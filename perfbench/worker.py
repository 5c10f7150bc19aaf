"""The workload process: one fresh interpreter per benchmark run.

Started by run.py with the checkout's ``src`` on PYTHONPATH. It imports idamp,
runs every bundled scenario once as warm-up, then prints ``ready`` and waits
for one line on stdin: ``exit`` ends a set-up probe, ``run`` starts the timed
operations. After each operation it prints ``pause`` with the measured seconds
so far and waits for another line. Each operation is ``idamp.cli.main(argv)`` in-process with stdout
and stderr captured; outputs are written to files for run.py to check. The
results go to ``result.json`` in the work directory.

    python3 worker.py WORKDIR MANIFEST SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def call_cli(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process idamp command."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def environment(idamp) -> dict:
    import numpy

    kernels = sys.modules.get("idamp.kernels")
    if not hasattr(kernels, "_ryser_gray_jit"):
        backend = "unknown"
    else:
        backend = "pure-python" if kernels._ryser_gray_jit is None else "numba-jit"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "ryser_backend": backend,
        "idamp_version": getattr(idamp, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    workdir, manifest_path, seconds, trace = sys.argv[1:5]
    seconds, trace = float(seconds), trace == "1"

    import idamp
    import idamp.cli as cli

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if src not in Path(idamp.__file__).resolve().parents:
        print(f"worker: imported idamp from {idamp.__file__}, not {src}", file=sys.stderr)
        return 2
    smoke = []
    for path in sorted((Path(idamp.__file__).parent / "scenarios").glob("*.json")):
        code, out, err, _ = call_cli(cli, ["run", str(path)])
        smoke.append({"name": path.stem, "exit_code": code, "stdout": out, "stderr": err})
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    work = Path(workdir)
    manifest = json.loads(Path(manifest_path).read_text())
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    ops = []
    measured = last = 0.0
    index = 0
    # Cycle through the inputs while the next operation (an untraced and a
    # traced pass when tracing), expected to take as long as the last one,
    # still ends within the run's seconds.
    while index == 0 or measured + last <= seconds:
        item = manifest[index % len(manifest)]
        last = 0.0
        for traced in ([False, True] if trace else [False]):
            if traced:
                tracer.reset()
                tracer.install()
            try:
                code, out, err, elapsed = call_cli(cli, item["argv"])
            finally:
                if traced:
                    tracer.uninstall()
            output = work / f"out-{len(ops)}.txt"
            output.write_text(out)
            op = {
                "input": item["name"],
                "traced": traced,
                "seconds": elapsed,
                "exit_code": code,
                "stdout_file": output.name,
                "stderr": err[-2000:],
            }
            if traced:
                op["stats"] = tracer.snapshot()
            ops.append(op)
            last += elapsed
        measured += last
        index += 1
        # The parent times set-up probes here, outside the measured time.
        print(f"pause {measured!r}", flush=True)
        sys.stdin.readline()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "environment": environment(idamp),
        "smoke": smoke,
        "ops": ops,
        "peak_rss_kb": rss_kb,
        "hook_errors": tracer.hook_errors if tracer else 0,
    }
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
