"""One measured process of the benchmark, launched by ``run.py``.

``--probe`` times set-up only; otherwise the process times set-up, then
runs paced units of the workload (see :mod:`pacer`) until ``--seconds``
run out, and prints one JSON record on stdout.  With ``--trace`` it
alternates untraced and traced units (fresh set-up in each, so the traced
unit also sees the table build) for the per-layer metrics of
:mod:`layers`.

Set-up time runs from this module's first statement to the end of the
workload's ``prepare``, so the imports fall inside it, paced like a unit.
"""

import time

SETUP_START = time.perf_counter()

import pacer  # noqa: E402  (stdlib only; everything heavier is set-up)

_setup_pacer = pacer.Pacer(pacer.make_kernel("object"), period=pacer.SETUP_PERIOD_S)
_setup_pacer.__enter__()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

#: Fewest units a measuring run makes, even past ``--seconds``.
MIN_UNITS = 2
#: Reference slices a set-up sample needs before its speed is trusted.
MIN_SETUP_SLICES = 8
#: Set-up (imports, file reads, page faults, a table build) slows less
#: than pure-Python code when the host slows: on the calibration host its
#: time tracked the object kernel's to the power 0.56 (reset_1e6) to 0.76
#: (elect_faults) over some 300 fresh processes each.
SETUP_SENSITIVITY = 0.65


def _setup_sample() -> dict:
    raw = time.perf_counter() - SETUP_START
    _setup_pacer.__exit__(None, None, None)
    in_setup = _setup_pacer.ref_s
    _setup_pacer.top_up(MIN_SETUP_SLICES)
    speed = _setup_pacer.speed(SETUP_SENSITIVITY)
    return {
        "raw_s": raw,
        "ref_slice_s": _setup_pacer.ref_s / _setup_pacer.slices,
        "slices": _setup_pacer.slices,
        "setup_s": (raw - in_setup) / speed,
    }


def _measure(workload, kernel, inputs, workdir, ready=None, layers=None) -> dict:
    """One paced unit; with no ``ready`` it includes a fresh set-up, and
    with the :mod:`layers` module it is traced."""
    gc.collect()
    fresh = ready is None
    recorder = layers.Recorder() if layers else None
    instrument = layers.instrumented(recorder) if layers else nullcontext()
    with instrument, pacer.Pacer(kernel) as pace:
        start = time.perf_counter()
        with recorder.span(layers.ROOT) if recorder else nullcontext():
            if fresh:
                with recorder.span("setup") if recorder else nullcontext():
                    ready = workload.prepare(inputs, workdir)
            output = workload.run(ready)
        raw = time.perf_counter() - start
    work = raw - pace.ref_s
    speed = pace.speed()
    result = workload.check(inputs, ready, output)
    unit = {
        "raw_s": raw,
        "ref_slice_s": pace.ref_s / pace.slices,
        "slices": pace.slices,
        "wall_s": work / speed,
        "trials": result.trials,
        "failed": len(result.failures),
        "failures": result.failures[:5],
        "counts": result.counts,
        "digest": result.digest,
    }
    if recorder:
        unit["layers"] = layers.rollup(
            recorder, (work / raw) / speed, result.counts.get("interactions", 0)
        )
    return unit


def _environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": numba_version,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "threads": {key: os.environ.get(key) for key in sorted(os.environ)
                    if key.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True, help="JSON inputs made by run.py")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = json.loads(args.inputs)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ready = None if args.trace else workload.prepare(inputs, workdir)
    record = {"setup": _setup_sample()}
    if not args.probe:
        kernel = pacer.make_kernel(workload.kernel)
        units: list[dict] = []
        start = time.perf_counter()
        while True:
            if args.trace:
                import layers

                units.append(_measure(workload, kernel, inputs, workdir))
                units.append(_measure(workload, kernel, inputs, workdir, layers=layers))
                made = len(units) // 2
            else:
                units.append(_measure(workload, kernel, inputs, workdir, ready))
                made = len(units)
            elapsed = time.perf_counter() - start
            if made >= MIN_UNITS - args.trace and elapsed * (made + 1) / made > args.seconds:
                break
        record["units"] = units
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["environment"] = _environment()
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
