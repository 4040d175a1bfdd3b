"""Child process of the benchmark: sets up one workload, runs timed passes.

The parent starts this file as a script and talks to it over a socket
whose descriptor it passes as the first argument:

    python3 perfbench/worker.py <fd> <root> <workload> <seed>

The child exits when the parent does. Messages to the child: ("pass",
traced, count) to run the workload's first ``count`` calls, ("write_trace",
path, header), ("stop",). Messages from the child: ("ready", info) once
set-up is done, ("call", record) after every timed call, ("pass_done",
info) after every pass, ("written", path). A call record's ``seconds`` is
its wall time normalised by ``speed`` (untraced passes) or its wall time
(traced passes); ``wall_seconds`` is always the wall time.
"""

import ctypes
import glob
import importlib.metadata
import importlib.util
import os
import platform
import resource
import sys
import threading
import time
import traceback
from multiprocessing.connection import Connection

import speed


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def commit(root):
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(root, seed):
    import numpy

    return {
        "commit": commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": blas_threads(),
        "workload_seed": seed,
    }


def serve(conn, root, workload_name, seed, sampler):
    """Set up, then answer the parent's messages. ``sampler`` is a running
    ``speed.Sampler``, started as early as the process could start it."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    import spans
    import workloads

    workload = workloads.WORKLOADS[workload_name]()
    workload.warm_up()
    conn.send(
        (
            "ready",
            {
                "calls": [c.label for c in workload.calls],
                "min_passes": workload.min_passes,
                "record": run_record(root, seed),
                "setup_probe": sampler.stop(),
            },
        )
    )
    tracer = spans.Tracer()
    while True:
        message = conn.recv()
        if message[0] == "stop":
            return
        if message[0] == "write_trace":
            tracer.write(message[1], message[2])
            conn.send(("written", message[1]))
            continue
        traced, count = message[1:]
        if traced:
            tracer.reset_totals()
            tracer.install()
        wall = 0.0
        try:
            for call in workload.calls[:count]:
                if not traced:
                    sampler.start()
                start = time.perf_counter()
                try:
                    output = workload.run(call)
                    error = None
                except Exception as exc:  # a raising call is a recorded failure
                    where = traceback.extract_tb(exc.__traceback__)[-1]
                    error = (
                        f"raise: {type(exc).__name__}: {exc} "
                        f"(at {os.path.basename(where.filename)}:{where.lineno})"
                    )
                seconds = time.perf_counter() - start
                wall += seconds
                # traced calls are not probed, so the spans hold only the library
                normalised = seconds if traced else speed.normalise(seconds, sampler.stop())
                if error is None:
                    reasons, quality = workload.check(call, output)
                else:
                    reasons, quality = [error], {}
                conn.send(
                    (
                        "call",
                        {
                            "label": call.label,
                            "kind": call.kind,
                            "seconds": normalised,
                            "wall_seconds": seconds,
                            "reasons": reasons,
                            "quality": quality,
                        },
                    )
                )
        finally:
            if traced:
                tracer.uninstall()
        workload.end_pass()
        conn.send(
            (
                "pass_done",
                {
                    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "layers": spans.layer_metrics(tracer, wall) if traced else None,
                },
            )
        )


def exit_with_parent():
    """End this process as soon as its parent is gone, even mid-call."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


if __name__ == "__main__":
    setup_sampler = speed.Sampler()
    setup_sampler.start()
    exit_with_parent()
    fd, root, workload_name, seed = sys.argv[1:]
    serve(Connection(int(fd)), root, workload_name, int(seed), setup_sampler)
