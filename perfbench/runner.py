"""Cold, isolated execution of one benchmark operation.

Every operation runs in a child forked from a parent that has imported
``detpowers.cli`` but run nothing, so the package's memo caches
(``functools.cache`` tables in ``cyclotomic``, ``verify._cached_decomposition``,
``varieties._staged_solutions``) start empty for each operation, as they do
for a user who runs the CLI once. The child sends one JSON message back over
a pipe and exits; the parent times the operation from the fork to the end of
that message and reads the child's CPU time and peak resident memory from
``wait4``.

Three instruments can be switched on inside the child:

* ``Tracer`` records a span (name, start, end, parent, details) around each
  public library call the operation makes; the spans come back in the
  operation's own message, which is what ties them to the operation.
* the standard-library profiler (``cProfile``) gives exact call counts and
  per-module self times; only the operation's own process is profiled, not
  the worker processes of a ``--jobs 2`` operation.
* neither: the untraced run that gives the end-to-end metrics.
"""

from __future__ import annotations

import cProfile
import json
import os
import platform
import pstats
import subprocess
import sys
import time
import traceback

import numpy

import detpowers
from detpowers import cyclotomic, multipoly

PACKAGE_DIR = os.path.dirname(os.path.abspath(detpowers.__file__))

# (layer, metric suffix) -> the function whose profiler call count is kept
PROFILED_CALLS = {
    ("cyclotomic", "mul_calls"): cyclotomic.Cyc.__mul__,
    ("cyclotomic", "add_calls"): cyclotomic.Cyc.__add__,
    ("cyclotomic", "inverse_calls"): cyclotomic.Cyc.inverse,
    ("multipoly", "expand_power_calls"): multipoly.expand_power,
    ("multipoly", "weak_compositions_calls"): multipoly.weak_compositions,
}
PROFILED_SELF_TIME = ("cyclotomic", "multipoly", "symmetry")


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Tracer:
    """Spans around library calls, kept in memory until the op ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, describe=None):
        """``fn`` itself when tracing is off; otherwise a wrapper that
        records a span and ``describe(args, kwargs, result)`` details."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append({"name": name, "parent": parent})
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index].update(start=start, end=end)
            if describe is not None:
                self.spans[index]["info"] = describe(args, kwargs, result)
            return result

        return traced


def _profile_summary(profile: cProfile.Profile) -> dict:
    stats = pstats.Stats(profile).stats
    calls = {}
    for (layer, metric), fn in PROFILED_CALLS.items():
        entry = stats.get(_code_key(fn))
        calls[f"{layer}.{metric}"] = entry[1] if entry else 0
    self_s = {layer: 0.0 for layer in PROFILED_SELF_TIME}
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        if os.path.dirname(filename) != PACKAGE_DIR:
            continue
        layer = os.path.splitext(os.path.basename(filename))[0]
        if layer in self_s:
            self_s[layer] += tottime
    return {"calls": calls, "self_s": self_s}


def _child(body, mode: str, write_fd: int) -> None:
    """Runs in the forked child; never returns."""
    try:
        tracer = Tracer(mode == "spans")
        profile = cProfile.Profile() if mode == "profile" else None
        message: dict = {}
        try:
            if profile is not None:
                profile.enable()
            start = time.perf_counter()
            try:
                message["value"] = body(tracer)
            finally:
                end = time.perf_counter()
                if profile is not None:
                    profile.disable()
            message["start"], message["end"] = start, end
            message["spans"] = tracer.spans
            if profile is not None:
                message["profile"] = _profile_summary(profile)
        except Exception:
            message["error"] = traceback.format_exc(limit=8)
        with os.fdopen(write_fd, "wb") as out:
            out.write(json.dumps(message).encode())
    finally:
        os._exit(0)


def run_cold(body, mode: str = "plain") -> dict:
    """Fork, run ``body(tracer)`` in the child, and return its message with
    ``wall_s`` (fork to result), and ``cpu_s`` (user plus system) and
    ``peak_rss_mb`` of the child, including any workers it waited for.
    ``mode`` is "plain", "spans" or "profile"."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(body, mode, write_fd)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as incoming:
        raw = incoming.read()
    wall = time.perf_counter() - started
    _, status, usage = os.wait4(pid, 0)
    try:
        message = json.loads(raw)
    except ValueError:
        message = {"error": f"child ended without a result (status {status})"}
    message["wall_s"] = wall
    message["cpu_s"] = usage.ru_utime + usage.ru_stime
    message["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return message


# Fixed pure-Python work timed by ``SpeedGauge``: tuple-keyed dict updates
# and integer products, about 75 ms of CPU time on the machine the benchmark
# was sized on.
GAUGE_WORK = """
import sys, time

def work():
    acc = {}
    for i in range(200_000):
        key = (i % 67, i % 61)
        acc[key] = acc.get(key, 0) + i * (i + 1)

for _ in sys.stdin:
    started = time.process_time()
    work()
    print(time.process_time() - started, flush=True)
"""


class SpeedGauge:
    """CPU seconds of a fixed piece of work, a gauge of how fast the
    machine's cores run right now.

    The work runs in its own interpreter, started once and never forked, so
    no copy-on-write faults after a fork land in it, and it is the
    benchmark's code, so no change to the package can move it. Use as a
    context manager; leaving it ends the process and waits for it."""

    def __enter__(self) -> "SpeedGauge":
        self._process = subprocess.Popen(
            [sys.executable, "-c", GAUGE_WORK], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()

    def seconds(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        return float(self._process.stdout.readline())


def import_seconds(src_dir: str) -> tuple[float, float]:
    """Wall and CPU seconds to import ``detpowers.cli`` in a fresh
    interpreter."""
    code = ("import time; w, c = time.perf_counter(), time.process_time(); "
            "import detpowers.cli; "
            "print(time.perf_counter() - w, time.process_time() - c)")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src_dir),
                          capture_output=True, text=True, check=True,
                          timeout=60)
    wall, cpu = done.stdout.split()
    return float(wall), float(cpu)


def machine_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "detpowers": detpowers.__version__,
    }
