"""One benchmark process: set up one workload, run its study once, report.

    python3 perfbench/worker.py --workload storm --seed 2014 [--traced]

Prints one JSON object: ``setup_s`` (from process start, before ``repro``
is imported, to the start of the study call), ``run_s`` (the study call),
both in calibrated seconds (see :class:`HostSpeed`) and as raw wall time
(``setup_wall_s``, ``run_wall_s``), ``peak_rss_mib`` (this process's
peak resident memory), the input sizes,
the result's fingerprint (see ``results.py``), violated invariants and
exact counts.  With ``--traced`` the study runs under
:class:`layers.LayerTrace` and the object carries the per-layer metrics;
the spans go to ``--trace-out``.  ``run.py`` starts one of these per
measured study, so each process runs only this workload.
"""

import signal
import time

#: seconds between host-speed samples while a timed span runs
SAMPLE_PERIOD_S = 0.1
#: a sample's reference time: calibrated seconds are wall seconds scaled
#: by CAL_REF_S over the mean sample time
CAL_REF_S = 0.002


def _cal_slice() -> int:
    """A fixed slice of pure-Python work, a few ms long: dict updates,
    list appends and a sort, what the studies spend their time on.  It
    holds only ints, which the garbage collector does not track, so a
    slice never sets off a collection of the program's heap."""
    table: dict = {}
    keys = []
    for i in range(4_000):
        key = (i * 7919) % 503
        table[key] = table.get(key, 0) + i
        keys.append(key ^ (i & 255))
    keys.sort()
    return len(table) + keys[-1]


class HostSpeed:
    """Calibrated timing of one span of the program.

    The CPU speed a shared host gives one process swings by up to 1.8x
    within seconds as its neighbours' load comes and goes, so raw wall
    times of the same work spread by a fifth or more.  While the span
    runs, a timer signal every ``SAMPLE_PERIOD_S`` times one
    ``_cal_slice``; one more sample is taken at each end.  ``seconds``
    is the span's wall time less the time spent sampling, scaled by
    ``CAL_REF_S`` over the mean sample: the swing cancels, and what is
    left is the program's own cost, in seconds on a host where the slice
    takes ``CAL_REF_S``.  The samples touch no program state.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self.wall_s: float | None = None

    def _sample(self) -> None:
        began = time.perf_counter()
        _cal_slice()
        self.samples.append(time.perf_counter() - began)

    def _tick(self, signum, frame) -> None:
        began = time.perf_counter()
        self._sample()
        self.sampling_s += time.perf_counter() - began

    def start(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.began = time.perf_counter()
        return self

    def stop(self) -> None:
        """End the span; later calls change nothing."""
        if self.wall_s is None:
            self.wall_s = time.perf_counter() - self.began
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._sample()

    @property
    def mean_sample_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def seconds(self) -> float:
        return (self.wall_s - self.sampling_s) * CAL_REF_S / self.mean_sample_s


_SETUP = HostSpeed().start()  # setup_s starts here, before repro is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import results  # noqa: E402
import workloads  # noqa: E402


def measure(name: str, seed: int, scale: str = "full", *,
            traced: bool = False, trace_out: str | None = None) -> dict:
    """Set up and run one study; the report ``run.py`` aggregates.

    ``setup_s`` counts from this process's start.  A study that raises
    is reported with its ``error``, not re-raised.
    """
    workload = workloads.WORKLOADS[name]
    size = workload.sizes[scale]
    report = {"workload": name, "seed": seed, "scale": scale,
              "traced": traced, "error": None}
    trace = None
    try:
        study, inputs = workload.setup(seed, size)
        if traced:
            trace = layers.LayerTrace(f"{name}-s{seed}-p{os.getpid()}")
            trace.install()
        _SETUP.stop()
        call = HostSpeed().start()
        try:
            result = study()
        finally:
            call.stop()
            if trace is not None:
                trace.uninstall()
        census = workload.census(result)
        report.update(
            inputs={**size, **inputs},
            setup_s=_SETUP.seconds,
            run_s=call.seconds,
            setup_wall_s=_SETUP.wall_s,
            run_wall_s=call.wall_s,
            sample_s=call.mean_sample_s,
            fingerprint=results.fingerprint(result),
            violations=workload.check(result, size),
        )
        if trace is not None:
            report["layers"] = layers.layer_metrics(trace, census,
                                                    traced_s=call.wall_s)
            if trace_out:
                trace.write(trace_out)
    except Exception as exc:  # reported as a failed run, not a crash
        report["error"] = f"{type(exc).__name__}: {exc}"
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", metavar="FILE")
    args = parser.parse_args(argv)
    report = measure(args.workload, args.seed, args.scale,
                     traced=args.traced, trace_out=args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
