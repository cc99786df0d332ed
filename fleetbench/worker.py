"""One benchmark process (started by ``run.py``, never by hand).

    python3 fleetbench/worker.py setup <workload>
    python3 fleetbench/worker.py run <workload> SEED SECONDS TRACE [TRACE_OUT]

``setup`` times a fresh process from before ``import repro`` until the
workload is ready to serve: for serve workloads every app has its cache
entry built and its cost model calibrated; for ``paper_figures`` the
figure modules are imported and the catalog is built. ``run`` runs the
workload once, and reports the same set-up span of its own start as one
more ``setup_s`` sample. Set-up times are normalised by the host's
slowdown meanwhile (``hostspeed.SetupClock``). Each prints one JSON
object as its last stdout line.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hostspeed import SetupClock  # noqa: E402

_SETUP = SetupClock(_T0)


def setup(workload):
    if workload == "paper_figures":
        import figures_workload

        figures_workload.setup()
    else:
        import serve_workload

        serve_workload.build_server(workload)
    return {"setup_s": _SETUP.stop(), "setup_raw_s": _SETUP.raw_s}


def run(workload, seed, seconds, trace, trace_out=None):
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    if workload == "paper_figures":
        import figures_workload

        # The traced run times exactly one regeneration.
        result = figures_workload.run(
            seconds, tracer,
            short_repeats=0 if trace else figures_workload.SHORT_REPEATS,
            setup_clock=_SETUP,
        )
    else:
        import serve_workload

        result = serve_workload.run(workload, seed, seconds, tracer,
                                    setup_clock=_SETUP)
    result["setup_raw_s"] = _SETUP.raw_s
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        from tracing import Summary, format_table

        spans = tracer.spans
        wall = (max(s.end for s in spans) - min(s.start for s in spans)
                if spans else 0)
        result["table"] = format_table(Summary(spans).table(wall))
        if trace_out:
            tracer.write_perfetto(trace_out)
            result["trace_file"] = trace_out
    return result


def main(argv):
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        result = setup(workload)
    else:
        result = run(workload, int(argv[2]), float(argv[3]),
                     argv[4] == "1", argv[5] if len(argv) > 5 else None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
