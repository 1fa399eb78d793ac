"""One benchmark sample in a fresh process.

    python3 sample.py RESULT_JSON LAUNCHED MODE [CLI ARGS...]

LAUNCHED is the parent's `time.monotonic()` just before it started this
process; setup time runs from then until `phonongate.cli` is imported. MODE
is `setup` (import only), `plain` (one timed CLI call) or `trace` (the same
call with per-layer spans). The result is written to RESULT_JSON; the exit
code is 0 unless the CLI call failed.
"""
import sys
import time


def main() -> int:
    result_path, launched, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    import phonongate.cli

    setup_s = time.monotonic() - launched

    import json
    import os
    import resource

    result = {"setup_s": setup_s, "module": os.path.abspath(phonongate.cli.__file__)}
    if mode != "setup":
        tracer = None
        call = phonongate.cli.main
        if mode == "trace":
            import layers

            tracer = layers.Tracer()
            result["absent"] = layers.install(tracer)
            call = tracer.wrap("cli.main", call)
        error = None
        started = time.perf_counter()
        try:
            call(args=sys.argv[4:], prog_name="phonongate", standalone_mode=False)
        except SystemExit as exc:  # the CLI reports a failed command this way
            if exc.code not in (0, None):
                error = f"exit code {exc.code}"
        except Exception as exc:  # any other failure counts against the sample
            error = repr(exc)
        result["wall_s"] = time.perf_counter() - started
        result["error"] = error
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import machine

    result["runtime"] = machine.runtime()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 1 if result.get("error") else 0


if __name__ == "__main__":
    sys.exit(main())
