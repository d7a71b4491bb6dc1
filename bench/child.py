"""One benchmark command in a fresh interpreter.

    python3 bench/child.py SPAWNED TRACE_PATH [akchar arguments...]

SPAWNED is the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide on Linux, so the difference is the set-up
time).  TRACE_PATH is ``-`` for an untraced run.  With no akchar arguments
the child only imports ``akchar.cli``, which samples set-up time alone.

The child prints one JSON line: the set-up time, the start and end of the
call into ``akchar.cli.main`` and its exit code.  Resource usage is taken by
the parent from ``os.wait4``.
"""
import json
import os
import sys
import time


def main() -> None:
    spawned = float(sys.argv[1])
    trace_path = sys.argv[2]
    argv = sys.argv[3:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import akchar.cli

    imported = time.perf_counter()
    report = {"setup_s": imported - spawned}
    if argv:
        run = akchar.cli.main
        recorder = None
        if trace_path != "-":
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
            run = recorder.wrap(run, "cli.main")
        start = time.perf_counter()
        report["rc"] = run(argv)
        report["run_s"] = time.perf_counter() - start
        if recorder is not None:
            recorder.dump(trace_path)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
