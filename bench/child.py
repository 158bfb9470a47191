"""Run one vtapred CLI command in this fresh interpreter and record how it went.

    python3 bench/child.py SRC_DIR RESULT_JSON TRACE_ID -- CLI_ARGS...

Times ``import vtapred.cli`` (what every CLI call pays before any work) and
then ``vtapred.cli.main(CLI_ARGS)``, and writes both times, the exit code and
the process's peak resident memory to RESULT_JSON.  With a TRACE_ID other
than ``-``, the package is traced and its spans go to RESULT_JSON.spans.jsonl.
The process exits with the command's exit code.
"""

import json
import resource
import sys
import time


def main() -> int:
    src_dir, result_path, trace_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR RESULT_JSON TRACE_ID -- CLI_ARGS...")
    sys.path.insert(0, src_dir)
    start = time.perf_counter()
    import vtapred.cli
    import_s = time.perf_counter() - start

    tracer = None
    if trace_id != "-":
        import tracing
        tracer = tracing.Tracer(trace_id)
        tracing.install(tracer)
    start = time.perf_counter()
    code = vtapred.cli.main(argv)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(result_path + ".spans.jsonl")

    result = {
        "exit_code": code,
        "import_s": import_s,
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
