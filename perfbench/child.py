"""One benchmark pass, run in a fresh interpreter so that it starts with a
cold FormContext cache, as a real ``classify`` invocation does.

Reads a job from stdin as JSON:
    {"root": <checkout>, "requests": [argv, ...], "trace": bool,
     "spans_path": <file or null>}
and prints one JSON object on stdout: the set-up time, each request's
latency, exit code and captured output, the pass wall time, peak RSS and,
for a traced pass, the per-layer metrics.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time


def run_request(cli, argv: list[str]) -> dict:
    """Call ``cli.main(argv)`` with stdout and stderr captured; return its
    latency, exit code (None if it raised) and outputs."""
    out, err = io.BytesIO(), io.StringIO()
    wrapper = io.TextIOWrapper(out, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = wrapper, err
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a raising request is a failed request
        rc = None
        err.write(f"raised {type(e).__name__}: {e}")
    finally:
        dt = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
        wrapper.flush()
        wrapper.detach()
    return {"ms": dt * 1000.0, "rc": rc,
            "out": out.getvalue().decode("utf-8", "replace"),
            "err": err.getvalue()[-2000:]}


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import minorbit.cli as cli
    from minorbit import golden, realform
    realform.catalog(8)
    golden.load_golden(cli.default_golden_path())
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        print(f"minorbit imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 1

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    start = time.perf_counter()
    try:
        for i, argv in enumerate(job["requests"]):
            if tracer is not None:
                tracer.request = i
            results.append(run_request(cli, argv))
    finally:
        if tracer is not None:
            tracer.restore()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    doc = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "results": results}
    if tracer is not None:
        doc["layers"] = tracing.layer_metrics(tracer)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
