"""The workload process: one client running the operation list in a closed loop.

Usage: python3 worker.py PLAN.json RESULT.json

PLAN holds the package source directory, the argv of every operation, the
number of passes over the list, a time cap and whether to trace.  The
worker runs the passes, stopping early only past the cap, and clears every
package lru_cache before each operation, as a fresh CLI process would have
them.
In a traced run, untraced and traced passes alternate so that the ratio of
their wall times gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import diskpd
    import diskpd.cli

    if not Path(diskpd.__file__).resolve().is_relative_to(src):
        print(f"diskpd imported from {diskpd.__file__}, not {src}", file=sys.stderr)
        return 2

    from tracer import LAYERS, Tracer

    modules = [diskpd] + [importlib.import_module(f"diskpd.{layer}") for layer in LAYERS]
    caches = {
        id(obj): obj for m in modules for obj in vars(m).values() if hasattr(obj, "cache_clear")
    }.values()
    tracer = Tracer(diskpd) if plan["trace"] else None

    ops = plan["ops"]
    execs = []  # [op index, pass, exit code, latency s, stdout sha256, exception]
    first_out = {}
    passes = []  # {"traced": bool, "busy_s": float}
    start = perf_counter()
    while len(passes) < plan["passes"]:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        busy = 0.0
        for idx, argv in enumerate(ops):
            for cache in caches:
                cache.cache_clear()
            if traced:
                tracer.op_id = len(passes) * len(ops) + idx
            out = io.StringIO()
            exc = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                try:
                    rc = diskpd.cli.main(argv)
                except SystemExit as stop:
                    rc = stop.code
                except Exception as err:  # reported as a failed operation
                    rc, exc = None, f"{type(err).__name__}: {err}"
                t1 = perf_counter()
            busy += t1 - t0
            text = out.getvalue()
            first_out.setdefault(idx, text)
            execs.append([idx, len(passes), rc, t1 - t0, hashlib.sha256(text.encode()).hexdigest(), exc])
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "busy_s": busy})
        if perf_counter() - start > plan["cap_s"] and (tracer is None or len(passes) >= 2):
            break

    result = {
        "execs": execs,
        "first_out": first_out,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
