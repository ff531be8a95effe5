"""Run one ``artlab`` CLI command with span timers around its layers.

Usage: ``python cli_shim.py TRACE_JSON ARTLAB_ARGS...``

Behaves like ``python -m artlab ARTLAB_ARGS...`` (same stdout, stderr and exit
code) and additionally writes the spans of ``cli.dispatch``,
``cli.emit_report`` and ``cli.cache_roundtrip`` to TRACE_JSON.  A cache
round trip counts as a miss when it called its ``compute`` callback.
"""

import json
import os
import sys

from tracer import Tracer


def _dir_bytes(path: str) -> int:
    try:
        with os.scandir(path) as entries:
            return sum(e.stat().st_size for e in entries if e.is_file())
    except OSError:
        return 0


def _count_bytes(rec, args, kwargs, text, frame):
    rec["bytes"] += len(text.encode("utf-8"))


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from artlab import cli

    tracer = Tracer()
    roundtrip = cli.cache_roundtrip

    def traced_roundtrip(cache_dir, key_params, compute):
        computed = []

        def counted():
            computed.append(True)
            return compute()

        before = _dir_bytes(cache_dir)
        with tracer.span("cli.cache_roundtrip") as frame:
            result = roundtrip(cache_dir, key_params, counted)
        rec = tracer.stats["cli.cache_roundtrip"]
        if computed:
            rec["misses"] += 1
            rec["miss_s"] += frame.elapsed_s
            rec["bytes_written"] += max(0, _dir_bytes(cache_dir) - before)
        else:
            rec["hits"] += 1
            rec["hit_s"] += frame.elapsed_s
        return result

    targets = (("artlab.cli", "emit_report", "cli.emit_report", None, _count_bytes),)
    with tracer.installed(targets):
        cli.cache_roundtrip = traced_roundtrip
        try:
            with tracer.span("cli.dispatch"):
                code = cli.dispatch(argv)
        finally:
            cli.cache_roundtrip = roundtrip
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
