"""Run one nks3 command with the public functions of its modules wrapped.

Usage: python3 traced_cli.py SPANS_JSON -- <nks3 arguments>

Each function named in layers.LAYERS gets one wrapper, rebound in every nks3
module namespace that holds the original, so calls made inside the package
are recorded too.  Spans stay in memory; at exit the per-function call
counts and self times, and the nesting audit, are written to SPANS_JSON.
The command's stdout, files and exit code are those of the untraced command.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

from layers import LAYERS, self_times


def install(spans):
    """Wrap every listed function and rebind the wrappers package-wide."""
    modules = {mod: importlib.import_module(f"nks3.{mod}") for mod in LAYERS}
    stack = []

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    wrappers = {}
    for mod, names in LAYERS.items():
        for fn in names:
            original = getattr(modules[mod], fn)
            wrappers[id(original)] = (original, wrap(f"{mod}.{fn}", original))
    package = [m for k, m in list(sys.modules.items()) if k == "nks3" or k.startswith("nks3.")]
    for module in package:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return modules["cli"]


def main():
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- <nks3 arguments>")
    spans = []
    cli = install(spans)
    try:
        rc = cli.main(argv)
    finally:
        aggregate, audit = self_times(spans)
        with open(out_path, "w") as fh:
            json.dump({"functions": aggregate, "audit": audit}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
