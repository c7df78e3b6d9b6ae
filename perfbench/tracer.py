"""Run the wignerlab CLI with its layers wrapped from outside the package.

    python3 perfbench/tracer.py SPANS_JSON RUN_ID [wignerlab CLI arguments...]

Each traced call is one span: name, start, end (perf_counter ns) and the
index of the enclosing traced span (-1 at top level).  Spans stay in memory
and are written to SPANS_JSON when the CLI returns, tagged with RUN_ID, so
all spans of one invocation share an identifier.  The wignerlab sources are
not modified; the traced functions are replaced wherever a wignerlab module
has bound them, and a name a later refactor removes is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from layers import TRACED

PACKAGE = "wignerlab"


def _branch_counts(counters, args, kwargs, result):
    observables = kwargs.get("observables", args[1] if len(args) > 1 else ())
    tried = 1
    for obs in observables:
        tried *= len(obs.branches)
    counters["qsim.branch_decompose.tried"] = counters.get("qsim.branch_decompose.tried", 0) + tried
    counters["qsim.branch_decompose.kept"] = counters.get("qsim.branch_decompose.kept", 0) + len(result)


def _report_bytes(counters, args, kwargs, result):
    counters["cli.report_bytes"] = counters.get("cli.report_bytes", 0) + len(result.encode())


# Counts read from a traced function's arguments and result.
COUNTERS = {"qsim.branch_decompose": _branch_counts, "cli.emit_report": _report_bytes}


class Tracer:
    """In-memory span recorder for wrapped callables (single-threaded)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, open_spans, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index][1:3] = (start, end)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer, targets=TRACED) -> list[str]:
    """Wrap each `<module>.<attr>` target of the package; return the absent ones."""
    absent = []
    for target in targets:
        module_name, _, attr_path = target.partition(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ModuleNotFoundError:
            absent.append(target)
            continue
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if isinstance(raw, property):
                setattr(owner, attr, property(tracer.wrap(target, raw.fget), raw.fset, raw.fdel, raw.__doc__))
            elif callable(raw):
                setattr(owner, attr, tracer.wrap(target, raw))
            else:
                absent.append(target)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            absent.append(target)
            continue
        traced = tracer.wrap(target, original, COUNTERS.get(target))
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
    return absent


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    import numpy  # noqa: F401  (imported first so cli.import_ms excludes it)

    start = time.perf_counter_ns()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    absent = install(tracer)
    status = cli.main(cli_args)
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    doc = {
        "run_id": run_id,
        "import_ms": import_ns / 1e6,
        "absent": absent,
        "counters": tracer.counters,
        "names": names,
        "spans": [[index[name], start, end, parent] for name, start, end, parent in tracer.spans],
    }
    with open(spans_path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
