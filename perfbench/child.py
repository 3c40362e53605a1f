"""One cold redix process of the benchmark.

    python3 perfbench/child.py setup
    python3 perfbench/child.py [--trace FILE] cli COMMAND ARGS...
    python3 perfbench/child.py [--trace FILE] selftest SEED SCOPE[,SCOPE...]

`setup` imports redix and loads the corpus, then exits: the set-up a
user pays before any work.  `cli` calls `redix.cli.main` and passes its
return value to `sys.exit`, which `python -m redix.cli` does not do.
`selftest` runs the suites of the given scopes in SUITES order, each
through `run_selftest(scope=<suite>)` so that caches are shared as under
`--scope all`, and prints one JSON list with each suite's time and
check counts.  With `--trace`, spans and counts go to FILE as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus.json"


def run_suites(seed: int, scopes, tracer=None) -> list[dict]:
    from redix.selftest import SUITES, run_selftest

    out = []
    for suite in SUITES:
        if suite.scope not in scopes:
            continue
        start = time.perf_counter()
        if tracer is None:
            report = run_selftest(scope=suite.name, seed=seed)
        else:
            report = tracer.root(
                suite.name, "selftest.suite." + suite.name, run_selftest, scope=suite.name, seed=seed
            )
        seconds = time.perf_counter() - start
        (result,) = report.results
        out.append(
            {
                "name": suite.name,
                "scope": suite.scope,
                "seconds": seconds,
                "checks": result.checks,
                "failures": result.failure_count,
            }
        )
    return out


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    import redix.cli

    if mode == "setup":
        json.loads(CORPUS.read_text())
        return 0
    tracer = None
    if trace_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if mode == "cli":
        if tracer is None:
            code = redix.cli.main(rest)
        else:
            code = tracer.root(rest[0], "cli.main", redix.cli.main, rest)
    elif mode == "selftest":
        seed, scopes = int(rest[0]), rest[1].split(",")
        print(json.dumps(run_suites(seed, scopes, tracer)))
        code = 0
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        trace = {"roots": tracer.roots, "spans": tracer.spans(), "counts": tracer.counts()}
        Path(trace_path).write_text(json.dumps(trace))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
