"""redix benchmark: cold-process workloads, end-to-end metrics, layer trace.

    python3 perfbench/run.py --workload cli-corpus --seed 42 --seconds 40 --trace 0

Workloads (perfbench/README.md says why each was chosen):

- cli-corpus: the 17 requests of corpus.json, each a fresh `redix`
  process with `--format json --seed <seed>`, in an order shuffled by
  the seed;
- selftest-monomial: one fresh process runs the monomial, basechange
  and dual suites at the seed;
- selftest-algebra: one fresh process runs the univariate and abelian
  suites at the seed.

Load is a closed loop with one client: one child process at a time,
never more than two processes (this one and the child) at once.  Every
request pays interpreter start and cold module-level caches, as a user
does.  A repetition runs the whole workload once; the run repeats it
while the next repetition is predicted to end within `--seconds`, and
reports medians over repetitions.  Every answer is checked against
corpus.json.

With `--trace 1` the run alternates untraced and traced repetitions:
the traced ones wrap redix's public functions from outside (spans.py),
their outputs must be identical to the untraced ones, and the per-layer
metrics come from them.

A report for people comes first on stdout; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  Exits 2
without a result when the checkout has no `src/redix`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SELFTEST_SCOPES = {
    "selftest-monomial": ("monomial", "basechange", "dual"),
    "selftest-algebra": ("univariate", "abelian"),
}
WORKLOADS = ("cli-corpus",) + tuple(SELFTEST_SCOPES)
COMMANDS = ("decompose", "dual", "basechange", "abelian")
SCOPE_METRICS = {
    "selftest.monomial_s": ("monomial", "basechange"),
    "selftest.dual_s": ("dual",),
    "selftest.univariate_s": ("univariate",),
    "selftest.abelian_s": ("abelian",),
}
# check counts of seeded suites are only known at this seed
COUNTS_SEED = 42
SETUP_SPAWNS = 7

# (name, unit, better): the metrics of the final JSON line
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SUITE_NAMES = (
    "index-socle-agreement",
    "decomposition-uniqueness",
    "variable-extension-invariance",
    "localization-formula",
    "factorization-soundness",
    "field-extension-fibers",
    "hypersurface-index",
    "finite-length-duality",
    "cover-uniqueness",
    "downset-sum-lemma",
    "dual-corner-counts",
    "abelian-index-agreement",
    "abelian-attached-bound",
    "abelian-irreducible-classification",
    "abelian-secondary-split",
    "abelian-additivity",
    "abelian-quotient-monotonicity",
)
PER_LAYER = (
    ("cli.startup_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("textio.parse_s", "s", "lower"),
    ("textio.render_s", "s", "lower"),
    ("monomial.from_gens_n", "count", "lower"),
    ("monomial.from_gens_s", "s", "lower"),
    ("monomial.colon_n", "count", "lower"),
    ("monomial.colon_s", "s", "lower"),
    ("monomial.standard_monomials_s", "s", "lower"),
    ("monomial.standard_box_points", "count", "lower"),
    ("decompose.split_n", "count", "lower"),
    ("decompose.split_s", "s", "lower"),
    ("decompose.split_candidates", "count", "lower"),
    ("decompose.irredundant_s", "s", "lower"),
    ("decompose.kept_ratio", "ratio", "higher"),
    ("bass.bass0_n", "count", "lower"),
    ("bass.bass0_s", "s", "lower"),
    ("bass.bass0_box_points", "count", "lower"),
    ("bass.bass0_witness_ratio", "ratio", "higher"),
    ("bass.colon_scan_s", "s", "lower"),
    ("bass.colon_scan_points", "count", "lower"),
    ("bass.socle_index_s", "s", "lower"),
    ("basechange.extension_s", "s", "lower"),
    ("basechange.localization_s", "s", "lower"),
    ("gfpoly.factor_n", "count", "lower"),
    ("gfpoly.factor_s", "s", "lower"),
    ("gfpoly.lattice_oracle_s", "s", "lower"),
    ("gfpoly.lattice_oracle_elements", "count", "lower"),
    ("gfpoly.field_extension_s", "s", "lower"),
    ("staircase.from_ideal_s", "s", "lower"),
    ("staircase.size_total", "count", "lower"),
    ("staircase.maximal_n", "count", "lower"),
    ("staircase.maximal_s", "s", "lower"),
    ("staircase.dual_report_s", "s", "lower"),
    ("staircase.min_cover_s", "s", "lower"),
    ("staircase.cover_sizes_s", "s", "lower"),
    ("abelian.bruteforce_n", "count", "lower"),
    ("abelian.bruteforce_s", "s", "lower"),
    ("abelian.deferred_checked", "count", "lower"),
    ("abelian.min_representations", "count", "higher"),
    ("abelian.lattice_s", "s", "lower"),
    ("abelian.lattice_builds", "count", "lower"),
    ("abelian.lattice_hits", "count", "higher"),
    ("abelian.lattice_subgroups", "count", "lower"),
    ("abelian.irreducible_s", "s", "lower"),
    ("abelian.characterization_s", "s", "lower"),
    ("abelian.secondary_s", "s", "lower"),
    ("abelian.quotient_scan_s", "s", "lower"),
    ("selftest.self_s", "s", "lower"),
    ("selftest.checks", "count", "higher"),
    *((f"selftest.suite.{name}_s", "s", "lower") for name in SUITE_NAMES),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def load_corpus() -> dict:
    return json.loads((HERE / "corpus.json").read_text())


# ------------------------------------------------------------ processes


@dataclass
class Proc:
    exit: int
    seconds: float  # spawn to exit, as the user waits
    rss_mb: float  # peak resident set of the child, from wait4
    out: bytes
    err: str
    spawned: float  # CLOCK_MONOTONIC at spawn, comparable with the child's spans
    trace: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed string hashing, so set iteration inside redix is the same every run
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], env: dict, trace_file: Path | None = None) -> Proc:
    cmd = [sys.executable, str(CHILD)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    spawned = time.monotonic()
    p = subprocess.Popen(cmd + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    out = p.stdout.read()
    reader.join()
    _, status, usage = os.wait4(p.pid, 0)
    seconds = time.monotonic() - spawned
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    trace = None
    if trace_file is not None and trace_file.exists():
        trace = json.loads(trace_file.read_text())
        trace_file.unlink()
    return Proc(p.returncode, seconds, usage.ru_maxrss / 1024, out, err[0].decode(errors="replace"), spawned, trace)


# --------------------------------------------------------------- checks


def check_cli(row: dict, code: int, out: bytes) -> str | None:
    """Why a request's answer is wrong, or None when it is right."""
    if code != row["exit"]:
        return f"exit {code}, expected {row['exit']}"
    if code != 0:
        return "printed a report while refusing" if out.strip() else None
    try:
        results = json.loads(out)["results"]
    except (ValueError, KeyError, TypeError):
        return "no JSON document on stdout"
    if results.get("verdict") is not True:
        return "verdict is not true"
    for path, want in row["expect"].items():
        got = results
        for key in path.split("."):
            got = got.get(key) if isinstance(got, dict) else None
        if got != want:
            return f"{path} = {got!r}, expected {want!r}"
    return None


def check_suites(records: list[dict], seed: int, scopes, expected: list[dict]) -> tuple[int, dict[str, str]]:
    """(suites attempted, failure reason per failed suite) for one selftest process.

    A suite fails when it reports failures, is missing, or its check
    count differs from the expected one.  Exhaustive suites ignore the
    seed, so their counts are checked at every seed; the others only at
    COUNTS_SEED.
    """
    want = [s for s in expected if s["scope"] in scopes]
    got = {r["name"]: r for r in records}
    failures = {}
    for suite in want:
        rec = got.pop(suite["name"], None)
        if rec is None:
            failures[suite["name"]] = "did not run"
        elif rec["failures"]:
            failures[suite["name"]] = f"{rec['failures']} failed checks"
        elif (seed == COUNTS_SEED or suite["mode"] == "exhaustive") and rec["checks"] != suite["checks_at_42"]:
            failures[suite["name"]] = f"{rec['checks']} checks, expected {suite['checks_at_42']}"
    failures.update((name, "unexpected suite") for name in got)
    return len(want) + len(got), failures


# ---------------------------------------------------------- repetitions


@dataclass
class Rep:
    procs: list[Proc]
    attempted: int
    failures: dict[str, str]  # failed operation -> why
    parts: dict[str, float]  # cli.<command>_s or selftest.<scope>_s
    op_seconds: list[float]  # one per CLI request
    outputs: dict[str, object]  # per operation: what traced and untraced runs must agree on
    suites: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.seconds for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def cli_rep(rows: list[tuple[int, dict]], seed: int, env: dict, trace_dir: Path | None) -> Rep:
    """Run each (corpus position, row) request in its own process."""
    procs, failures, outputs = [], {}, {}
    parts = {f"cli.{c}_s": 0.0 for c in COMMANDS}
    for i, row in rows:
        op = f"#{i} {' '.join(row['argv'])}"
        trace_file = trace_dir / f"request-{i}.json" if trace_dir else None
        p = spawn(["cli", *row["argv"], "--format", "json", "--seed", str(seed)], env, trace_file)
        why = check_cli(row, p.exit, p.out)
        if why:
            failures[op] = why
        parts[f"cli.{row['argv'][0]}_s"] += p.seconds
        procs.append(p)
        outputs[op] = p.out
    return Rep(procs, len(rows), failures, parts, [p.seconds for p in procs], outputs)


def selftest_rep(scopes, seed: int, expected: list[dict], env: dict, trace_dir: Path | None) -> Rep:
    trace_file = trace_dir / "selftest.json" if trace_dir else None
    p = spawn(["selftest", str(seed), ",".join(scopes)], env, trace_file)
    try:
        records = json.loads(p.out.decode().strip().splitlines()[-1]) if p.exit == 0 else []
    except (ValueError, IndexError):
        records = []
    attempted, failures = check_suites(records, seed, scopes, expected)
    if p.exit != 0:
        failures = {name: f"process exited {p.exit}: {p.err.strip()[-300:]}" for name in failures}
    parts = {
        name: sum(r["seconds"] for r in records if r["scope"] in group)
        for name, group in SCOPE_METRICS.items()
        if set(group) <= set(scopes)
    }
    outputs = {r["name"]: (r["checks"], r["failures"]) for r in records}
    return Rep([p], attempted, failures, parts, [], outputs, records)


# -------------------------------------------------------------- metrics


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def layer_metrics(rep: Rep, workload: str) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    uncovered = startup = 0.0
    for p in rep.procs:
        trace = p.trace or {"roots": [], "spans": [], "counts": {}}
        for _root, _parent, name, n, _incl, own in trace["spans"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        uncovered += p.seconds - sum(r["seconds"] for r in trace["roots"])
        if trace["roots"] and workload == "cli-corpus":
            startup += trace["roots"][0]["start"] - p.spawned
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in out:
        stem, _, kind = name.rpartition("_")
        if kind == "s" and stem in self_s:
            out[name] = self_s[stem]
        elif kind == "n" and stem in calls:
            out[name] = calls[stem]
        elif name in counts:
            out[name] = counts[name]
    out["cli.startup_s"] = startup
    out["cli.self_s"] = self_s.get("cli.main", 0.0)
    if workload == "cli-corpus":
        out["cli.output_bytes"] = sum(len(p.out) for p in rep.procs)
    suites = {k: v for k, v in self_s.items() if k.startswith("selftest.suite.")}
    for name, own in suites.items():
        out[name + "_s"] = own
    out["selftest.self_s"] = sum(suites.values())
    out["selftest.checks"] = sum(r["checks"] for r in rep.suites)
    if counts.get("decompose.irredundant_candidates"):
        out["decompose.kept_ratio"] = counts["decompose.irredundant_kept"] / counts["decompose.irredundant_candidates"]
    if counts.get("bass.bass0_box_points"):
        out["bass.bass0_witness_ratio"] = counts["bass.bass0_witnesses"] / counts["bass.bass0_box_points"]
    out["abelian.lattice_hits"] = calls.get("abelian.lattice", 0) - counts.get("abelian.lattice_builds", 0)
    out["trace.uncovered_s"] = uncovered
    return out


def span_table(reps: list[Rep], workload: str) -> list[str]:
    """Inclusive and self time per span, grouped by command or scope."""
    lines = []
    groups: dict[str, dict[str, list[float]]] = {}
    work: dict[str, float] = {}
    for rep in reps:
        for p in rep.procs:
            trace = p.trace or {"roots": [], "spans": []}
            for root in trace["roots"]:
                group = root["id"] if workload == "cli-corpus" else "selftest"
                work[group] = work.get(group, 0.0) + root["seconds"]
            for root, _parent, name, n, incl, own in trace["spans"]:
                group = root if workload == "cli-corpus" else "selftest"
                acc = groups.setdefault(group, {}).setdefault(name, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += incl
                acc[2] += own
    for group, spans in sorted(groups.items()):
        total = work.get(group, 0.0)
        lines.append(f"  spans under {group} roots ({total:.3f} s inside roots, over {len(reps)} traced repetitions):")
        lines.append(f"    {'span':34} {'calls':>10} {'incl s':>9} {'self s':>9} {'self %':>7}")
        for name, (n, incl, own) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
            share = 100 * own / total if total else 0.0
            lines.append(f"    {name:34} {n:>10} {incl:>9.3f} {own:>9.3f} {share:>6.1f}%")
    return lines


# ------------------------------------------------------------------ run


def measure(workload: str, seed: int, seconds: int, trace: bool, corpus: dict | None = None) -> dict:
    """Time the set-up, then run repetitions for about `seconds`.

    Every repetition must produce the outputs of the first one: the
    seed fixes them, and tracing must not change them.
    """
    corpus = corpus or load_corpus()
    env = child_env()
    rows = list(enumerate(corpus["cli"]))
    random.Random(seed).shuffle(rows)

    def rep(trace_dir: Path | None) -> Rep:
        if workload == "cli-corpus":
            return cli_rep(rows, seed, env, trace_dir)
        return selftest_rep(SELFTEST_SCOPES[workload], seed, corpus["selftest"], env, trace_dir)

    spawn(["setup"], env)  # byte-compiles the sources once; not timed
    setup = [spawn(["setup"], env).seconds for _ in range(SETUP_SPAWNS)]
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = time.monotonic()
    while True:
        if trace and len(traced) < len(plain):
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
                traced.append(rep(Path(tmp)))
        else:
            plain.append(rep(None))
        elapsed = time.monotonic() - start
        done = bool(plain) and (bool(traced) or not trace)
        if done and elapsed + elapsed / (len(plain) + len(traced)) > seconds:
            break
    for r in plain[1:] + traced:
        for op, out in plain[0].outputs.items():
            if r.outputs.get(op) != out:
                r.failures.setdefault(op, "output differs from the first untraced repetition")
    return {
        "workload": workload,
        "seed": seed,
        "setup": setup,
        "plain": plain,
        "traced": traced,
        "seconds": time.monotonic() - start,
    }


def run_counts(run: dict) -> tuple[int, int]:
    """(operations attempted, operations failed) over every repetition."""
    reps = run["plain"] + run["traced"]
    return sum(r.attempted for r in reps), sum(len(r.failures) for r in reps)


def summarize(run: dict) -> tuple[dict, dict, list[str]]:
    """(end-to-end medians, per-layer medians, report lines)."""
    plain, traced = run["plain"], run["traced"]
    attempted, failed = run_counts(run)
    failures = [f"{op}: {why}" for r in plain + traced for op, why in r.failures.items()]
    e2e = {
        "setup_s": statistics.median(run["setup"]),
        "wall_s": statistics.median(r.wall_s for r in plain),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
    }
    parts = {name: statistics.median(r.parts[name] for r in plain) for name in plain[0].parts}
    lines = [
        f"workload {run['workload']}  seed {run['seed']}  {len(plain)} untraced and"
        f" {len(traced)} traced repetitions in {run['seconds']:.1f} s",
        f"  {'metric':26} {'median':>12} {'unit':6} {'n':>4}  tail",
        f"  {'setup_s':26} {e2e['setup_s']:>12.4f} {'s':6} {len(run['setup']):>4}",
        f"  {'wall_s':26} {e2e['wall_s']:>12.4f} {'s':6} {len(plain):>4}",
        f"  {'peak_rss_mb':26} {e2e['peak_rss_mb']:>12.2f} {'MB':6} {len(plain):>4}",
        f"  {'fail_ratio':26} {failed / attempted:>12.4f} {'ratio':6} {attempted:>4}"
        f"  ({failed} of {attempted} operations failed)",
    ]
    for name, value in parts.items():
        lines.append(f"  {name:26} {value:>12.4f} {'s':6} {len(plain):>4}")
    ops = [s for r in plain for s in r.op_seconds]
    if ops:
        t = tail(ops)
        tail_text = f"p{t[0]} {t[1]:.4f}" if t else "-"
        lines.append(f"  {'cli.request_s':26} {statistics.median(ops):>12.4f} {'s':6} {len(ops):>4}  {tail_text}")
    layers = {}
    if traced:
        per_rep = [layer_metrics(r, run["workload"]) for r in traced]
        layers = {name: statistics.median(m[name] for m in per_rep) for name, _, _ in PER_LAYER}
        layers["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - e2e["wall_s"]
        lines.append("  per-layer metrics (traced repetitions; _s is self time):")
        for name, unit, _ in PER_LAYER:
            lines.append(f"    {name:44} {layers[name]:>14.6g} {unit}")
        lines += span_table(traced, run["workload"])
    for f in failures[:20]:
        lines.append(f"  FAILED {f}")
    return e2e, layers, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=COUNTS_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "redix" / "cli.py").is_file():
        print(f"no redix sources under {SRC}: run from a redix checkout", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    e2e, layers, lines = summarize(run)
    print("\n".join(lines))
    attempted, failed = run_counts(run)
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
