"""Layer spans for redix, recorded from outside the package.

`Tracer.install` replaces the public functions listed in TARGETS at
every `redix.*` module attribute that holds them (modules import names
directly, so `bass0` alone is reachable through four modules), and
class-level methods on their class.  Each call then records one span:
its name, its parent span and the root span (one CLI request or one
selftest suite) it ran under.

Spans are aggregated in memory per (root, parent, name), holding call
count, inclusive time and self time (inclusive time minus the time
covered by child spans), because the hot functions run millions of
times per process.  Counts of work (box points, staircase sizes,
deferred covers) are not taken inside a span: the arguments and results
of the counted functions are kept, and `counts` derives the numbers
after the run, with the wrappers removed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

# (span name, module that defines it, attribute; "Class.method" for methods)
TARGETS = (
    ("textio.parse", "redix.textio", "parse_ideal_text"),
    ("textio.parse", "redix.textio", "parse_group_text"),
    ("textio.parse", "redix.textio", "parse_poly_text"),
    ("textio.parse", "redix.textio", "parse_field_spec"),
    ("textio.parse", "redix.textio", "parse_change_descriptor"),
    ("textio.render", "redix.textio", "render_ideal_text"),
    ("textio.render", "redix.textio", "render_group_text"),
    ("textio.render", "redix.textio", "render_poly_text"),
    ("textio.render", "redix.textio", "render_field_spec"),
    ("textio.render", "redix.textio", "render_change_descriptor"),
    ("monomial.from_gens", "redix.monomial", "MonomialIdeal.from_gens"),
    ("monomial.colon", "redix.monomial", "MonomialIdeal.colon"),
    ("monomial.standard_monomials", "redix.monomial", "MonomialIdeal.standard_monomials"),
    ("decompose.split", "redix.decompose", "split_decompose"),
    ("decompose.irredundant", "redix.decompose", "irredundant"),
    ("bass.bass0", "redix.bass", "bass0"),
    ("bass.colon_scan", "redix.bass", "ass_by_colon_scan"),
    ("bass.socle_index", "redix.bass", "reducibility_index_by_bass"),
    ("basechange.extension", "redix.basechange", "extension_report"),
    ("basechange.localization", "redix.basechange", "localization_report"),
    ("gfpoly.factor", "redix.gfpoly", "factor"),
    ("gfpoly.lattice_oracle", "redix.gfpoly", "hypersurface_index_bruteforce"),
    ("gfpoly.field_extension", "redix.gfpoly", "field_extension_report"),
    ("staircase.from_ideal", "redix.staircase", "Staircase.from_ideal"),
    ("staircase.maximal", "redix.staircase", "maximal_elements"),
    ("staircase.dual_report", "redix.staircase", "dual_index_report"),
    ("staircase.min_cover", "redix.staircase", "min_cover_oracle"),
    ("staircase.cover_sizes", "redix.staircase", "irredundant_cover_sizes"),
    ("abelian.bruteforce", "redix.abelian", "sum_reducibility_index_bruteforce"),
    ("abelian.lattice", "redix.abelian", "subgroup_lattice"),
    ("abelian.irreducible", "redix.abelian", "SubgroupLattice.is_sum_irreducible_index"),
    ("abelian.characterization", "redix.abelian", "characterization_report"),
    ("abelian.secondary", "redix.abelian", "secondary_representation"),
    ("abelian.quotient_scan", "redix.abelian", "quotient_monotonicity_report"),
)

# spans whose arguments and results are kept for `counts`
COUNTED = frozenset(
    {
        "monomial.standard_monomials",
        "decompose.split",
        "decompose.irredundant",
        "bass.bass0",
        "bass.colon_scan",
        "gfpoly.lattice_oracle",
        "staircase.from_ideal",
        "abelian.bruteforce",
        "abelian.lattice",
    }
)

# the counts `Tracer.counts` derives
COUNT_NAMES = (
    "monomial.standard_box_points",
    "decompose.split_candidates",
    "decompose.irredundant_candidates",
    "decompose.irredundant_kept",
    "bass.bass0_box_points",
    "bass.bass0_witnesses",
    "bass.colon_scan_points",
    "gfpoly.lattice_oracle_elements",
    "staircase.size_total",
    "abelian.deferred_checked",
    "abelian.min_representations",
    "abelian.lattice_builds",
    "abelian.lattice_subgroups",
)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, time covered by children]
        self._root: str | None = None
        self._restore: list[tuple[object, str, object]] = []
        self.stats: dict[tuple, list] = {}  # (root, parent, name) -> [calls, inclusive s, self s]
        self.calls: list[tuple] = []  # (name, original function, args, kwargs, result)
        self.roots: list[dict] = []  # {"id", "name", "start" (CLOCK_MONOTONIC), "seconds"}

    def _wrap(self, name: str, fn):
        stack, stats, calls, clock = self._stack, self.stats, self.calls, time.perf_counter
        keep = name in COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (self._root, parent[0] if parent else None, name)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if keep:
                calls.append((name, fn, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; call after the redix modules are imported."""
        modules = [m for n, m in list(sys.modules.items()) if n == "redix" or n.startswith("redix.")]
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, fn))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def root(self, root_id: str, name: str, fn, *args, **kwargs):
        """Run fn as the root span `name` of request or suite `root_id`."""
        self._root = root_id
        start = time.monotonic()
        try:
            return self._wrap(name, fn)(*args, **kwargs)
        finally:
            self.roots.append(
                {"id": root_id, "name": name, "start": start, "seconds": time.monotonic() - start}
            )
            self._root = None

    def spans(self) -> list[list]:
        return [[root, parent, name, *rec] for (root, parent, name), rec in self.stats.items()]

    def counts(self) -> dict[str, int]:
        """Work counts derived from the kept arguments and results.

        Cached results (lattices, search reports) are counted once per
        process: a repeat of the same object is a cache hit.
        """
        from redix.bass import localized_ideal

        out = dict.fromkeys(COUNT_NAMES, 0)
        seen: set[int] = set()
        signatures: dict[object, inspect.Signature] = {}
        for name, fn, args, kwargs, result in self.calls:
            if fn not in signatures:
                signatures[fn] = inspect.signature(fn)
            arg = signatures[fn].bind(*args, **kwargs).arguments
            if name == "monomial.standard_monomials":
                ideal = arg["self"]
                if not ideal.is_unit:
                    out["monomial.standard_box_points"] += math.prod(
                        min(g.exponents[i] for g in ideal.gens if g.support() == {i})
                        for i in range(ideal.ring.n)
                    )
            elif name == "decompose.split":
                out["decompose.split_candidates"] += len(result)
            elif name == "decompose.irredundant":
                out["decompose.irredundant_candidates"] += len(set(arg["candidates"]))
                out["decompose.irredundant_kept"] += len(result.components)
            elif name == "bass.bass0":
                local = localized_ideal(arg["ideal"], arg["support"])
                if not local.is_unit:
                    out["bass.bass0_box_points"] += math.prod(local.max_exponents())
                out["bass.bass0_witnesses"] += result[0]
            elif name == "bass.colon_scan":
                out["bass.colon_scan_points"] += math.prod(
                    d + 1 for d in arg["ideal"].max_exponents()
                )
            elif name == "gfpoly.lattice_oracle":
                out["gfpoly.lattice_oracle_elements"] += arg["f"].field.p ** arg["f"].degree
            elif name == "staircase.from_ideal":
                out["staircase.size_total"] += result.size
            elif id(result) not in seen:
                seen.add(id(result))
                if name == "abelian.bruteforce":
                    out["abelian.deferred_checked"] += result.deferred_checked
                    out["abelian.min_representations"] += result.minimum_count
                else:  # abelian.lattice
                    out["abelian.lattice_builds"] += 1
                    out["abelian.lattice_subgroups"] += len(result)
        return out

