"""Per-layer tracing of the ybsl21 package, installed from outside it.

The tracer wraps the public boundaries of each module (check functions,
operator builds, `equal_on_degree`, `Operator.apply`, `sector_action`,
`solve_in_span`, the CLI drivers) in spans, and the `SuperPolynomial`
arithmetic in plain counters, because that arithmetic runs hundreds of
thousands of times per check.  A wrapped function is rebound in every
`ybsl21` module that imported it by name, so calls between modules are seen
too.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

perf_counter = time.perf_counter

#: the eight commands of `ybsl21 --command all`, in suite order
SUITE_COMMANDS = ("check-algebra", "check-lax", "check-rll", "check-defining",
                  "check-lemmas", "check-recurrences", "check-factorization",
                  "spectrum")

#: (module, function) -> span name; every call becomes one span
SPANS = {
    ("opalg", "equal_on_degree"): "opalg.equal_on_degree",
    ("rops", "build_r"): "rops.build",
    ("rops", "check_defining"): "rops.check",
    ("rops", "check_lemma_system"): "rops.check",
    ("rops", "check_recurrences"): "rops.check",
    ("rops", "check_factorization"): "rops.check",
    ("rops", "check_ybe"): "rops.check",
    ("lax", "matrices_equal"): "lax.matrices_equal",
    ("lax", "check_rll"): "lax.check_rll",
    ("lowest", "sector_action"): "lowest.sector_action",
    ("lowest", "check_sector"): "lowest.check",
    ("lowest", "check_composite"): "lowest.check",
    ("lowest", "check_conjugator_oracles"): "lowest.check",
    ("linsolve", "solve_in_span"): "linsolve.solve",
    ("sl21", "check_relations"): "sl21.check",
    ("sl21", "check_casimir"): "sl21.check",
    ("sl21", "check_finite_subspace"): "sl21.check",
    ("cli", "_emit"): "cli.emit",
}

#: (module, function) -> counter name; calls are counted, not timed
COUNTED = {
    ("lax", "build_lax"): "lax.build_lax.calls",
    ("sl21", "build_generators"): "sl21.build_generators.calls",
}

#: samplers; only the outermost call counts, since they call each other
SAMPLERS = ("sample_params", "sample_weights", "sample_weight_spectral")


class Tracer:
    """Spans and counters for one traced pass; see `metrics`."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, outermost]
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.superpoly_s = 0.0
        self.coeff_bits = 0
        self.build_keys: set = set()
        self._restore: list[tuple] = []
        self._sampling = 0

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _span(self, name: str, fn, on_call=None, on_result=None):
        spans, stack, opened = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(spans)
            depth = opened.get(name, 0)
            opened[name] = depth + 1
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   depth == 0]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                opened[name] = depth
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _timed_arith(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                self.superpoly_s += perf_counter() - t0
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, pkg_modules, orig, wrapper) -> None:
        """Replace `orig` by `wrapper` wherever a ybsl21 module holds it."""
        for mod in pkg_modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        drivers = getattr(sys.modules.get("ybsl21.cli"), "DRIVERS", {})
        for command, fn in list(drivers.items()):
            if fn is orig:
                self._restore.append((drivers, command, orig))
                drivers[command] = wrapper

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap the package's layer boundaries; `uninstall` undoes it."""
        mods = {name.rpartition(".")[2]: mod
                for name, mod in list(sys.modules.items())
                if name.startswith("ybsl21.")}
        pkg = [m for n, m in sys.modules.items()
               if n == "ybsl21" or n.startswith("ybsl21.")]
        opalg, superpoly, rops, cli = (mods["opalg"], mods["superpoly"],
                                       mods["rops"], mods["cli"])

        def eq_call(a, b, max_degree, nsites=2, *args, **kwargs):
            self.count("opalg.basis_monomials",
                       math.comb(max_degree + nsites, nsites) * 4 ** nsites)

        def build_call(k, pp, sites=(1, 2), nsites=2, *args, **kwargs):
            self.build_keys.add((k, pp.u.as_tuple(), pp.v.as_tuple(),
                                 tuple(sites), nsites))

        def lowest_result(report):
            if report.status == "error":
                self.count("lowest.errors")

        hooks = {("opalg", "equal_on_degree"): (eq_call, None),
                 ("rops", "build_r"): (build_call, None),
                 ("lowest", "check_sector"): (None, lowest_result),
                 ("lowest", "check_composite"): (None, lowest_result),
                 ("lowest", "check_conjugator_oracles"): (None, lowest_result)}
        for (mod, fn_name), span in SPANS.items():
            orig = getattr(mods[mod], fn_name)
            on_call, on_result = hooks.get((mod, fn_name), (None, None))
            fn = orig
            if on_result is lowest_result:
                fn = self._count_raises(orig, "lowest.errors", Exception)
            self._rebind(pkg, orig, self._span(span, fn, on_call, on_result))
        for (mod, fn_name), counter in COUNTED.items():
            orig = getattr(mods[mod], fn_name)
            self._rebind(pkg, orig, self._counted(counter, orig))
        for command in SUITE_COMMANDS:
            orig = cli.DRIVERS[command]
            self._rebind(pkg, orig, self._span(f"cli.driver.{command}", orig))
        for fn_name in SAMPLERS:
            orig = getattr(cli, fn_name)
            self._rebind(pkg, orig, self._sampler(orig))
        guard = rops.guard_factor
        self._rebind(pkg, guard, self._count_raises(
            guard, "rops.guard.rejects", rops.SingularParameters))
        pair_guard = rops.pair_guard
        self._rebind(pkg, pair_guard, self._pair_guard(pair_guard))

        op_cls = opalg.Operator
        self._patch_method(op_cls, "apply", self._span(
            "opalg.apply", op_cls.apply, on_result=self._coeff_bits))
        cached = opalg.Cached
        self._patch_method(cached, "__init__",
                           self._counted("opalg.cached.created",
                                         cached.__init__))
        self._patch_method(cached, "_apply", self._cache_probe(cached._apply))
        poly = superpoly.SuperPolynomial
        for attr, name in (("__mul__", "superpoly.mul.calls"),
                           ("__add__", "superpoly.add.calls"),
                           ("__rmul__", "superpoly.scale.calls")):
            self._patch_method(poly, attr,
                               self._timed_arith(name, poly.__dict__[attr]))
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    def _count_raises(self, fn, name: str, exc_type):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except exc_type:
                self.count(name)
                raise
        return wrapper

    def _pair_guard(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count("rops.pair_guard.calls")
            fn(*args, **kwargs)
            self.count("rops.pair_guard.passes")
        return wrapper

    def _sampler(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._sampling:
                self.count("cli.sample.calls")
            self._sampling += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._sampling -= 1
        return wrapper

    def _cache_probe(self, fn):
        @functools.wraps(fn)
        def wrapper(op, p):
            before = len(op._images)
            result = fn(op, p)
            misses = len(op._images) - before
            self.count("opalg.cached.misses", misses)
            self.count("opalg.cached.hits", len(p.terms) - misses)
            return result
        return wrapper

    def _coeff_bits(self, poly) -> None:
        bits = self.coeff_bits
        for c in poly.terms.values():
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > bits:
                bits = b
        self.coeff_bits = bits

    # -- reporting ---------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds).

        Inclusive time counts only spans with no enclosing span of the same
        name; self time is a span's duration minus its child spans'.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, outermost) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            if outermost:
                acc[1] += end - start
            acc[2] += end - start - child_s[i]
        return {k: tuple(v) for k, v in out.items()}

    def metrics(self, overhead: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        spans = self.span_totals()
        c = self.counts.get

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        def secs(name):
            return spans.get(name, (0, 0.0, 0.0))[1]

        builds = calls("rops.build")
        guards = c("rops.pair_guard.calls", 0)
        out = {
            "superpoly.mul.calls": (c("superpoly.mul.calls", 0), "count"),
            "superpoly.add.calls": (c("superpoly.add.calls", 0), "count"),
            "superpoly.scale.calls": (c("superpoly.scale.calls", 0), "count"),
            "superpoly.s": (self.superpoly_s, "s"),
            "opalg.apply.calls": (calls("opalg.apply"), "count"),
            "opalg.apply.self_s": (spans.get("opalg.apply", (0, 0, 0.0))[2],
                                   "s"),
            "opalg.equal_on_degree.calls": (calls("opalg.equal_on_degree"),
                                            "count"),
            "opalg.equal_on_degree.s": (secs("opalg.equal_on_degree"), "s"),
            "opalg.basis_monomials": (c("opalg.basis_monomials", 0), "count"),
            "opalg.coeff_bits.max": (self.coeff_bits, "bits"),
            "opalg.cached.created": (c("opalg.cached.created", 0), "count"),
            "opalg.cached.hits": (c("opalg.cached.hits", 0), "count"),
            "opalg.cached.misses": (c("opalg.cached.misses", 0), "count"),
            "rops.build.calls": (builds, "count"),
            "rops.build.distinct": (len(self.build_keys), "count"),
            "rops.build.distinct_ratio": (
                len(self.build_keys) / builds if builds else 0.0, "ratio"),
            "rops.build.s": (secs("rops.build"), "s"),
            "rops.guard.rejects": (c("rops.guard.rejects", 0), "count"),
            "rops.check.s": (secs("rops.check"), "s"),
            "lax.build_lax.calls": (c("lax.build_lax.calls", 0), "count"),
            "lax.matrices_equal.calls": (calls("lax.matrices_equal"), "count"),
            "lax.matrices_equal.s": (secs("lax.matrices_equal"), "s"),
            "lax.check_rll.s": (secs("lax.check_rll"), "s"),
            "lowest.sector_action.calls": (calls("lowest.sector_action"),
                                           "count"),
            "lowest.sector_action.s": (secs("lowest.sector_action"), "s"),
            "lowest.errors": (c("lowest.errors", 0), "count"),
            "linsolve.solve.calls": (calls("linsolve.solve"), "count"),
            "linsolve.solve.s": (secs("linsolve.solve"), "s"),
            "sl21.build_generators.calls": (
                c("sl21.build_generators.calls", 0), "count"),
            "sl21.check.s": (secs("sl21.check"), "s"),
            "cli.sample.calls": (c("cli.sample.calls", 0), "count"),
            "cli.sample.accept_ratio": (
                c("rops.pair_guard.passes", 0) / guards if guards else 0.0,
                "ratio"),
            "cli.emit.s": (secs("cli.emit"), "s"),
            "trace.overhead": (overhead, "ratio"),
        }
        for command in SUITE_COMMANDS:
            out[f"cli.driver.{command}.s"] = (secs(f"cli.driver.{command}"),
                                              "s")
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
