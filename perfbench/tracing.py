"""Span tracing of the logvf layers from outside the package.

A :class:`Tracer` replaces every binding of a listed function (module
globals, package re-exports and names other modules imported with ``from
... import``) or class attribute by a timing wrapper, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing in ``src/`` changes.

Each call records one span: name, start, end and parent span.  Spans are kept
in compact arrays until the end of the run.  A span's self time is its
duration minus the durations of its child spans and minus the tracer's own
bookkeeping done inside it (``ov``), so over any span tree

    sum(self times) + sum(bookkeeping) == duration of the root span.

Counts that need the arguments or the return value (rational operands in the
poly kernels, ``primitive()`` rescales, the ``_step`` branch) are taken in
that bookkeeping, after the span has ended.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

# (metric name, module, attribute path) for every function the traced run wraps.
TARGETS = (
    ("field.coerce", "logvf.field", "Field.coerce"),
    ("field.div_raw", "logvf.field", "Field.div_raw"),
    ("arrangement.Multiarrangement", "logvf.arrangement", "Multiarrangement.__init__"),
    ("poly.mul", "logvf.poly", "HomogPoly.__mul__"),
    ("poly.times_linear", "logvf.poly", "HomogPoly.times_linear"),
    ("poly.div_linear", "logvf.poly", "HomogPoly._div_linear"),
    ("poly.eval_raw", "logvf.poly", "HomogPoly.eval_raw"),
    ("poly.scale", "logvf.poly", "HomogPoly.scale"),
    ("poly.add", "logvf.poly", "HomogPoly.__add__"),
    ("derivation.primitive", "logvf.derivation", "Derivation.primitive"),
    ("derivation.is_member", "logvf.derivation", "Derivation.is_member"),
    ("derivation.plus_scaled", "logvf.derivation", "Derivation.plus_scaled"),
    ("derivation.apply", "logvf.derivation", "Derivation.apply"),
    ("basis.step", "logvf.basis", "_step"),
    ("basis.build_basis", "logvf.basis", "build_basis"),
    ("basis.verify_basis", "logvf.basis", "verify_basis"),
    ("oracle.dim_degree", "logvf.oracle", "dim_degree"),
    ("oracle.exponents_by_oracle", "logvf.oracle", "exponents_by_oracle"),
    ("analysis.proposition_experiment", "logvf.analysis", "proposition_experiment"),
    ("analysis.predicted_difference_two", "logvf.analysis", "predicted_difference_two"),
    ("analysis.frobenius_basis", "logvf.analysis", "frobenius_basis"),
    ("cli.parse_arrangement_text", "logvf.cli", "parse_arrangement_text"),
)
POLY_KERNELS = frozenset(name for name, _, _ in TARGETS if name.startswith("poly."))
BENCH_JOB = "bench.job"
BENCH_SETUP = "bench.setup"


def _has_rational(args) -> bool:
    """Whether a poly kernel received a coefficient or scalar that is not a plain int."""
    for a in args:
        if hasattr(a, "coeffs"):  # HomogPoly
            values = a.coeffs
        elif hasattr(a, "ax"):  # LinearForm
            values = (a.ax.value, a.ay.value)
        else:  # raw scalar
            values = (a,)
        for v in values:
            if type(v) is not int:
                return True
    return False


class Tracer:
    """Timing wrappers for the TARGETS and the spans and counts they record."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.ov = array("d")
        self.current = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ------------------------------------------------------------------
    # spans

    @contextlib.contextmanager
    def root(self, name: str):
        """Install the wrappers and record the block as root span ``name``.

        Root spans are the benchmark's own: a job's timed call, or set-up.
        """
        self.install()
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(-1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.ov.append(0.0)
        self.current = idx
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.current = -1
            self.uninstall()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        names, parents, starts, ends, ovs = self.name, self.parent, self.start, self.end, self.ov
        counts = self.counts
        tracer = self
        post = None
        if name in POLY_KERNELS:
            def post(args, result):
                counts["poly.kernel_calls"] += 1
                if _has_rational(args):
                    counts["poly.rational_calls"] += 1
        elif name == "derivation.primitive":
            def post(args, result):
                if result[1] != 1:
                    counts["derivation.primitive.rescaled"] += 1
        elif name == "basis.step":
            def post(args, result):
                counts["basis.step." + result[2].value.replace("-", "_")] += 1

        def wrapper(*args, **kwargs):
            t0 = clock()
            idx = len(starts)
            parent = tracer.current
            names.append(nid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            ovs.append(0.0)
            tracer.current = idx
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                tracer.current = parent
                starts[idx] = t1
                ends[idx] = t2
            if post is not None:
                post(args, result)
            if parent >= 0:
                ovs[parent] += (t1 - t0) + (clock() - t2)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap every binding of every target in the loaded ``logvf`` modules."""
        modules = [m for key, m in sys.modules.items() if key == "logvf" or key.startswith("logvf.")]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            head, _, attr = path.rpartition(".")
            if head:
                owner = getattr(owner, head)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original)
            self._patch(owner, attr, wrapper)
            if not head:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # aggregation

    def self_times(self) -> list[float]:
        n = len(self.start)
        covered = list(self.ov)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def summary(self):
        """Per-name call counts and self times, plus the accounting of every root span.

        Root spans are the benchmark's own ``bench.job`` and ``bench.setup``
        spans: the wrappers are installed only inside them.  Returns
        ``(calls, self_s, roots, min_self)`` where ``roots`` lists, per root,
        ``(wall, sum of self times in its tree, tracer bookkeeping in its
        tree)`` and ``min_self`` is the smallest self time of any span.
        """
        selfs = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        root_of = array("q", [0]) * len(self.start)
        roots: dict[int, list[float]] = {}
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += selfs[i]
            p = self.parent[i]
            root = root_of[i] = root_of[p] if p >= 0 else i
            acc = roots.setdefault(root, [self.end[root] - self.start[root], 0.0, 0.0])
            acc[1] += selfs[i]
            acc[2] += self.ov[i]
        return calls, self_s, list(roots.values()), min(selfs, default=0.0)
