"""Spans around the calls into spinscreen's layers, installed from outside.

Each wrapped function records a span (id, parent id, name, start, end) in
memory; the spans are written out when the run ends.  Wrappers replace every
reference a caller looks up: module globals, entries of module-level dicts
(``cli._SCREEN_BUILDERS``, ``verify.CHECKS``), names imported into other
modules (``cli.screen_oracle``, ``ninej.sixj_exact``) and the re-exports of
the package.  Hot scalar helpers (``triad_ok``, ``factorial``, the exporters'
``_fmt``) are left unwrapped: a wrapper would cost as much as their work.
"""

import functools
import importlib
import os
import sys
import time

# (module, attribute, span name); "Screen.orthonormality_defect" is a method
TARGETS = (
    ("spins", "regge_conjugate", "spins.regge_conjugate"),
    ("recursion", "screen_by_eigensolve", "recursion.screen_by_eigensolve"),
    ("recursion", "tridiag_coeffs", "recursion.tridiag_coeffs"),
    ("recursion", "residual_threeterm", "recursion.residual_threeterm"),
    ("recursion", "row_by_threeterm", "recursion.row_by_threeterm"),
    ("recursion", "screen_by_2d", "recursion.screen_by_2d"),
    ("screen", "Screen.orthonormality_defect", "screen.orthonormality_defect"),
    ("exact", "sixj_exact", "exact.sixj_exact"),
    ("exact", "u_exact", "exact.u_exact"),
    ("exact", "screen_oracle", "exact.screen_oracle"),
    ("geometry", "ridges_and_caustics", "geometry.ridges_and_caustics"),
    ("geometry", "volume_sq", "geometry.volume_sq"),
    ("geometry", "cos_theta3_grid", "geometry.cos_theta3_grid"),
    ("geometry", "potentials", "geometry.potentials"),
    ("semiclassics", "pr_compare", "semiclassics.pr_compare"),
    ("ninej", "ninej_exact", "ninej.ninej_exact"),
    ("cli", "cmd_compute", "cli.compute"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_ninej_check", "cli.ninej_check"),
)
WRITERS = ("write_screen_csv", "write_screen_json", "write_caustics_json",
           "write_ridges_json", "write_potentials_json", "write_field_csv",
           "write_pr_compare_csv")
VERIFY_CHECKS = ("spectrum", "orthonormality", "cross-methods", "threeterm",
                 "exact-symmetries", "unit-sixj", "regge-invariance",
                 "geometry-identities", "cross-identity", "golden")

# Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS = (
    [("recursion.screen_by_eigensolve.busy_s", "s"),
     ("recursion.screen_by_eigensolve.calls", "count"),
     ("recursion.anchor_s", "s"),
     ("recursion.eigh_tridiagonal.busy_s", "s"),
     ("recursion.tridiag_coeffs.busy_s", "s"),
     ("recursion.residual_threeterm.busy_s", "s"),
     ("screen.orthonormality_defect.busy_s", "s"),
     ("screen.orthonormality_defect.calls", "count"),
     ("recursion.row_by_threeterm.busy_s", "s"),
     ("recursion.row_by_threeterm.calls", "count"),
     ("recursion.rows_wrong", "count"),
     ("recursion.screen_by_2d.busy_s", "s"),
     ("exact.sixj_exact.busy_s", "s"),
     ("exact.sixj_exact.calls", "count"),
     ("exact.u_exact.busy_s", "s"),
     ("exact.screen_oracle.busy_s", "s"),
     ("spins.regge_conjugate.calls", "count"),
     ("geometry.ridges_and_caustics.busy_s", "s"),
     ("geometry.volume_sq.calls", "count"),
     ("geometry.cos_theta3_grid.busy_s", "s"),
     ("geometry.potentials.busy_s", "s"),
     ("semiclassics.pr_compare.busy_s", "s")]
    + [("exports.%s.busy_s" % w, "s") for w in WRITERS]
    + [("exports.bytes_written", "bytes")]
    + [("verify.%s.busy_s" % c, "s") for c in VERIFY_CHECKS]
    + [("verify.eigensolve.calls", "count"),
       ("ninej.ninej_exact.busy_s", "s"),
       ("ninej.ninej_exact.calls", "count"),
       ("cli.import_s", "s"),
       ("cli.compute.busy_s", "s"),
       ("cli.verify.busy_s", "s"),
       ("cli.ninej_check.busy_s", "s")])


class Tracer:
    """In-memory span recorder with wrappers installed by reference swap."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end)
        self._stack = []
        self._next = 0
        self._undo = []
        self.bytes_written = 0

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                return self.span(name, fn, *args, **kwargs)
            finally:
                if after is not None:
                    after(args, kwargs)
        return traced

    def _count_bytes(self, args, kwargs):
        path = kwargs.get("path", args[-1] if args else None)
        if isinstance(path, str) and os.path.exists(path):
            self.bytes_written += os.path.getsize(path)

    def install(self, package):
        """Wrap every target of the given spinscreen package."""
        import scipy.linalg
        importlib.import_module(package.__name__ + ".cli")
        modules = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith(package.__name__ + ".")]
        swaps = []
        for mod_name, attr, name in TARGETS:
            module = getattr(package, mod_name)
            if attr.startswith("Screen."):
                cls = module.Screen
                orig = cls.__dict__[attr.split(".")[1]]
                self._set(cls, attr.split(".")[1], self.wrap(name, orig))
            else:
                orig = getattr(module, attr)
                swaps.append((orig, self.wrap(name, orig)))
        for writer in WRITERS:
            orig = getattr(package.exports, writer)
            swaps.append((orig, self.wrap("exports." + writer, orig,
                                          after=self._count_bytes)))
        for key in VERIFY_CHECKS:
            orig = package.verify.CHECKS[key]
            swaps.append((orig, self.wrap("verify." + key, orig)))
        eigh = scipy.linalg.eigh_tridiagonal
        self._set(scipy.linalg, "eigh_tridiagonal",
                  self.wrap("recursion.eigh_tridiagonal", eigh))
        by_id = {id(orig): traced for orig, traced in swaps}
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._set(module, key, by_id[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in by_id:
                            self._set(value, k, by_id[id(v)])

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = value
        else:
            self._undo.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def uninstall(self):
        for container, key, orig in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write("%d,%d,%s,%.9f,%.9f\n" % (sid, parent, name, t0, t1))

    def layer_metrics(self, rounds, extra):
        """Per-round busy time and call counts by span name, the anchor's
        self time and the counts named in METRICS; recursion.rows_wrong
        comes from the checks, not from spans."""
        busy, child, calls, names = {}, {}, {}, {}
        for sid, parent, name, t0, t1 in self.spans:
            names[sid] = (parent, name)
            busy[name] = busy.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        eig = "recursion.screen_by_eigensolve"
        anchor = 0.0
        under_verify = 0
        for sid, parent, name, t0, t1 in self.spans:
            if name != eig:
                continue
            anchor += (t1 - t0) - child.get(sid, 0.0)
            while parent >= 0:
                parent, pname = names[parent]
                if pname.startswith("verify."):
                    under_verify += 1
                    break
        values = dict(extra)
        values["recursion.anchor_s"] = anchor / rounds
        values["verify.eigensolve.calls"] = under_verify // rounds
        values["exports.bytes_written"] = self.bytes_written // rounds
        for metric, _ in METRICS:
            name, _, kind = metric.rpartition(".")
            if kind == "busy_s":
                values[metric] = busy.get(name, 0.0) / rounds
            elif kind == "calls" and metric not in values:
                values[metric] = calls.get(name, 0) // rounds
        return values
