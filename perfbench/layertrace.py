"""Per-layer trace of dpsimplex, taken from outside the program.

``Tracer.install`` wraps the program's public functions (and its two private
post-run audits) by rebinding each one in every ``dpsimplex`` module that
holds it, so that, for instance, ``sparsify`` is traced when
``dpsimplex.solvers`` calls it and when ``dpsimplex.sco`` does. Classes get
their methods replaced. ``uninstall`` puts every original back.

Spans (name, start, end, parent) and counts stay in memory and are written
once, by ``write``. A span's self time is its duration minus the time its
child spans cover. Metric names and units are listed in ``METRICS``; every
time is a per-pass figure, and ``_us`` metrics are mean microseconds per call.
"""
from __future__ import annotations

import collections
import functools
import json
import sys
import time
import tracemalloc
from array import array

import numpy as np

import checks

SIMPLEX_FUNCS = ("to_point", "mwu_step", "sparsify", "sample_vertex", "running_average")

METRICS = {
    "oracles.batch_gradient_calls": "count",
    "oracles.batch_gradient_us": "us",
    "oracles.batch_gradient_mb": "MB_computed",
    "oracles.bias_reduced_calls": "count",
    "oracles.bias_reduced_us": "us",
    "oracles.bias_reduced_draws": "count",
    **{f"simplex.{f}_{kind}": unit for f in SIMPLEX_FUNCS
       for kind, unit in (("us", "us"), ("calls", "count"))},
    "simplex.point_checks": "count",
    "simplex.point_checks_per_step": "count/step",
    "simplex.vertex_draws": "count",
    "solvers.smd_vertex_self_s": "s",
    "solvers.smd_vertex_steps": "count",
    "solvers.bias_reduced_self_s": "s",
    "solvers.bias_reduced_steps": "count",
    "solvers.boosted_self_s": "s",
    "solvers.score_candidates_s": "s",
    "sco.solve_calls": "count",
    "sco.steps": "count",
    "sco.self_s": "s",
    "sco.refreshes_per_step": "ratio",
    "privacy.plan_calls": "count",
    "privacy.plan_s": "s",
    "privacy.audit_s": "s",
    "privacy.exp_mech_s": "s",
    "rng.child_calls": "count",
    "rng.child_s": "s",
    "problems.exact_gap_s": "s",
    "problems.sample_dataset_s": "s",
    "problems.synth_self_s": "s",
    "cli.load_s": "s",
    "cli.self_s": "s",
    **{f"verify.{suite}_{kind}": unit for suite in checks.SUITES
       for kind, unit in (("s", "s"), ("peak_mb", "MB"))},
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def gradient_bytes(obj, batch) -> int:
    """Bytes one ``batch_gradient`` call reads and writes, computed from array sizes.

    Bilinear: per block ``z*E`` (read E, write tmp), ``A + tmp`` (read two,
    write one) and the mat-vec read, i.e. 6 matrix sizes, twice. Query
    matching: ``Q^T y``, the gathered ``Q[:, batch]`` (write, read, reduce) and
    ``Q x``. Other objectives count 0.
    """
    from dpsimplex.problems import BilinearObjective, SynthDataObjective

    b = len(batch)
    if isinstance(obj, BilinearObjective):
        return 12 * obj.A.nbytes + 2 * 8 * b
    if isinstance(obj, SynthDataObjective):
        return 2 * obj.Q.nbytes + 3 * 8 * obj.Q.shape[0] * b + 8 * b
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.peaks: dict[str, int] = {}
        self._undo: list[tuple] = []

    # ---- spans -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _timed(self, nid: int, fn, args, kwargs):
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0)
        self._stack.append(i)
        self._start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[i] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._timed(self._id(name), fn, args, kwargs)

    def _span(self, name: str, fn, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._timed(nid, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, key: str, fn, amount):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += amount(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _suite(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            suite = _arg(args, kwargs, 0, "name")
            tracemalloc.start()
            try:
                result = self._timed(self._id(f"verify.{suite}"), fn, args, kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peaks[suite] = max(self.peaks.get(suite, 0), peak)
            return result

        return wrapper

    # ---- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        mods = [m for n, m in sys.modules.items() if n == "dpsimplex" or n.startswith("dpsimplex.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _patch(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from dpsimplex import cli, oracles, privacy, problems, rng, sco, simplex, solvers, verify

        counts = self.counts

        def add(key, amount):
            def hook(args, kwargs, result):
                counts[key] += amount(args, kwargs, result)
            return hook

        spans = [
            (oracles.batch_gradient, "oracles.batch_gradient",
             add("oracles.batch_gradient_bytes",
                 lambda a, k, r: gradient_bytes(a[0], _arg(a, k, 3, "batch")))),
            (oracles.bias_reduced_gradient, "oracles.bias_reduced_gradient",
             add("oracles.bias_reduced_draws", lambda a, k, r: 4 * 2 ** _arg(a, k, 3, "N"))),
            *((getattr(simplex, f), f"simplex.{f}", None) for f in SIMPLEX_FUNCS),
            (solvers.solve_smd_vertex, "solvers.smd_vertex",
             add("solvers.smd_vertex_steps", lambda a, k, r: r.steps_run)),
            (solvers.solve_smd_bias_reduced, "solvers.bias_reduced",
             add("solvers.bias_reduced_steps", lambda a, k, r: r[0].steps_run)),
            (solvers.solve_boosted, "solvers.boosted", None),
            (solvers.score_candidate_pairs, "solvers.score_candidates", None),
            (sco.solve_dp_sco, "sco.solve", self._sco_hook),
            (privacy.plan_vertex_smd, "privacy.plan.vertex_smd", None),
            (privacy.plan_bias_reduced, "privacy.plan.bias_reduced", None),
            (privacy.plan_anytime_sco, "privacy.plan.anytime_sco", None),
            (privacy.exp_mech_sample, "privacy.exp_mech", None),
            (privacy.max_step_vertex_smd, "privacy.audit.max_step_vertex_smd", None),
            (solvers._audit_bias_reduced, "privacy.audit.bias_reduced", None),
            (sco._audit_refreshes, "privacy.audit.sco_refreshes", None),
            (problems.exact_gap_bilinear, "problems.exact_gap", None),
            (problems.synth_data_generate, "problems.synth", None),
            (cli.load_config, "cli.load", None),
            (cli.load_payoff, "cli.load", None),
            (cli.load_categories, "cli.load", None),
        ]
        for fn, name, after in spans:
            self._rebind(fn, self._span(name, fn, after))
        self._rebind(
            simplex.sample_vertex_indices,
            self._counter("simplex.vertex_draws", simplex.sample_vertex_indices,
                          lambda a, k: _arg(a, k, 1, "k")),
        )
        self._rebind(verify.verify_maurey_suite, self._suite(verify.verify_maurey_suite))
        for cls in (privacy.SsmdPlan, privacy.BrPlan, privacy.ScoPlan):
            self._patch(cls, "validate", self._span("privacy.audit.validate", cls.validate))
        self._patch(rng.RngStream, "child", self._span("rng.child", rng.RngStream.child))
        for cls in (problems.MatrixGame, problems.SeparableQuadratic):
            self._patch(cls, "sample_dataset",
                        self._span("problems.sample_dataset", cls.sample_dataset))
        self._patch(
            simplex.SimplexPoint, "__post_init__",
            self._counter("simplex.point_checks", simplex.SimplexPoint.__post_init__,
                          lambda a, k: 1),
        )

    def _sco_hook(self, args, kwargs, result) -> None:
        self.counts["sco.steps"] += _arg(args, kwargs, 2, "plan").T
        self.counts["sco.refreshes"] += result.refresh_count

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # ---- results -------------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, dtype=np.int64)
                for a in (self._name, self._start, self._end, self._parent))

    def metrics(self, passes: int) -> dict:
        """Per-pass layer metrics over ``passes`` traced passes: name -> (value, unit)."""
        name, start, end, parent = self._arrays()
        n, k = name.size, len(self.names)
        dur = (end - start) / 1e9
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        calls_by = np.bincount(name, minlength=k)
        total_by = np.bincount(name, weights=dur, minlength=k)
        self_by = np.bincount(name, weights=self_t, minlength=k)

        def lookup(table, key):
            return float(table[self._ids[key]]) if key in self._ids else 0.0

        def calls(key):
            return lookup(calls_by, key) / passes

        def total(key):
            return lookup(total_by, key) / passes

        def own(key):
            return lookup(self_by, key) / passes

        def per_call_us(key):
            c = lookup(calls_by, key)
            return lookup(total_by, key) / c * 1e6 if c else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        c = {key: v / passes for key, v in self.counts.items()}
        steps = (c.get("solvers.smd_vertex_steps", 0.0) + c.get("solvers.bias_reduced_steps", 0.0)
                 + c.get("sco.steps", 0.0))
        values = {
            "oracles.batch_gradient_calls": calls("oracles.batch_gradient"),
            "oracles.batch_gradient_us": per_call_us("oracles.batch_gradient"),
            "oracles.batch_gradient_mb": ratio(c.get("oracles.batch_gradient_bytes", 0.0),
                                               calls("oracles.batch_gradient")) / 1e6,
            "oracles.bias_reduced_calls": calls("oracles.bias_reduced_gradient"),
            "oracles.bias_reduced_us": per_call_us("oracles.bias_reduced_gradient"),
            "oracles.bias_reduced_draws": c.get("oracles.bias_reduced_draws", 0.0),
            "simplex.point_checks": c.get("simplex.point_checks", 0.0),
            "simplex.point_checks_per_step": ratio(c.get("simplex.point_checks", 0.0), steps),
            "simplex.vertex_draws": c.get("simplex.vertex_draws", 0.0),
            "solvers.smd_vertex_self_s": own("solvers.smd_vertex"),
            "solvers.smd_vertex_steps": c.get("solvers.smd_vertex_steps", 0.0),
            "solvers.bias_reduced_self_s": own("solvers.bias_reduced"),
            "solvers.bias_reduced_steps": c.get("solvers.bias_reduced_steps", 0.0),
            "solvers.boosted_self_s": own("solvers.boosted"),
            "solvers.score_candidates_s": total("solvers.score_candidates"),
            "sco.solve_calls": calls("sco.solve"),
            "sco.steps": c.get("sco.steps", 0.0),
            "sco.self_s": own("sco.solve"),
            "sco.refreshes_per_step": ratio(c.get("sco.refreshes", 0.0), c.get("sco.steps", 0.0)),
            "privacy.plan_calls": sum(calls(key) for key in self._ids
                                      if key.startswith("privacy.plan.")),
            "privacy.plan_s": sum(total(key) for key in self._ids
                                  if key.startswith("privacy.plan.")),
            "privacy.audit_s": self._top_level_audit_s(name, parent, dur) / passes,
            "privacy.exp_mech_s": total("privacy.exp_mech"),
            "rng.child_calls": calls("rng.child"),
            "rng.child_s": total("rng.child"),
            "problems.exact_gap_s": total("problems.exact_gap"),
            "problems.sample_dataset_s": total("problems.sample_dataset"),
            "problems.synth_self_s": own("problems.synth"),
            "cli.load_s": total("cli.load"),
            "cli.self_s": own("cli.main"),
        }
        for f in SIMPLEX_FUNCS:
            values[f"simplex.{f}_us"] = per_call_us(f"simplex.{f}")
            values[f"simplex.{f}_calls"] = calls(f"simplex.{f}")
        for suite in checks.SUITES:
            values[f"verify.{suite}_s"] = total(f"verify.{suite}")
            values[f"verify.{suite}_peak_mb"] = self.peaks.get(suite, 0) / 2**20
        return {key: (values[key], METRICS[key]) for key in METRICS if key in values}

    def _top_level_audit_s(self, name, parent, dur) -> float:
        """Time in post-run privacy audits not already inside a planner or another audit."""
        privacy_ids = {i for key, i in self._ids.items()
                       if key.startswith(("privacy.plan.", "privacy.audit."))}
        audit_ids = [i for key, i in self._ids.items() if key.startswith("privacy.audit.")]
        seconds = 0.0
        for i in np.flatnonzero(np.isin(name, audit_ids)):
            j = parent[i]
            while j >= 0 and name[j] not in privacy_ids:
                j = parent[j]
            if j < 0:
                seconds += dur[i]
        return seconds

    def write(self, path) -> None:
        """Write every span and count kept in memory to one ``.npz`` file."""
        name, start, end, parent = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start_ns=start, end_ns=end,
            parent=parent, counts=np.array(json.dumps(dict(self.counts))),
        )
