"""Spans around the calls into each cpulse module's public functions.

The tracer replaces each traced function in every module namespace that
holds it: cli, design and analysis import rotation, compile_sequence,
infidelity and others by name, so a call through an unwrapped import would
escape the trace.  Each call records one span (name, start, end, parent span,
job id) in flat in-memory arrays, written out once at the end; calls, total
time, self time (total minus child spans) and work counts are accumulated as
the spans close.
"""

import sys
from array import array
from time import perf_counter

import numpy as np


# "<module>.<function>": {counter name: f(args, result, exc) -> amount}
TRACED = {
    "su2.rotation": {},
    "su2.su2_parts": {},
    "pulses.compile_sequence": {"pulses": lambda a, r, e: len(a[0])},
    "pulses.embed_target": {},
    "pulses.parse_sequence": {},
    "pulses.sequence_from_json": {},
    "analysis.sweep": {"points": lambda a, r, e: 0 if r is None else r.epsilons.size},
    "analysis.infidelity": {},
    "analysis.fidelity": {},
    "analysis.fit_error_scaling": {},
    "analysis.fit_scaling": {
        "window_errors": lambda a, r, e: type(e).__name__ == "FitWindowError"},
    "analysis.crossover": {},
    "design.design_five_pulse": {"branches": lambda a, r, e: 0 if r is None else len(r)},
    "design.design_wm": {},
    "design.design_wn": {},
    "design.identity_residual": {},
    "design.derivative_residual": {},
    "design.error_derivative": {},
    "bch.p_epsilon": {},
    "bch.sixth_order_coefficient": {},
    "bch.analytic_c": {},
    "cli.main": {"exit_nonzero": lambda a, r, e: e is not None or r != 0},
}
STATS = ("calls", "total_s", "self_s")


class Tracer:
    """Install with `with Tracer() as t:`; set t.job_id before each job."""

    def __init__(self):
        self.names = list(TRACED)
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.job = array("i"), array("i"), array("i")
        self.stack = [-1]
        self.child = [0.0]
        self.job_id = -1
        self.totals = {n: dict.fromkeys(STATS + tuple(TRACED[n]), 0.0) for n in self.names}
        self._patched = []

    def _wrap(self, key, fn):
        nid = self.names.index(key)
        tot = self.totals[key]
        counters = list(TRACED[key].items())
        start, end, name, parent, job = self.start, self.end, self.name, self.parent, self.job
        stack, child = self.stack, self.child

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1])
            job.append(self.job_id)
            stack.append(idx)
            child.append(0.0)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                inner = child.pop()
                start[idx] = t0
                end[idx] = t1
                child[-1] += t1 - t0
                tot["calls"] += 1
                tot["total_s"] += t1 - t0
                tot["self_s"] += t1 - t0 - inner
                for cname, count in counters:
                    tot[cname] += count(args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        import cpulse.cli  # noqa: F401  (every traced module is loaded)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "cpulse" or n.startswith("cpulse.")
                                         or n == "quickstart")]
        for key in self.names:
            modname, fname = key.split(".")
            fn = getattr(sys.modules["cpulse." + modname], fname)
            wrapper = self._wrap(key, fn)
            for m in modules:
                if getattr(m, fname, None) is fn:
                    setattr(m, fname, wrapper)
                    self._patched.append((m, fname, fn))
        return self

    def __exit__(self, *exc):
        for m, fname, fn in reversed(self._patched):
            setattr(m, fname, fn)
        self._patched.clear()

    def metrics(self):
        """{'<module>.<function>.<stat>': value} for every traced function."""
        return {f"{key}.{stat}": value for key, tot in self.totals.items()
                for stat, value in tot.items()}

    def save(self, path):
        np.savez(path, names=np.array(self.names), start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32))


def exact_count_selfcheck():
    """A library sweep of a BB1 corrector over 10 errors must record exactly
    10 compile_sequence calls and 41 rotation calls (4 pulses each, plus the
    ideal target).  Returns a list of problems."""
    import cpulse

    target = cpulse.TargetRotation(np.pi, np.pi)
    bb1 = cpulse.design_wm(1, target)
    with Tracer() as t:
        cpulse.sweep(bb1.sequence, target, np.linspace(0.0, 0.1, 10))
    m = t.metrics()
    want = {"pulses.compile_sequence.calls": 10, "su2.rotation.calls": 41,
            "analysis.sweep.calls": 1, "analysis.sweep.points": 10,
            "pulses.compile_sequence.pulses": 40}
    problems = [f"{k}: {m[k]:g} recorded, {v} expected" for k, v in want.items() if m[k] != v]
    if len(t.start) != sum(m[f"{k}.calls"] for k in TRACED):
        problems.append("span count differs from the call count")
    if hasattr(cpulse.sweep, "__wrapped__") or hasattr(cpulse.pulses.rotation, "__wrapped__"):
        problems.append("tracer did not restore the original functions")
    return problems
