"""Spans around calls into hbvm's layers, attached from outside the program.

Hooks go through public names only:

- the module attributes ``hbvm.kernels.*`` (``wave_fd`` looks them up at
  each call) and ``hbvm.integrator.step`` (``integrate`` looks it up at each
  call) are replaced while a ``Tracer`` is attached;
- ``SkewStructure.apply`` is replaced on the class;
- the system's callables (separable ``accel``, ``make_preconditioner`` and
  the solve it returns, ``hamiltonian``, ``gradient``) are
  wrapped in a copy made with ``dataclasses.replace``.

Spans stay in memory as (name, start, end, parent, step) tuples; a span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from hbvm import integrator, kernels
from hbvm.systems import SkewStructure

KERNEL_SPANS = {
    "circulant_apply": "kernels.stencil",
    "circulant_apply_batch": "kernels.stencil",
    "tridiag_diff_apply": "kernels.stencil",
    "tridiag_diff_apply_batch": "kernels.stencil",
    "tridiag_solve_batch": "kernels.tridiag_solve",
}


def _stencil_mb(args, out):
    """Bytes a stencil call must at least move: its input and its output."""
    return 2.0 * out.nbytes / 1e6


class Tracer:
    """Collects spans of one traced integration."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.step = 0
        self.work = defaultdict(float)

    def wrap(self, name, fn, work=None):
        """fn with a span named name; work = (field, count) adds count(args, result) to work[name, field]."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            step = self.step
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, step)
            if work is not None:
                self.work[name, work[0]] += work[1](args, result)
            return result

        return traced

    @contextmanager
    def attached(self):
        """Replace the kernels, integrator.step and SkewStructure.apply while active."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for attr, name in KERNEL_SPANS.items():
            work = ("mb_computed", _stencil_mb) if name == "kernels.stencil" else None
            patch(kernels, attr, self.wrap(name, getattr(kernels, attr), work))
        traced_step = self.wrap("integrator.step", integrator.step)

        def step(*args, **kwargs):
            self.step += 1
            return traced_step(*args, **kwargs)

        patch(integrator, "step", step)
        patch(SkewStructure, "apply", self.wrap("systems.skew_apply", SkewStructure.apply))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def instrument(self, system, names, work=None):
        """Copy of system whose callables open spans named by role in names.

        work maps a role to the (field, count) pair passed on to wrap().
        """
        work = work or {}

        def wrap(role, fn):
            return self.wrap(names[role], fn, work.get(role))

        changes = {}
        if "energy" in names:
            changes["hamiltonian"] = wrap("energy", system.hamiltonian)
        if "gradient" in names:
            changes["gradient"] = wrap("gradient", system.gradient)
        sep = system.separable
        if sep is not None and "accel" in names:
            sep_changes = {"accel": wrap("accel", sep.accel)}
            if sep.make_preconditioner is not None and "precond_build" in names:
                build = wrap("precond_build", sep.make_preconditioner)
                sep_changes["make_preconditioner"] = lambda *a, **k: wrap("precond_solve", build(*a, **k))
            changes["separable"] = dataclasses.replace(sep, **sep_changes)
        return dataclasses.replace(system, **changes)


def summarize(spans):
    """(calls, self seconds) per span name."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - children[index]
    return calls, self_s
