"""Span tracing of excursion_kit from outside the package.

``Tracer.install`` replaces public functions of the ``cli``, ``mec``,
``quad``, ``gauss``, ``field`` and ``mc`` modules with timing wrappers at
every module attribute that binds them, so ``mec``'s own
``from .quad import integrate_cone`` sees the wrapper too.  The integrand
callbacks that ``quad`` receives from ``mec`` are wrapped per call, so they
count as child spans of the quadrature that evaluates them.

Spans stay in memory as tuples (name, parent, request, start, end, nodes)
and are written out only by ``write_spans`` when the run ends.  A span's
self time is its duration minus the durations of its direct children.
The span stack is shared by all threads, so trace only ``threads=1`` runs.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import time
from collections import defaultdict


def _points_of(arr) -> int:
    """Number of points in a (..., N) array of coordinates."""
    shape = getattr(arr, "shape", ())
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.request = 0
        self.counts: dict[str, int] = defaultdict(int)

    def _wrap(self, name, fn, nodes=None, before=None):
        """Wrap fn in a span.

        ``before(args, kwargs)`` may return rewritten arguments;
        ``nodes(args, kwargs)`` gives the number of points the call evaluates.
        """
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                n = nodes(args, kwargs) if nodes is not None else 0
                spans[idx] = (name, parent, self.request, t0, t1, n)

        return traced

    def _integrand(self, name, fn, order):
        """Wrap a quadrature integrand; each call evaluates whole boxes."""
        counts = self.counts

        def nodes(args, kwargs):
            m, dim = args[0].shape
            counts["quad.boxes"] += m // order**dim
            return m

        return self._wrap(name, fn, nodes=nodes)

    def install(self) -> None:
        from excursion_kit import cli, field, gauss, mc, mec, quad

        modules = [cli, field, gauss, mc, mec, quad]
        counts = self.counts

        def integrand_arg(arg, name):
            def make_before(orig):
                sig = inspect.signature(orig)

                def before(args, kwargs):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    order = bound.arguments["spec"].order_per_axis
                    bound.arguments[arg] = self._integrand(name, bound.arguments[arg], order)
                    return bound.args, bound.kwargs

                return before

            return make_before

        def mc_counts(orig):
            # grid values, GEMM flops and bytes written, computed from sizes
            sig = inspect.signature(orig)

            def before(args, kwargs):
                a = sig.bind(*args, **kwargs).arguments
                grid = a["grid"]
                if not isinstance(grid, mc.GridSpec):
                    grid = mc.GridSpec(a["domain"], grid)
                evals = int(a["reps"]) * grid.n_points
                counts["mc.grid_evals"] += evals
                counts["mc.gemm_flops"] += 2 * (1 + 2 * a["model"].n_atoms) * evals
                counts["mc.bytes_written"] += 8 * evals
                return args, kwargs

            return before

        functions = [
            (cli, "main", "cli.main", None),
            (cli, "cmd_compute", "cli.compute", None),
            (cli, "cmd_mc", "cli.mc", None),
            (mec, "excursion_prob_mu", "mec.excursion_prob_mu", None),
            (mec, "mean_euler_characteristic", "mec.mean_euler_characteristic", None),
            (mec, "laplace_mec_result", "mec.laplace_mec_result", None),
            (mec, "prepare_laplace_inputs", "mec.prepare_laplace_inputs", None),
            (quad, "integrate_face", "quad.integrate_face", integrand_arg("f", "mec.face_integrand")),
            (quad, "integrate_cone", "quad.integrate_cone", integrand_arg("h", "mec.cone_integrand")),
            (gauss, "hermite", "gauss.hermite", None),
            (gauss, "mvn_prob", "gauss.mvn_prob", None),
            (gauss, "gauss_tail", "gauss.gauss_tail", None),
            (mc, "empirical_sup_prob", "mc.empirical_sup_prob", mc_counts),
            (mc, "mc_mean_ec", "mc.mc_mean_ec", mc_counts),
        ]
        for home, attr, name, make_before in functions:
            orig = getattr(home, attr)
            before = make_before(orig) if make_before else None
            wrapped = self._wrap(name, orig, before=before)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

        # field methods are looked up on the model instance, so wrap the class
        def field_nodes(args, kwargs):
            return _points_of(args[1] if len(args) > 1 else kwargs["t"])

        for attr in ("variance", "grad_variance", "lambda_at"):
            orig = getattr(field.FieldModel, attr)
            setattr(field.FieldModel, attr, self._wrap(f"field.{attr}", orig, nodes=field_nodes))

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, nodes; plus counts."""
        child = [0.0] * len(self.spans)
        for _name, parent, _req, t0, t1, _n in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, _parent, _req, t0, t1, n) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "nodes": 0})
            row["calls"] += 1
            row["incl_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
            row["nodes"] += n
        return {"spans": out, "counts": dict(self.counts)}

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV; times are seconds from the first span."""
        base = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,parent,request,start_s,end_s,nodes\n")
            for i, (name, parent, req, t0, t1, n) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{req},{t0 - base:.9f},{t1 - base:.9f},{n}\n")
