"""Outside-in tracer: times the library's public functions by wrapping them.

Nothing in the library changes. ``Tracer.install`` replaces every public
module-level function of the traced modules with a timing wrapper, at every
module attribute through which the package calls it (``expansions.Bhat2k``
and ``coefficients.Bhat2k`` get the same wrapper), and ``uninstall`` puts
the originals back. ``_``-private helpers stay unwrapped, so their time is
self time of the public function that called them.

Spans (name, start, end, parent, op id) are kept in flat in-memory columns
and written out once, when the run ends. Branch counts are read only from
arguments and return values, never from library internals.
"""

from __future__ import annotations

import gzip
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# the layers, by module, in the order the package imports them
LAYERS = ("numerics", "oracle", "coefficients", "expansions", "cli")


def _is_public_function(module, name, obj):
    if name.startswith("_"):
        return False
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", None) == module.__name__


class Tracer:
    """Collects spans and argument-derived counters for one traced run."""

    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.names = []  # span name per name id
        self.span_name = []
        self.span_op = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.stack = []
        self.op = -1
        self.counters = Counter()
        self.errors = Counter()
        self.originals = {}
        self._patched = []
        self._phi_switch = self.modules["coefficients"].PHI_SWITCH
        self._pre = {
            "numerics.integrate_semi_infinite": self._count_integrand,
        }
        self._post = {
            "coefficients.B2k": self._b2k_branch,
            "oracle.remainder_exact": self._remainder_route,
            "numerics.upper_incomplete_gamma_half_ladder": self._ladder_steps,
            "expansions.algebraic_partial_sums": self._partial_sum_terms,
        }

    # -- installation -------------------------------------------------------

    def install(self):
        targets = [self.package] + list(self.modules.values())
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if not _is_public_function(module, name, obj):
                    continue
                span = "%s.%s" % (layer, name)
                self.originals[span] = obj
                wrapper = self._wrap(obj, span)
                for target in targets:
                    if vars(target).get(name) is obj:
                        setattr(target, name, wrapper)
                        self._patched.append((target, name, obj))

    def uninstall(self):
        for target, name, obj in reversed(self._patched):
            setattr(target, name, obj)
        self._patched.clear()

    def _wrap(self, fn, span):
        name_id = len(self.names)
        self.names.append(span)
        pre = self._pre.get(span)
        post = self._post.get(span)
        names, ops, parents = self.span_name, self.span_op, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        errors = self.errors

        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            idx = len(names)
            names.append(name_id)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[(span, type(exc).__name__)] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    # -- counters read from arguments and return values ---------------------

    def _count_integrand(self, args, kwargs):
        f = args[0]
        counters = self.counters

        def counted(*a):
            counters["numerics.integrate_semi_infinite.integrand_evals"] += 1
            return f(*a)

        return (counted,) + tuple(args[1:]), kwargs

    def _b2k_branch(self, args, kwargs, result):
        phi = args[0] if args else kwargs["phi"]
        if phi == 0:
            self.counters["coefficients.B2k.limit_calls"] += 1
        elif phi < self._phi_switch:
            self.counters["coefficients.B2k.widened_calls"] += 1

    def _remainder_route(self, args, kwargs, result):
        self.counters["oracle.remainder_exact.method." + result.method] += 1

    def _ladder_steps(self, args, kwargs, result):
        m_max = args[0] if args else kwargs["m_max"]
        self.counters["numerics.upper_incomplete_gamma_half_ladder.steps"] += m_max

    def _partial_sum_terms(self, args, kwargs, result):
        m = args[1] if len(args) > 1 else kwargs["m"]
        self.counters["expansions.algebraic_partial_sums.terms"] += m

    # -- summaries ----------------------------------------------------------

    def function_stats(self, ops=None):
        """Per span name: (calls, total seconds, self seconds), over the
        spans whose op id satisfies ``ops`` (all spans when None)."""
        child = defaultdict(float)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for idx, name_id in enumerate(self.span_name):
            if ops is not None and not ops(self.span_op[idx]):
                continue
            name = self.names[name_id]
            dur = self.span_end[idx] - self.span_start[idx]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[idx]
        return {n: (calls[n], total[n], own[n]) for n in calls}

    def write_spans(self, path):
        """Write every span as gzipped CSV: span id, op id, name, start and
        end in seconds from the first span, parent span id (-1 for none)."""
        t_base = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,name,start_s,end_s,parent\n")
            for idx, name_id in enumerate(self.span_name):
                fh.write("%d,%d,%s,%.9f,%.9f,%d\n" % (
                    idx, self.span_op[idx], self.names[name_id],
                    self.span_start[idx] - t_base, self.span_end[idx] - t_base,
                    self.span_parent[idx],
                ))
