"""In-memory spans around the public functions of each rmtorus layer.

The program is not edited: each listed function is replaced, at every module
attribute that holds it (for example both rmtorus.units.pi_index and
rmtorus.ecpoints.pi_index), by a wrapper that records a span.  Inner hot
calls such as elt_mul and mat_mul are left alone.  Spans are kept in a list
and written out after the run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# layer -> public functions that get a span
TRACED = {
    "cli": ("main", "build_parser"),
    "quadratic": ("cf_expand",),
    "units": ("fundamental_unit", "pi_index"),
    "intmat": ("mat_pow", "cokernel_group", "matrix_A"),
    "ecpoints": ("count_points", "is_prime", "fingerprint", "match_curve"),
    "skewlaurent": ("check_star_coherent", "skew_mul"),
    "freealg": ("star_defect",),
}


# span name -> (per-op metric, unit, size taken from (args, result))
SIZES = {
    "units.pi_index": ("units.pi_index.k_per_op", "count", lambda args, k: k),  # steps of the search
    "intmat.mat_pow": ("intmat.T_bits_per_op", "bits", lambda args, m: (m.a + m.d).bit_length()),
    "quadratic.cf_expand": ("quadratic.period_len_per_op", "count", lambda args, cf: len(cf.period)),
    "ecpoints.count_points": ("ecpoints.count_points.p_per_op", "count", lambda args, n: args[1]),
}


class Tracer:
    """Span recorder.  A span is [name, start_ns, end_ns, parent, request, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        size = SIZES[name][2] if name in SIZES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.request, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if size:
                    span[5] = size(args, result)
                return result
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Patches in place for the rest of the process."""
        modules = [m for n, m in list(sys.modules.items()) if n == "rmtorus" or n.startswith("rmtorus.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"rmtorus.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def begin_request(self, kind: str) -> int:
        self.request += 1
        self.spans.append([f"request.{kind}", perf_counter_ns(), 0, -1, self.request, 0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end_request(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = perf_counter_ns()

    def metrics(self, ops: int) -> dict[str, dict]:
        """calls_per_op, ms_per_call and self_share per traced function, plus
        the size counters per op.  ms_per_call is 0 for a function never called."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        request_ns = sum(s[2] - s[1] for s in self.spans if s[3] == -1)
        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        size: dict[str, int] = {}
        for i, (name, start, end, _, _, sz) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + end - start
            own[name] = own.get(name, 0) + end - start - child_ns[i]
            size[name] = size.get(name, 0) + sz
        out = {}
        for layer, names in TRACED.items():
            for fname in names:
                key = f"{layer}.{fname}"
                n = calls.get(key, 0)
                out[f"{key}.calls_per_op"] = {"value": n / ops, "unit": "calls"}
                out[f"{key}.ms_per_call"] = {"value": total.get(key, 0) / n / 1e6 if n else 0.0, "unit": "ms"}
                out[f"{key}.self_share"] = {"value": own.get(key, 0) / request_ns, "unit": "ratio"}
        for key, (metric, unit, _) in SIZES.items():
            out[metric] = {"value": size.get(key, 0) / ops, "unit": unit}
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, sz in self.spans:
                fh.write(
                    json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "request": request, "size": sz})
                    + "\n"
                )
