"""Per-layer tracing from outside the library.

Each traced public function is replaced, for the length of a traced pass,
by a wrapper that records calls, inclusive time and self time (inclusive
time minus the time of the traced calls nested inside it), plus a few
counts at the same boundaries.  The library does ``from .algebra import
...``, so a function is looked up through many module globals: the wrapper
is bound in every ``symquartic`` module whose globals hold the original
function, and on the class for ``AlgebraicField.sign_of_poly``.  No file of
the library changes.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

#: The traced functions, by layer (module).  Only the first six layers run
#: inside a decision; specht and identities serve golden examples, sampling
#: is replaced by the benchmark's own generators, and the cli is not used.
TRACED = {
    "positivity": (
        "is_nonneg",
        "is_nonneg_limit",
        "is_strictly_positive",
        "boundary_status_limit",
    ),
    "sos": (
        "sos_membership",
        "sos_membership_limit",
        "find_separating_functional",
        "expand_certificate",
    ),
    "dualcone": (
        "pair",
        "dual_membership",
        "point_eval_functional",
        "boundary_family_functional",
    ),
    "symfunc": ("phi_alpha_coeffs", "restrict_alpha"),
    "partitions": ("w_grid",),
    "algebra": (
        "disc_binary_quartic",
        "squarefree_part_field",
        "yun_decomposition",
        "isolate_real_roots",
        "refine_root_interval",
        "count_real_roots",
        "count_roots_open",
        "resultant",
        "irreducible_factors",
        "AlgebraicField.sign_of_poly",
        "binary_quartic_nonneg",
        "binary_quartic_strictly_positive",
        "binary_quartic_negative_point",
        "simplest_rational_between",
    ),
}

#: Decision entry points, whose inclusive time per call is also reported
#: (it is what the ad-hoc ms/call rows of the ROADMAP baseline measured).
ENTRY_POINTS = (
    "positivity.is_nonneg",
    "positivity.is_nonneg_limit",
    "positivity.is_strictly_positive",
    "positivity.boundary_status_limit",
    "sos.sos_membership",
    "sos.sos_membership_limit",
    "sos.find_separating_functional",
)


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.coeffs:
        bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Install with ``install()``; ``enabled`` pauses recording (the
    benchmark's own verification calls traced functions too)."""

    def __init__(self):
        self.enabled = True
        self.calls = {name: 0 for name in traced_names()}
        self.self_ns = dict.fromkeys(self.calls, 0)
        self.total_ns = dict.fromkeys(self.calls, 0)
        self.counts = {
            "algebra.isolate_real_roots.degree_max": 0,
            "algebra.isolate_real_roots.degree_sum": 0,
            "algebra.isolate_real_roots.coeff_bits_max": 0,
            "algebra.irreducible_factors.degree_sum": 0,
            "sos.find_separating_functional.found": 0,
        }
        self._stack: list[list[int]] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _probe_in(self, name: str, args) -> None:
        c = self.counts
        if name == "algebra.isolate_real_roots":
            deg = args[0].degree
            c["algebra.isolate_real_roots.degree_sum"] += deg
            if deg > c["algebra.isolate_real_roots.degree_max"]:
                c["algebra.isolate_real_roots.degree_max"] = deg
            bits = _coeff_bits(args[0])
            if bits > c["algebra.isolate_real_roots.coeff_bits_max"]:
                c["algebra.isolate_real_roots.coeff_bits_max"] = bits
        elif name == "algebra.irreducible_factors":
            c["algebra.irreducible_factors.degree_sum"] += args[0].degree

    def _wrap(self, name: str, fn):
        stack, calls, self_ns, total_ns = self._stack, self.calls, self.self_ns, self.total_ns
        probed = name in ("algebra.isolate_real_roots", "algebra.irreducible_factors")
        found = name == "sos.find_separating_functional"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if probed:
                # probe time is hidden from every span: it is charged to
                # the caller's children, not to the caller itself
                p0 = perf_counter_ns()
                self._probe_in(name, args)
                if stack:
                    stack[-1][0] += perf_counter_ns() - p0
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                calls[name] += 1
                self_ns[name] += dur - frame[0]
                total_ns[name] += dur
                if stack:
                    stack[-1][0] += dur
            if found and result is not None:
                self.counts["sos.find_separating_functional.found"] += 1
            return result

        return traced

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "symquartic" or key.startswith("symquartic."))
        ]
        for mod_name, fns in TRACED.items():
            module = importlib.import_module(f"symquartic.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[attr]
                    self._undo.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(name, orig))
                    continue
                orig = getattr(module, fn_name)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
