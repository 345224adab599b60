"""Query sets of the workloads and exact verification of every answer.

A form operation runs one form through its workload's query set; the
answers are checked afterwards, outside the timed region, with exact
arithmetic only:

* an SOS-IN certificate must be valid and re-expand to the input form;
* a nonneg-OUT witness must evaluate strictly negative;
* a separator must pair negatively with the form and lie in the dual cone;
* the answers must respect the relations between the cones.

Library functions are always looked up as module attributes at call time,
so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass, field
from fractions import Fraction

import symquartic.dualcone as dualcone
import symquartic.positivity as positivity
import symquartic.sos as sos
import symquartic.symfunc as symfunc

#: Wall-clock limit of one library call, far above the slowest call of any
#: workload (about 4.5 s); an overrun counts as a failed operation.
CALL_DEADLINE_S = 30.0


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"call exceeded {CALL_DEADLINE_S} s")


def arm_deadlines() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def _call(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, CALL_DEADLINE_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Record:
    """Answers of one form operation."""

    item: object
    form: object
    nonneg: object = None
    sos: object = None
    boundary: object = None
    separator: object = None
    strictly_positive: bool | None = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    def statuses(self) -> tuple:
        """The decision statuses only (not which separator was found)."""
        out = []
        for v in (self.nonneg, self.sos, self.boundary):
            if v is not None:
                out.append(v.status)
        if self.strictly_positive is not None:
            out.append("POS" if self.strictly_positive else "NOTPOS")
        if self.error is not None:
            out.append("ERROR")
        return tuple(out)

    def evidence(self) -> tuple:
        """Witnesses, certificates and separators, for the information
        digest."""
        out = []
        if self.nonneg is not None:
            out.append(self.nonneg.witness)
        if self.sos is not None:
            cert = self.sos.certificate
            out.append(None if cert is None else (cert.A, cert.B, cert.gamma))
            out.append(self.sos.note)
        if self.boundary is not None:
            out.append(self.boundary.alpha_witness)
        if self.separator is not None:
            out.append(self.separator.as_tuple())
        return tuple(out)


def make_form(item, scale: int = 1):
    scope = symfunc.LIMIT if item.n is None else item.n
    return symfunc.SymFormP(4, tuple(scale * c for c in item.coeffs), scope)


def run(workload: str, item, scale: int = 1) -> Record:
    """One form operation: the workload's full query set on one form,
    multiplied by a positive integer (which leaves every verdict alone)."""
    f = make_form(item, scale)
    rec = Record(item, f)
    try:
        if workload == "limit_sweep":
            rec.nonneg = _call(positivity.is_nonneg_limit, f)
            rec.sos = _call(sos.sos_membership_limit, f)
            if not f.is_zero():
                rec.boundary = _call(positivity.boundary_status_limit, f)
        elif workload == "finite_scan":
            rec.nonneg = _call(positivity.is_nonneg, f)
            rec.sos = _call(sos.sos_membership, f)
            if rec.sos.status == "OUT":
                rec.separator = _call(sos.find_separating_functional, f)
        else:
            rec.nonneg = _call(positivity.is_nonneg, f)
            rec.strictly_positive = _call(positivity.is_strictly_positive, f)
    except Exception as exc:  # every failure of the library is counted
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _quartic_at(h, x, y) -> Fraction:
    return sum((c * x ** (4 - i) * y**i for i, c in enumerate(h)), Fraction(0))


def _witness_negative(f, witness) -> bool:
    (w1, w2), (x, y) = witness
    if f.scope is symfunc.LIMIT:
        return w1 + w2 == 1 and _quartic_at(symfunc.restrict_alpha(f, w1), x, y) < 0
    k = w1 * f.scope
    if k.denominator != 1 or w1 + w2 != 1:
        return False
    k = int(k)
    point = (x,) * k + (y,) * (f.scope - k)
    return symfunc.evaluate(f, point) < 0


def verify(rec: Record) -> list[str]:
    """Exact checks of one operation's answers; returns the problems."""
    if rec.error is not None:
        return [rec.error]
    f, out = rec.form, []
    if rec.nonneg.status == "OUT" and not _witness_negative(f, rec.nonneg.witness):
        out.append("nonneg OUT witness is not negative")
    if rec.sos is not None and rec.sos.status == "IN":
        cert = rec.sos.certificate
        if cert is None:
            if rec.sos.note is None:
                out.append("SOS IN without certificate or note")
        elif not cert.is_valid() or sos.expand_certificate(cert) != f:
            out.append("SOS certificate does not re-expand to the form")
        if rec.nonneg.status != "IN":
            out.append("SOS IN but nonneg OUT")
    if rec.separator is not None:
        ell = rec.separator
        if not (dualcone.pair(ell, f) < 0 and dualcone.dual_membership(ell, f.scope)):
            out.append("separator does not separate")
    if f.scope is symfunc.LIMIT and rec.sos.status != rec.nonneg.status:
        out.append("limit SOS and limit nonneg verdicts differ")
    if rec.boundary is not None and (rec.boundary.status == "OUTSIDE") != (
        rec.nonneg.status == "OUT"
    ):
        out.append("boundary OUTSIDE does not match nonneg OUT")
    if rec.strictly_positive and rec.nonneg.status != "IN":
        out.append("strictly positive but nonneg OUT")
    return out


def verify_groups(records: list[Record]) -> None:
    """Downward closure from n = 8 to n = 4 within each finite_scan group:
    f >= 0 on 8 variables gives f >= 0 on 4 (double every coordinate), and
    likewise for SOS.  A violation is charged to the n = 4 operation."""
    by_n = {}
    for rec in records:
        if rec.error is None and rec.item.n in (4, 8) and rec.item.group >= 0:
            by_n[(rec.item.group, rec.item.n)] = rec
    for (g, n), r8 in by_n.items():
        r4 = by_n.get((g, 4))
        if n != 8 or r4 is None:
            continue
        if r8.nonneg.status == "IN" and r4.nonneg.status != "IN":
            r4.problems.append("nonneg at n=8 but not at n=4")
        if r8.sos.status == "IN" and r4.sos.status != "IN":
            r4.problems.append("SOS at n=8 but not at n=4")
