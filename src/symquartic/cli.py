"""Command-line front end.

Subcommands:

* ``check (nonneg|sos) (--n N | --limit) FILE`` — cone membership with
  exact witnesses/certificates; exit 0 = IN, 1 = OUT, 2 = usage error.
* ``repro NAME`` — golden regression runs (``choi-lam``, ``example-6-10``,
  ``disc-factorization``, ``q-blocks``, ``limit-equality``).
* ``convert --to (p|m) [--n N | --limit] FILE`` — exact basis conversion,
  FormFile JSON on stdout.
* ``plotdata --what (disc|minval) --samples N [--decimal] FILE`` — sampled
  values of the alpha-discriminant or of certified minima of
  Phi^alpha(x, 1) over alpha in [0, 1].

Form files are JSON documents with fields ``degree``, ``basis``
("p" | "m" | "monomial"), optional ``scope`` (integer or "limit"),
optional ``description``, and either ``coefficients`` (partition string
-> exact rational string, parts comma-joined in decreasing order) or
``monomials`` (list of {"exponents": [...], "coefficient": "..."}).
Unknown fields are rejected; the Unicode minus sign is accepted in
rational strings, and a rational whose numerator or denominator could
exceed ``MAX_LITERAL_BITS`` is refused (exit 2).  All verdict output is
exact; decimals appear only in plot data under ``--decimal``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import log2

from .algebra import MultiPoly, UniPoly, binary_quartic_nonneg, disc_binary_quartic
from .dualcone import (
    DualFunctional,
    boundary_family_functional,
    dual_blocks,
    dual_membership,
    pair,
)
from .identities import (
    BoundaryParams,
    boundary_family_form,
    disc_poly,
    verify_disc_factorization,
)
from .partitions import partitions_of
from .positivity import boundary_status_limit, is_nonneg, is_nonneg_limit
from .sos import (
    expand_certificate,
    find_separating_functional,
    sos_boundary,
    sos_membership,
    sos_membership_limit,
)
from .specht import Tableau, brute_symmetrize, q_blocks, specht_polynomial
from .symfunc import (
    LIMIT,
    NoLimitError,
    SymFormP,
    SymFuncM,
    evaluate,
    form_from_dict,
    m_to_p,
    p_to_m,
    phi_alpha_coeffs,
    restrict_alpha,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FormFileError(ValueError):
    """Malformed form file (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# rational parsing / formatting
# ---------------------------------------------------------------------------


#: Largest bit length of the numerator or the denominator of a rational
#: literal; a longer one is refused before it is built, so that a literal
#: such as "1e1000000" costs no time or memory.
MAX_LITERAL_BITS = 4096
_DECIMAL = re.compile(r"[-+]?([0-9_]*)(?:\.([0-9_]*))?(?:[eE]([-+]?[0-9_]+))?")


def _literal_bits(text: str) -> float:
    """An upper bound on the bit lengths of the numerator and denominator
    of ``Fraction(text)``, from the digits of the literal: of each side of
    a ``p/q``, or of a decimal plus the size of its exponent."""
    if "/" in text:
        digits = max(len(side) for side in text.split("/"))
    else:
        match = _DECIMAL.fullmatch(text)
        if match is None:
            return 0.0  # not a literal Fraction accepts
        whole, frac, exponent = match.groups()
        digits = len(whole) + len(frac or "")
        if exponent is not None:
            if len(exponent) > 12:
                return float("inf")
            digits += abs(int(exponent.replace("_", "")))
    return digits * log2(10)


def parse_rational(text) -> Fraction:
    if isinstance(text, int):
        if text.bit_length() > MAX_LITERAL_BITS:
            raise FormFileError(f"integer literal longer than {MAX_LITERAL_BITS} bits")
        return Fraction(text)
    if not isinstance(text, str):
        raise FormFileError(f"rational value must be a string, got {text!r}")
    cleaned = text.strip().replace("−", "-")
    if _literal_bits(cleaned) > MAX_LITERAL_BITS:
        raise FormFileError(
            f"rational literal {cleaned[:40]!r} may exceed {MAX_LITERAL_BITS} bits"
        )
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormFileError(f"cannot parse rational {text!r}: {exc}") from exc


def fmt(q: Fraction) -> str:
    return str(Fraction(q))


def fmt_decimal(q: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 15
        return str(Decimal(q.numerator) / Decimal(q.denominator))


# ---------------------------------------------------------------------------
# form files
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {"description", "degree", "basis", "scope", "coefficients", "monomials"}


@dataclass(frozen=True)
class FormFile:
    degree: int
    basis: str  # "p" | "m" | "monomial"
    scope: object  # int | LIMIT | None
    coefficients: dict | None  # partition tuple -> Fraction
    monomials: tuple | None  # ((exponents, coefficient), ...)
    description: str | None


def _parse_partition_key(key: str, degree: int):
    if key == "":
        parts = ()
    else:
        try:
            parts = tuple(int(p.strip()) for p in key.split(","))
        except ValueError as exc:
            raise FormFileError(f"bad partition key {key!r}") from exc
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise FormFileError(f"partition key {key!r} must be positive parts in decreasing order")
    if sum(parts) != degree:
        raise FormFileError(f"partition {key!r} is not a partition of {degree}")
    return parts


def parse_form_data(data) -> FormFile:
    if not isinstance(data, dict):
        raise FormFileError("form file must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise FormFileError(f"unknown fields: {sorted(unknown)}")
    degree = data.get("degree")
    if not isinstance(degree, int) or degree <= 0:
        raise FormFileError("degree must be a positive integer")
    basis = data.get("basis")
    if basis not in ("p", "m", "monomial"):
        raise FormFileError('basis must be "p", "m" or "monomial"')
    scope = data.get("scope")
    if scope is not None:
        if scope == "limit":
            scope = LIMIT
        elif not isinstance(scope, int) or scope < 1:
            raise FormFileError('scope must be a positive integer or "limit"')
    description = data.get("description")
    if description is not None and not isinstance(description, str):
        raise FormFileError("description must be a string")
    coefficients = None
    monomials = None
    if basis == "monomial":
        raw = data.get("monomials")
        if "coefficients" in data:
            raise FormFileError("monomial basis uses the monomials field")
        if not isinstance(raw, list) or not raw:
            raise FormFileError("monomials must be a non-empty list")
        entries = []
        nvars = None
        for item in raw:
            if not isinstance(item, dict) or set(item) != {"exponents", "coefficient"}:
                raise FormFileError(
                    "each monomial needs exactly the fields exponents, coefficient"
                )
            expo = item["exponents"]
            if not isinstance(expo, list) or not all(
                isinstance(e, int) and e >= 0 for e in expo
            ):
                raise FormFileError("exponents must be nonnegative integers")
            if sum(expo) != degree:
                raise FormFileError(f"monomial {expo} does not have degree {degree}")
            if nvars is None:
                nvars = len(expo)
            elif len(expo) != nvars:
                raise FormFileError("inconsistent exponent vector lengths")
            entries.append((tuple(expo), parse_rational(item["coefficient"])))
        monomials = tuple(entries)
    else:
        raw = data.get("coefficients")
        if "monomials" in data:
            raise FormFileError("coefficient basis does not use the monomials field")
        if not isinstance(raw, dict) or not raw:
            raise FormFileError("coefficients must be a non-empty object")
        coefficients = {}
        for key, value in raw.items():
            parts = _parse_partition_key(key, degree)
            if parts in coefficients:
                raise FormFileError(f"duplicate partition {key!r}")
            coefficients[parts] = parse_rational(value)
    return FormFile(degree, basis, scope, coefficients, monomials, description)


def load_form_file(path: str) -> FormFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_form_data(data)


def form_to_p(ff: FormFile, scope) -> SymFormP:
    """The p-basis coefficient vector of the file's form at the given scope
    (symmetrizing monomial input first)."""
    if scope is None:
        raise FormFileError("a scope is required: pass --n N or --limit")
    if ff.basis == "p":
        return form_from_dict(ff.degree, ff.coefficients, scope)
    if ff.basis == "m":
        g = SymFuncM({parts: c for parts, c in ff.coefficients.items()})
        return m_to_p(g, scope)
    nvars = len(ff.monomials[0][0])
    n_sym = nvars if scope is LIMIT else scope
    if not isinstance(n_sym, int) or n_sym > 8:
        raise FormFileError("monomial symmetrization supports n <= 8")
    if n_sym < nvars:
        raise FormFileError("scope smaller than the monomial variable count")
    poly = MultiPoly(n_sym, {e + (0,) * (n_sym - nvars): c for e, c in ff.monomials})
    return m_to_p(brute_symmetrize(poly, n_sym), scope)


def emit_form_file(f_degree: int, basis: str, scope, coefficients: dict) -> dict:
    if scope is LIMIT:
        scope_out = "limit"
    else:
        scope_out = scope
    keys = sorted(coefficients, reverse=True)
    return {
        "degree": f_degree,
        "basis": basis,
        "scope": scope_out,
        "coefficients": {
            ",".join(str(p) for p in parts): fmt(coefficients[parts]) for parts in keys
        },
    }


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def _mat_str(m) -> str:
    return f"[[{fmt(m.m11)}, {fmt(m.m12)}], [{fmt(m.m12)}, {fmt(m.m22)}]]"


def _functional_lines(ell: DualFunctional, n: int | None) -> list[str]:
    names = ("y4", "y31", "y22", "y211", "y1111")
    lines = ["separator: " + " ".join(f"{k}={fmt(v)}" for k, v in zip(names, ell.as_tuple()))]
    if n is not None:
        m_triv, m_hook, m_tworow = dual_blocks(ell, n)
        lines.append(f"separator block trivial: {_mat_str(m_triv)}")
        lines.append(f"separator block hook: {_mat_str(m_hook)}")
        lines.append(f"separator block two-row: {fmt(m_tworow)}")
    return lines


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _scope_of(args):
    if getattr(args, "limit", False):
        return LIMIT
    return args.n


def cmd_check(args) -> int:
    ff = load_form_file(args.file)
    scope = _scope_of(args)
    if scope is None:
        scope = ff.scope
    if scope is None:
        raise FormFileError("a scope is required: pass --n N or --limit")
    if ff.degree != 4:
        raise FormFileError("membership decisions require degree 4")
    if scope is not LIMIT and scope < 4:
        raise FormFileError("decisions require n >= 4")
    f = form_to_p(ff, scope)
    out = [f"form: {args.file}"]
    out.append("scope: limit" if scope is LIMIT else f"scope: n={scope}")
    out.append(f"coefficients (p basis, order 4 / 31 / 22 / 211 / 1111): "
               f"{' '.join(fmt(c) for c in f.coeffs)}")
    out.append(f"query: {args.kind}")

    if args.kind == "nonneg":
        verdict = is_nonneg_limit(f) if scope is LIMIT else is_nonneg(f)
        out.append(f"status: {verdict.status}")
        if verdict.witness is not None:
            w, point = verdict.witness
            out.append(
                f"witness: weights=({fmt(w[0])}, {fmt(w[1])}) "
                f"point=({fmt(point[0])}, {fmt(point[1])})"
            )
    else:
        verdict = sos_membership_limit(f) if scope is LIMIT else sos_membership(f)
        out.append(f"status: {verdict.status}")
        if verdict.status == "IN":
            cert = verdict.certificate
            if not cert.is_valid() or expand_certificate(cert) != f:
                raise AssertionError("certificate failed re-verification")
            out.append(f"certificate gamma: {fmt(cert.gamma)}")
            out.append(f"certificate block A: {_mat_str(cert.A)}")
            out.append(f"certificate block B: {_mat_str(cert.B)}")
            out.append("certificate verified: true")
        elif scope is not LIMIT:
            ell = find_separating_functional(f)
            pairing = pair(ell, f)
            if not (pairing < 0 and dual_membership(ell, scope)):
                raise AssertionError("separator failed re-verification")
            out.extend(_functional_lines(ell, scope))
            out.append(f"separator pairing: {fmt(pairing)}")
            out.append("separator verified: true")
    print("\n".join(out))
    return 0 if verdict.status == "IN" else 1


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    ff = load_form_file(args.file)
    scope = _scope_of(args)
    if scope is None:
        scope = ff.scope
    f = form_to_p(ff, scope)
    if args.to == "p":
        coeffs = {
            parts: c for parts, c in zip(partitions_of(ff.degree), f.coeffs) if c
        }
        doc = emit_form_file(ff.degree, "p", scope, coeffs)
    else:
        g = p_to_m(f)
        try:
            values = g.limit() if scope is LIMIT else g.specialize(scope)
        except NoLimitError:
            print("error: no limit (a coefficient diverges as n grows)", file=sys.stderr)
            return 1
        doc = emit_form_file(ff.degree, "m", scope, {p: v for p, v in values.items() if v})
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# plotdata
# ---------------------------------------------------------------------------


def _min_value(h) -> Fraction | None:
    """Certified minimum of the quartic x -> sum h_i x^(4-i) over the reals:
    the exact rational minimum when it is attained at the sample bracket
    endpoint, otherwise a dyadic lower bound within 2^-20 of the true
    minimum; None means unbounded below."""
    p = UniPoly(list(reversed([Fraction(c) for c in h])))
    if p.is_zero():
        return _ZERO
    if p.degree == 0:
        return p.coeffs[0]
    if p.degree % 2 == 1 or p.lead < 0:
        return None

    def dominated(level: Fraction) -> bool:
        # p(x) - level >= 0 for all real x
        return binary_quartic_nonneg(tuple(h[:4]) + (h[4] - level,))

    hi = p(_ZERO)
    if dominated(hi):
        return hi
    lo = hi - 1
    step = Fraction(1)
    while not dominated(lo):
        step *= 2
        lo -= step
    for _ in range(64):
        if hi - lo <= Fraction(1, 1 << 20):
            break
        mid = (lo + hi) / 2
        if dominated(mid):
            lo = mid
        else:
            hi = mid
    return lo


def cmd_plotdata(args) -> int:
    if args.samples < 1:
        raise FormFileError("--samples must be at least 1")
    ff = load_form_file(args.file)
    scope = _scope_of(args)
    if scope is None:
        scope = ff.scope if ff.scope is not None else LIMIT
    if ff.degree != 4:
        raise FormFileError("plot data requires degree 4")
    f = form_to_p(ff, scope)
    fmt_val = fmt_decimal if args.decimal else fmt
    rows = []
    if args.what == "disc":
        delta = disc_binary_quartic(phi_alpha_coeffs(f))
        for i in range(args.samples + 1):
            alpha = Fraction(i, args.samples)
            value = delta(alpha) if not delta.is_zero() else _ZERO
            rows.append((alpha, fmt_val(value)))
    else:
        cs = phi_alpha_coeffs(f)
        for i in range(args.samples + 1):
            alpha = Fraction(i, args.samples)
            value = _min_value(tuple(c(alpha) for c in cs))
            rows.append((alpha, "-inf" if value is None else fmt_val(value)))
    for alpha, value in rows:
        print(f"{fmt_val(alpha)}\t{value}")
    return 0


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------


def _check(lines, ok_list, label, expected, actual) -> None:
    good = expected == actual
    ok_list.append(good)
    status = "ok" if good else "MISMATCH"
    lines.append(f"{label}: expected {expected!r}, got {actual!r} [{status}]")


CHOI_LAM_P_VECTOR = (
    Fraction(8),
    Fraction(-160, 3),
    Fraction(-8),
    Fraction(128),
    Fraction(-128, 3),
)


def bundled_choi_lam() -> FormFile:
    from importlib import resources

    data = json.loads(
        resources.files("symquartic").joinpath("data/choi_lam.form").read_text("utf-8")
    )
    return parse_form_data(data)


def _repro_choi_lam():
    lines, ok = [], []
    f = form_to_p(bundled_choi_lam(), 4)
    _check(lines, ok, "p vector", tuple(map(str, CHOI_LAM_P_VECTOR)), tuple(map(str, f.coeffs)))
    _check(lines, ok, "value at (1,1,-1,-1)", "0", fmt(evaluate(f, (1, 1, -1, -1))))
    _check(lines, ok, "value at (1,1,1,1)", "32", fmt(evaluate(f, (1, 1, 1, 1))))
    _check(lines, ok, "nonneg status", "IN", is_nonneg(f).status)
    _check(lines, ok, "sos status", "OUT", sos_membership(f).status)
    ell = find_separating_functional(f)
    lines.extend(_functional_lines(ell, 4))
    _check(lines, ok, "separator pairing negative", True, pair(ell, f) < 0)
    _check(lines, ok, "separator dual-feasible at n=4", True, dual_membership(ell, 4))
    return all(ok), lines


def _repro_example_6_10():
    lines, ok = [], []
    params = BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4))
    f = boundary_family_form(params)
    ell = boundary_family_functional(params.a, params.b, params.c, params.d)
    _check(
        lines, ok, "functional (y4, y31, y22, y211, y1111)",
        ("397/200", "63/40", "25/16", "5/4", "1"),
        tuple(fmt(y) for y in ell.as_tuple()),
    )
    _check(lines, ok, "pairing ell(f)", "0", fmt(pair(ell, f)))
    m_triv, m_hook, m_tworow4 = dual_blocks(ell, 4)
    _check(lines, ok, "block trivial", "[[25/16, 5/4], [5/4, 1]]", _mat_str(m_triv))
    _check(lines, ok, "block hook", "[[169/400, 13/40], [13/40, 1/4]]", _mat_str(m_hook))
    _check(lines, ok, "block trivial det", "0", fmt(m_triv.det()))
    _check(lines, ok, "block hook det", "0", fmt(m_hook.det()))
    for n in range(4, 13):
        expected = Fraction(25 * n * n - 149 * n + 149, 800)
        _check(lines, ok, f"block two-row at n={n}", fmt(expected), fmt(dual_blocks(ell, n)[2]))
    for n in range(4, 13):
        # A2: strictly inside at n = 4, supported by ell from n = 5 on
        status, y = sos_boundary(f.with_scope(n))
        ratios = set() if y is None else {a / b for a, b in zip(y.as_tuple(), ell.as_tuple())}
        multiple = len(ratios) == 1 and min(ratios) > 0
        _check(
            lines, ok, f"SOS boundary at n={n} (status, y a positive multiple of ell)",
            ("INTERIOR", False) if n == 4 else ("BOUNDARY", True), (status, multiple),
        )
    k = UniPoly([_ZERO, _ONE])
    printed = (
        UniPoly([Fraction(10000), Fraction(-37399), Fraction(37399)])
        * UniPoly([Fraction(25), Fraction(-149), Fraction(149)]) ** 2
        * (k - 1) ** 3
        * k**3
        * Fraction(-1, 10**8)
    )
    _check(lines, ok, "disc factorization matches printed delta(h_k)", True, disc_poly(params) == printed)
    return all(ok), lines


def _repro_disc_factorization():
    import random

    lines, ok = [], []
    fixed = [
        BoundaryParams(1, 1, 1, 1),
        BoundaryParams(1, 0, -1, 2),
        BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4)),
    ]
    rng = random.Random(76001)
    samples = list(fixed)
    while len(samples) < 28:
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        a, b, c, d = vals
        if a == 0 or (c == 0 and d == 0) or c + d == 0:
            continue
        samples.append(BoundaryParams(a, b, c, d))
    for i, p in enumerate(samples):
        _check(lines, ok, f"identity #{i} ({fmt(p.a)},{fmt(p.b)},{fmt(p.c)},{fmt(p.d)})",
               True, verify_disc_factorization(p))
    return all(ok), lines


def _sigma_prime_identity_holds(n: int) -> bool:
    """(n-1)/(2n) Sym((x1^a - x2^a) p_mu1 (x1^b - x2^b) p_mu2)
    = (p_(a+b) - p_a p_b) p_mu1 p_mu2 for a, b in {1, 2}."""

    def p_poly(k: int) -> MultiPoly:
        out = MultiPoly(n)
        for i in range(n):
            out = out + MultiPoly.var(i, n, k)
        return out * Fraction(1, n)

    for a in (1, 2):
        for b in (1, 2):
            mu1 = (1,) * (2 - a)
            mu2 = (1,) * (2 - b)
            lhs_poly = (MultiPoly.var(0, n, a) - MultiPoly.var(1, n, a)) * (
                MultiPoly.var(0, n, b) - MultiPoly.var(1, n, b)
            )
            for _ in mu1 + mu2:
                lhs_poly = lhs_poly * p_poly(1)
            lhs = brute_symmetrize(lhs_poly, n).scale(Fraction(n - 1, 2 * n)).specialize(n)
            plus = tuple(sorted((a + b,) + mu1 + mu2, reverse=True))
            minus = tuple(sorted((a, b) + mu1 + mu2, reverse=True))
            rhs = p_to_m(form_from_dict(4, {plus: 1, minus: -1}, n)).specialize(n)
            if lhs != rhs:
                return False
    return True


def _repro_q_blocks():
    lines, ok = [], []
    for n in (4, 5, 6):
        qb = q_blocks(n)
        g1 = MultiPoly.var(0, n) - MultiPoly.var(1, n)
        g2 = MultiPoly.var(0, n, 2) - MultiPoly.var(1, n, 2)
        prods = {(0, 0): g1 * g1, (0, 1): g1 * g2, (1, 1): g2 * g2}
        hook_ok = all(
            brute_symmetrize(prod, n).specialize(n) == qb.block_hook[i][j].specialize(n)
            for (i, j), prod in prods.items()
        )
        _check(lines, ok, f"hook block vs brute force, n={n}", True, hook_ok)
        rows = (tuple([1, 3] + list(range(5, n + 1))), (2, 4))
        sp = specht_polynomial(Tableau((n - 2, 2), rows))
        _check(
            lines, ok, f"two-row block vs brute force, n={n}", True,
            brute_symmetrize(sp * sp, n).specialize(n) == qb.block_22.specialize(n),
        )
        _check(lines, ok, f"subcone symmetrization identity, n={n}", True,
               _sigma_prime_identity_holds(n))
    return all(ok), lines


def _repro_limit_equality():
    """The limit verdicts of the 500-form equivalence sample, each witness
    checked exactly: an IN certificate re-expands to the form, an OUT point
    makes Phi^alpha negative, and a BOUNDARY functional is nonzero, pairs
    to 0 and lies in the limit dual cone.  An OUT verdict without a
    negative point would raise (it would contradict the degree-4 limit
    theorem), so the run also exercises the theorem on every form."""
    from .sampling import equivalence_sample

    lines, ok = [], []
    counts = dict.fromkeys(("IN", "OUT", "BOUNDARY"), 0)
    sample = equivalence_sample()
    for f in sample:
        verdict = is_nonneg_limit(f)
        counts[verdict.status] += 1
        if verdict.status == "OUT":
            (alpha, beta), (x, y) = verdict.witness
            value = sum(c * x ** (4 - i) * y**i for i, c in enumerate(restrict_alpha(f, alpha)))
            good = 0 <= alpha <= 1 and alpha + beta == 1 and value < 0
        else:
            cert = sos_membership_limit(f).certificate
            good = cert is not None and cert.is_valid() and expand_certificate(cert) == f
            boundary = None if f.is_zero() else boundary_status_limit(f)
            if boundary is not None and boundary.status == "BOUNDARY":
                counts["BOUNDARY"] += 1
                ell = boundary.witness
                good &= any(ell.as_tuple()) and pair(ell, f) == 0 and dual_membership(ell, LIMIT)
        if not good:
            lines.append(f"UNVERIFIED {verdict.status} on {tuple(map(str, f.coeffs))}")
    unverified = len(lines)
    lines.append(f"sampled {len(sample)} forms: {counts['IN']} IN, of them "
                 f"{counts['BOUNDARY']} BOUNDARY, {counts['OUT']} OUT")
    _check(lines, ok, "unverified witnesses", 0, unverified)
    return all(ok), lines


_REPROS = {
    "choi-lam": _repro_choi_lam,
    "example-6-10": _repro_example_6_10,
    "disc-factorization": _repro_disc_factorization,
    "q-blocks": _repro_q_blocks,
    "limit-equality": _repro_limit_equality,
}


def cmd_repro(args) -> int:
    fn = _REPROS[args.name]
    good, lines = fn()
    print(f"repro: {args.name}")
    for line in lines:
        print(line)
    print("result: PASS" if good else "result: FAIL")
    return 0 if good else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symquartic",
        description="Exact membership decisions for symmetric quartic cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scope(p, required=False):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--n", type=int, help="number of variables")
        group.add_argument("--limit", action="store_true", help="limit cone scope")

    p_check = sub.add_parser("check", help="cone membership")
    p_check.add_argument("kind", choices=("nonneg", "sos"))
    add_scope(p_check)
    p_check.add_argument("file")
    p_check.set_defaults(fn=cmd_check)

    p_repro = sub.add_parser("repro", help="golden regression runs")
    p_repro.add_argument("name", choices=sorted(_REPROS))
    p_repro.set_defaults(fn=cmd_repro)

    p_convert = sub.add_parser("convert", help="basis conversion")
    p_convert.add_argument("--to", required=True, choices=("p", "m"))
    add_scope(p_convert)
    p_convert.add_argument("file")
    p_convert.set_defaults(fn=cmd_convert)

    p_plot = sub.add_parser("plotdata", help="alpha-sampled plot columns")
    p_plot.add_argument("--what", required=True, choices=("disc", "minval"))
    p_plot.add_argument("--samples", type=int, required=True)
    p_plot.add_argument("--decimal", action="store_true")
    add_scope(p_plot)
    p_plot.add_argument("file")
    p_plot.set_defaults(fn=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except FormFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NoLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
