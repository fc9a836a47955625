"""Command-line surface: algebra arithmetic, Hopf operations, ideal and
module probes, automorphism checks, and the verification-suite runner.

Each command is a handler `(args, p) -> records` that its parser names
with `set_defaults(run=...)`.  Output is the records as JSON lines,
deterministic for a fixed seed.  Exit status is 1 when a record has
"ok": false, else 0, and 2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .errors import InvalidParameter, QheisError
from .expr import ALGEBRAS, context_for, elaborate_element, parse, parse_scalar
from .hopf import DualPairing, hopf_Oq, hopf_Uq
from .ideals import build_spec_catalog, catalog_generators, containment_probe, ideal_span
from .ideals import spec_diagram
from .morphisms import check_morphism, family
from .presets import S_ORDERS, params
from .qfield import evaluate
from .rewrite import Element
from .smodules import QuotientModule, WeightModule, cyclicity_probe, growth_exponent
from .suites import RunConfig, SUITE_NAMES, run_suites


def _mono_json(pres, mono):
    return {pres.table.names[i]: e for i, e in enumerate(mono) if e}


def _element_json(el: Element):
    coeffs = []
    text = el.pres.render_element(el, coeffs)
    terms = [{"coeff": ctext, "mono": _mono_json(el.pres, mono)} for mono, ctext in coeffs]
    return {"terms": terms, "text": text}


def _tensor_json(pres, halves):
    """JSON of {(left, right): coeff}, a sum of tensors of monomials of `pres`."""
    terms = []
    bits = []
    for (ml, mr) in sorted(
        halves, key=lambda k: (pres.term_sort_key(k[0]), pres.term_sort_key(k[1]))
    ):
        c = halves[(ml, mr)]
        left, right = _mono_json(pres, ml), _mono_json(pres, mr)
        terms.append({"coeff": str(c), "left": left, "right": right})
        coeff = "" if c == 1 else f"{c} * "
        lt = pres.render_monomial(ml) or "1"
        rt = pres.render_monomial(mr) or "1"
        bits.append(f"{coeff}({lt}) (*) ({rt})")
    return {"terms": terms, "text": " + ".join(bits) or "0"}


# options a command takes only when it reads them
_OPTIONS = {
    "seed": {"type": int, "default": None},
    "deg": {"type": int, "default": 8},
    "window": {"type": int, "default": 4},
    "q": {"default": None, "metavar": "P/R", "help": "evaluate at a rational q"},
    "order": {"default": None, "choices": tuple(S_ORDERS), "help": "order of S (default J1)"},
    "vec": {"default": "0,0", "help": "basis vector i,j"},
    "kind": {"default": "K", "choices": ("K", "a")},
    "weight": {"action": "store_true", "help": "growth of the weight module"},
    "eigenvalue": {"default": "1", "help": "base eigenvalue"},
}


def _add_common(sub, *options, **defaults):
    """--m, --n and the named `options`; `defaults` holds `run`, the
    command's handler, and replaces the table's default of an option."""
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--n", type=int, default=1)
    for name in options:
        sub.add_argument(f"--{name}", **_OPTIONS[name])
    sub.set_defaults(**defaults)


def _q0_of(args):
    if args.q is None:
        return None
    try:
        return Fraction(args.q)
    except ZeroDivisionError:
        raise InvalidParameter(f"--q={args.q} has a zero denominator") from None


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and building it costs far more than parsing."""
    ap = argparse.ArgumentParser(
        prog="qheis",
        description="exact computations in the quantum Euclidean group family",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    nf = subs.add_parser("nf", help="normal form of an expression")
    _add_common(nf, "q", "order", run=_cmd_nf)
    nf.add_argument("--algebra", default="Dq", choices=tuple(ALGEBRAS))
    nf.add_argument("expr")

    comm = subs.add_parser("comm", help="commutator of two expressions")
    _add_common(comm, "q", "order", run=_cmd_comm)
    comm.add_argument("--algebra", default="Dq", choices=tuple(ALGEBRAS))
    comm.add_argument("expr1")
    comm.add_argument("expr2")

    for verb, help_text, fields in (
        ("delta", "coproduct", lambda h, el: _tensor_json(h.pres, h.split_coproduct(el))),
        ("counit", "counit", lambda h, el: {"value": str(h.counit(el))}),
        ("antipode", "antipode", lambda h, el: _element_json(h.antipode(el))),
    ):
        sp = subs.add_parser(verb, help=help_text)
        _add_common(sp, run=functools.partial(_cmd_hopf, fields))
        sp.add_argument("--algebra", default="Oq", choices=("Oq", "Uq"))
        sp.add_argument("expr")

    for verb, help_text, fields in (
        ("pair", "dual pairing <u, x>", lambda dp, u, x: {"value": str(dp.pair(u, x))}),
        ("act", "module-algebra action u . x", lambda dp, u, x: _element_json(dp.act(u, x))),
    ):
        sp = subs.add_parser(verb, help=help_text)
        _add_common(sp, run=functools.partial(_cmd_dual, fields))
        sp.add_argument("uexpr")
        sp.add_argument("xexpr")

    smash = subs.add_parser("smash", help="verify the smash-product relations")
    _add_common(smash, run=_cmd_smash)

    ideal = subs.add_parser("ideal", help="ideal span/membership probes in S")
    ideal_subs = ideal.add_subparsers(dest="action", required=True)
    for action, has_expr, run in (
        ("span", False, _cmd_ideal_span),
        ("member", True, _cmd_ideal_member),
        ("contain", False, _cmd_ideal_contain),
    ):
        sp = ideal_subs.add_parser(action)
        _add_common(sp, "q", "deg", run=run)
        sp.add_argument("--ideal", default=None, help="catalog name, e.g. I1 or J1")
        sp.add_argument("--gens", default=None, help="comma-separated generator exprs")
        sp.add_argument("--side", default=None, choices=("left", "twoSided"), help="with --gens")
        sp.add_argument("--z", default="1", help="z parameter for the J families")
        if action == "contain":
            sp.add_argument("--other", default=None, help="second catalog name")
        if has_expr:
            sp.add_argument("expr")

    spec = subs.add_parser("spec", help="prime spectrum catalog probes")
    spec_subs = spec.add_subparsers(dest="action", required=True)
    for action, run in (("catalog", _cmd_spec_catalog), ("diagram", _cmd_spec_diagram)):
        sp = spec_subs.add_parser(action)
        _add_common(sp, "deg", run=run)

    module = subs.add_parser("module", help="quotient/weight module operations")
    module_subs = module.add_subparsers(dest="action", required=True)
    for action, has_expr, options, defaults in (
        ("act", True, ("vec",), {"run": _cmd_module_act}),
        ("probe", True, ("deg",), {"run": _cmd_module_probe, "deg": 6}),
        ("growth", False, ("deg", "weight", "eigenvalue", "window"),
         {"run": _cmd_module_growth, "deg": 24}),
        ("support", False, ("kind", "eigenvalue", "window"), {"run": _cmd_module_support}),
    ):
        sp = module_subs.add_parser(action)
        _add_common(sp, *options, **defaults)
        sp.add_argument("--family", default="J1", choices=tuple(S_ORDERS))
        sp.add_argument("--sigma", default="0")
        sp.add_argument("--tau", default="0")
        if has_expr:
            sp.add_argument("expr", nargs="?")

    aut = subs.add_parser("aut", help="automorphism family checks")
    aut_subs = aut.add_subparsers(dest="action", required=True)
    sp = aut_subs.add_parser("check")
    _add_common(sp, run=_cmd_aut_check)
    sp.add_argument("--family", required=True)
    sp.add_argument("--matrix", default=None, help="a,b,c,d for rho")
    sp.add_argument("--scalars", default=None, help="comma-separated scalars")
    sp.add_argument("--i", type=int, default=None, help="index for xi")

    verify = subs.add_parser("verify", help="run verification suites")
    _add_common(verify, "seed", "deg", run=_cmd_verify)
    verify.add_argument("--suite", default="all", help="suite name or 'all'")
    verify.add_argument("--samples", type=int, default=30)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, sys.stdout)
    except QheisError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except (ZeroDivisionError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args, out) -> int:
    """Write the records of the command's handler; 1 when one failed."""
    records = args.run(args, params(args.m, args.n))
    for r in records:
        out.write(json.dumps(r, sort_keys=True) + "\n")
    return 1 if any(not r.get("ok", True) for r in records) else 0


def _algebra_context(args, p):
    """The context of nf and comm: --order orders S and no other algebra."""
    if args.order is not None and args.algebra != "S":
        raise ValueError(f"--order applies to --algebra S only, not {args.algebra}")
    return context_for(args.algebra, p, args.order or "J1", q0=_q0_of(args))


def _cmd_nf(args, p):
    ctx = _algebra_context(args, p)
    el = elaborate_element(parse(args.expr), ctx)
    return [{"command": "nf", "input": args.expr, **_element_json(el)}]


def _cmd_comm(args, p):
    ctx = _algebra_context(args, p)
    x = elaborate_element(parse(args.expr1), ctx)
    y = elaborate_element(parse(args.expr2), ctx)
    return [{"command": "comm", **_element_json(ctx.pres.commutator(x, y))}]


def _cmd_hopf(fields, args, p):
    """delta, counit and antipode: `fields(h, el)` is the record's body."""
    ctx = context_for(args.algebra, p)
    h = hopf_Oq(p) if args.algebra == "Oq" else hopf_Uq(p)
    el = elaborate_element(parse(args.expr), ctx)
    return [{"command": args.command, **fields(h, el)}]


def _cmd_dual(fields, args, p):
    """pair and act: `fields(dp, u, x)` is the record's body."""
    dp = DualPairing(p)
    u = elaborate_element(parse(args.uexpr), context_for("Uq", p))
    x = elaborate_element(parse(args.xexpr), context_for("Oq", p))
    return [{"command": args.command, **fields(dp, u, x)}]


def _cmd_smash(args, p):
    return [{"command": "smash", **r} for r in DualPairing(p).check_smash()]


def _catalog_ideal(args, p, ctx, name):
    q0 = _q0_of(args)
    z = parse_scalar(args.z)
    if q0 is not None:
        z = evaluate(z, q0)
    gens = catalog_generators(ctx.pres, p, (z,))
    if name in ("J1", "J2"):
        name = f"{name}({z})"
    if name not in gens:
        raise QheisError(f"unknown catalog ideal {name!r}")
    return ideal_span(ctx.pres, gens[name], degree_bound=args.deg)


def _ideal_of(args, p):
    """The S context, the span the command names and its label."""
    ctx = context_for("S", p, q0=_q0_of(args))
    if args.gens:
        gens = [elaborate_element(parse(g), ctx) for g in args.gens.split(",")]
        ideal = ideal_span(ctx.pres, gens, side=args.side or "twoSided", degree_bound=args.deg)
        return ctx, ideal, args.gens
    if args.side is not None:
        raise ValueError("--side applies to --gens only: a catalog ideal is two-sided")
    name = args.ideal or "I1"
    return ctx, _catalog_ideal(args, p, ctx, name), name


def _action_record(args, **fields):
    """The record of an ideal or module action."""
    return {"command": args.command, "action": args.action, **fields}


def _cmd_ideal_span(args, p):
    _, ideal, label = _ideal_of(args, p)
    dimension, bound = ideal.dimension, ideal.degree_bound
    return [_action_record(args, ideal=label, dimension=dimension, degree_bound=bound)]


def _cmd_ideal_member(args, p):
    ctx, ideal, label = _ideal_of(args, p)
    status = ideal.member(elaborate_element(parse(args.expr), ctx))
    return [_action_record(args, ideal=label, status=status)]


def _cmd_ideal_contain(args, p):
    ctx, ideal, label = _ideal_of(args, p)
    big = args.other or "I3"
    report = containment_probe(ideal, _catalog_ideal(args, p, ctx, big))
    return [_action_record(args, small=label, big=big, status=report.status)]


def _cmd_spec_catalog(args, p):
    cat = build_spec_catalog(p, degree_bound=args.deg)
    return [
        {"command": "spec", "ideal": name, "dimension": cat.ideals[name].dimension,
         "degree_bound": args.deg}
        for name in cat.named()
    ]


def _cmd_spec_diagram(args, p):
    cat = build_spec_catalog(p, degree_bound=args.deg)
    return [{"command": "spec", **edge} for edge in spec_diagram(cat)]


def _module_of(args, p):
    return QuotientModule(args.family, parse_scalar(args.sigma), parse_scalar(args.tau), p)


def _module_element(args, p):
    ctx = context_for("S", p, order_key=args.family)
    return elaborate_element(parse(args.expr or "1"), ctx)


def _cmd_module_act(args, p):
    mod = _module_of(args, p)
    el = _module_element(args, p)
    i, j = (int(x) for x in args.vec.split(","))
    vector = mod.render_vector(mod.act(el, mod.basis_vector(i, j)))
    return [_action_record(args, family=args.family, vector=vector)]


def _cmd_module_probe(args, p):
    mod = _module_of(args, p)
    w = mod.act(_module_element(args, p), mod.cyclic_vector())
    verdict = cyclicity_probe(mod, w, args.deg) if w else "ZeroVector"
    return [_action_record(args, family=args.family, verdict=verdict)]


def _cmd_module_growth(args, p):
    mod = _module_of(args, p)
    if args.weight:
        mod = WeightModule("K", parse_scalar(args.eigenvalue), mod, args.window)
    exponent = round(growth_exponent(mod, args.deg), 6)
    return [_action_record(args, family=args.family, weight=bool(args.weight), exponent=exponent)]


def _cmd_module_support(args, p):
    wm = WeightModule(args.kind, parse_scalar(args.eigenvalue), _module_of(args, p), args.window)
    support = sorted(str(v) for v in wm.support())
    return [_action_record(args, kind=args.kind, window=args.window, support=support)]


def _cmd_aut_check(args, p):
    matrix = None
    if args.matrix:
        a, b, c, d = (int(x) for x in args.matrix.split(","))
        matrix = ((a, b), (c, d))
    scalars = [parse_scalar(s) for s in args.scalars.split(",")] if args.scalars else None
    report = check_morphism(family(args.family, p, i=args.i, matrix=matrix, scalars=scalars))
    failures = [name for name, _ in report.failures]
    return [
        {"command": "aut", "family": args.family, "params": {"m": p.m, "n": p.n},
         "relations_checked": report.relations_checked, "failures": failures, "ok": report.ok}
    ]


def _cmd_verify(args, p):
    env = os.environ.get("QHEIS_SEED")
    seed = args.seed if args.seed is not None else int(env) if env else 0
    cfg = RunConfig(m=args.m, n=args.n, seed=seed, deg=args.deg, samples=args.samples)
    names = tuple(s.strip() for s in args.suite.split(","))
    unknown = [s for s in names if s != "all" and s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, not {args.samples}")
    records, _ = run_suites(names, cfg)
    per_suite: dict = {}
    for r in records:
        bucket = per_suite.setdefault(r["suite"], {"checks": 0, "passed": 0})
        bucket["checks"] += 1
        bucket["passed"] += int(r["ok"])
    passed = sum(b["passed"] for b in per_suite.values())
    failed = len(records) - passed
    return [*records, {"summary": True, "checks": len(records), "passed": passed,
                       "failed": failed, "per_suite": per_suite, "seed": cfg.seed}]


if __name__ == "__main__":
    sys.exit(main())
