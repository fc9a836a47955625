"""Command-line surface: algebra arithmetic, Hopf operations, ideal and
module probes, automorphism checks, and the verification-suite runner.

Output is JSON lines, one object per result, deterministic for a fixed
seed.  Exit status is 0 exactly when every emitted check passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .errors import QheisError
from .expr import ALGEBRAS, context_for, elaborate_element, parse, parse_scalar
from .hopf import DualPairing, hopf_Oq, hopf_Uq
from .ideals import (
    build_spec_catalog,
    catalog_generators,
    containment_probe,
    ideal_span,
    spec_diagram,
)
from .morphisms import check_morphism, family
from .presets import S_ORDERS, params
from .qfield import evaluate
from .rewrite import Element
from .smodules import QuotientModule, WeightModule, cyclicity_probe, growth_exponent
from .suites import RunConfig, SUITE_NAMES, run_suites


def _element_json(el: Element):
    pres = el.pres
    coeffs = []
    text = pres.render_element(el, coeffs)
    terms = [
        {"coeff": ctext, "mono": {pres.table.names[i]: e for i, e in enumerate(mono) if e}}
        for mono, ctext in coeffs
    ]
    return {"terms": terms, "text": text}


def _tensor_json(pres, halves):
    """JSON of {(left, right): coeff}, a sum of tensors of monomials of `pres`."""
    terms = []
    bits = []
    for (ml, mr) in sorted(
        halves, key=lambda k: (pres.term_sort_key(k[0]), pres.term_sort_key(k[1]))
    ):
        c = halves[(ml, mr)]
        terms.append(
            {
                "coeff": str(c),
                "left": {pres.table.names[i]: e for i, e in enumerate(ml) if e},
                "right": {pres.table.names[i]: e for i, e in enumerate(mr) if e},
            }
        )
        coeff = "" if c == 1 else f"{c} * "
        lt = pres.render_monomial(ml) or "1"
        rt = pres.render_monomial(mr) or "1"
        bits.append(f"{coeff}({lt}) (*) ({rt})")
    return {"terms": terms, "text": " + ".join(bits) or "0"}


def _emit(out, record):
    out.write(json.dumps(record, sort_keys=True) + "\n")


# options a command takes only when it reads them
_OPTIONS = {
    "seed": {"type": int, "default": None},
    "deg": {"type": int, "default": 8},
    "window": {"type": int, "default": 4},
    "q": {"default": None, "metavar": "P/R", "help": "evaluate at a rational q"},
    "order": {"default": "J1", "choices": tuple(S_ORDERS)},
    "vec": {"default": "0,0", "help": "basis vector i,j"},
    "kind": {"default": "K", "choices": ("K", "a")},
    "weight": {"action": "store_true", "help": "growth of the weight module"},
    "eigenvalue": {"default": "1", "help": "base eigenvalue"},
}


def _add_common(sub, *options, **defaults):
    """--m, --n and the named `options`; `defaults` replaces the table's
    default of an option."""
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--n", type=int, default=1)
    for name in options:
        sub.add_argument(f"--{name}", **_OPTIONS[name])
    sub.set_defaults(**defaults)


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QHEIS_SEED")
    return int(env) if env else 0


def _q0_of(args):
    if args.q is None:
        return None
    return Fraction(args.q)


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
    _add_common(nf, "q", "order")
    nf.add_argument("--algebra", default="Dq", choices=tuple(ALGEBRAS))
    nf.add_argument("expr")

    comm = subs.add_parser("comm", help="commutator of two expressions")
    _add_common(comm, "q", "order")
    comm.add_argument("--algebra", default="Dq", choices=tuple(ALGEBRAS))
    comm.add_argument("expr1")
    comm.add_argument("expr2")

    for verb, help_text in (
        ("delta", "coproduct"),
        ("counit", "counit"),
        ("antipode", "antipode"),
    ):
        sp = subs.add_parser(verb, help=help_text)
        _add_common(sp)
        sp.add_argument("--algebra", default="Oq", choices=("Oq", "Uq"))
        sp.add_argument("expr")

    pair = subs.add_parser("pair", help="dual pairing <u, x>")
    _add_common(pair)
    pair.add_argument("uexpr")
    pair.add_argument("xexpr")

    act = subs.add_parser("act", help="module-algebra action u . x")
    _add_common(act)
    act.add_argument("uexpr")
    act.add_argument("xexpr")

    smash = subs.add_parser("smash", help="verify the smash-product relations")
    _add_common(smash)

    ideal = subs.add_parser("ideal", help="ideal span/membership probes in S")
    ideal_subs = ideal.add_subparsers(dest="action", required=True)
    for action, has_expr in (("span", False), ("member", True), ("contain", False)):
        sp = ideal_subs.add_parser(action)
        _add_common(sp, "q", "deg")
        sp.add_argument("--ideal", default=None, help="catalog name, e.g. I1 or J1")
        sp.add_argument("--gens", default=None, help="comma-separated generator exprs")
        sp.add_argument("--side", default="twoSided", choices=("left", "twoSided"))
        sp.add_argument("--z", default="1", help="z parameter for the J families")
        if action == "contain":
            sp.add_argument("--other", default=None, help="second catalog name")
        if has_expr:
            sp.add_argument("expr")

    spec = subs.add_parser("spec", help="prime spectrum catalog probes")
    spec_subs = spec.add_subparsers(dest="action", required=True)
    for action in ("catalog", "diagram"):
        sp = spec_subs.add_parser(action)
        _add_common(sp, "deg")

    module = subs.add_parser("module", help="quotient/weight module operations")
    module_subs = module.add_subparsers(dest="action", required=True)
    for action, has_expr, options, defaults in (
        ("act", True, ("vec",), {}),
        ("probe", True, ("deg",), {"deg": 6}),
        ("growth", False, ("deg", "weight", "eigenvalue", "window"), {"deg": 24}),
        ("support", False, ("kind", "eigenvalue", "window"), {}),
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
    _add_common(sp)
    sp.add_argument("--family", required=True)
    sp.add_argument("--matrix", default=None, help="a,b,c,d for rho")
    sp.add_argument("--scalars", default=None, help="comma-separated scalars")
    sp.add_argument("--i", type=int, default=None, help="index for xi")

    verify = subs.add_parser("verify", help="run verification suites")
    _add_common(verify, "seed", "deg", "window")
    verify.add_argument("--suite", default="all", help="suite name or 'all'")
    verify.add_argument("--samples", type=int, default=30)
    return ap


def main(argv=None) -> int:
    out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, out)
    except QheisError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except (ZeroDivisionError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args, out) -> int:
    p = params(args.m, args.n)
    cmd = args.command

    if cmd == "nf":
        ctx = context_for(args.algebra, p, args.order, q0=_q0_of(args))
        el = elaborate_element(parse(args.expr), ctx)
        _emit(out, {"command": "nf", "input": args.expr, **_element_json(el)})
        return 0

    if cmd == "comm":
        ctx = context_for(args.algebra, p, args.order, q0=_q0_of(args))
        x = elaborate_element(parse(args.expr1), ctx)
        y = elaborate_element(parse(args.expr2), ctx)
        el = ctx.pres.commutator(x, y)
        _emit(out, {"command": "comm", **_element_json(el)})
        return 0

    if cmd in ("delta", "counit", "antipode"):
        ctx = context_for(args.algebra, p)
        h = hopf_Oq(p) if args.algebra == "Oq" else hopf_Uq(p)
        el = elaborate_element(parse(args.expr), ctx)
        if cmd == "delta":
            _emit(out, {"command": "delta", **_tensor_json(h.pres, h.split_coproduct(el))})
        elif cmd == "counit":
            _emit(out, {"command": "counit", "value": str(h.counit(el))})
        else:
            _emit(out, {"command": "antipode", **_element_json(h.antipode(el))})
        return 0

    if cmd == "pair":
        dp = DualPairing(p)
        u = elaborate_element(parse(args.uexpr), context_for("Uq", p))
        x = elaborate_element(parse(args.xexpr), context_for("Oq", p))
        _emit(out, {"command": "pair", "value": str(dp.pair(u, x))})
        return 0

    if cmd == "act":
        dp = DualPairing(p)
        u = elaborate_element(parse(args.uexpr), context_for("Uq", p))
        x = elaborate_element(parse(args.xexpr), context_for("Oq", p))
        _emit(out, {"command": "act", **_element_json(dp.act(u, x))})
        return 0

    if cmd == "smash":
        dp = DualPairing(p)
        ok = True
        for r in dp.check_smash():
            ok = ok and r["ok"]
            _emit(out, {"command": "smash", **r})
        return 0 if ok else 1

    if cmd == "ideal":
        return _ideal_command(args, p, out)

    if cmd == "spec":
        cat = build_spec_catalog(p, degree_bound=args.deg)
        if args.action == "catalog":
            for name in cat.named():
                _emit(
                    out,
                    {
                        "command": "spec",
                        "ideal": name,
                        "dimension": cat.ideals[name].dimension,
                        "degree_bound": args.deg,
                    },
                )
            return 0
        for edge in spec_diagram(cat):
            _emit(out, {"command": "spec", **edge})
        return 0

    if cmd == "module":
        return _module_command(args, p, out)

    if cmd == "aut":
        matrix = None
        if args.matrix:
            a, b, c, d = (int(x) for x in args.matrix.split(","))
            matrix = ((a, b), (c, d))
        scalars = (
            [parse_scalar(s) for s in args.scalars.split(",")] if args.scalars else None
        )
        f = family(args.family, p, i=args.i, matrix=matrix, scalars=scalars)
        report = check_morphism(f)
        _emit(
            out,
            {
                "command": "aut",
                "family": args.family,
                "params": {"m": p.m, "n": p.n},
                "relations_checked": report.relations_checked,
                "failures": [name for name, _ in report.failures],
                "ok": report.ok,
            },
        )
        return 0 if report.ok else 1

    if cmd == "verify":
        cfg = RunConfig(
            m=args.m,
            n=args.n,
            seed=_seed_of(args),
            deg=args.deg,
            window=args.window,
            samples=args.samples,
        )
        names = tuple(s.strip() for s in args.suite.split(","))
        unknown = [s for s in names if s != "all" and s not in SUITE_NAMES]
        if unknown:
            print(f"error: unknown suite(s) {unknown}", file=sys.stderr)
            return 2
        records, ok = run_suites(names, cfg)
        passed = sum(1 for r in records if r["ok"])
        per_suite: dict = {}
        for r in records:
            _emit(out, r)
            bucket = per_suite.setdefault(r["suite"], {"checks": 0, "passed": 0})
            bucket["checks"] += 1
            bucket["passed"] += int(r["ok"])
        _emit(
            out,
            {
                "summary": True,
                "checks": len(records),
                "passed": passed,
                "failed": len(records) - passed,
                "per_suite": per_suite,
                "seed": cfg.seed,
            },
        )
        return 0 if ok else 1

    raise AssertionError(cmd)


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


def _ideal_command(args, p, out) -> int:
    ctx = context_for("S", p, q0=_q0_of(args))
    if args.gens:
        gens = [elaborate_element(parse(g), ctx) for g in args.gens.split(",")]
        ideal = ideal_span(ctx.pres, gens, side=args.side, degree_bound=args.deg)
        label = args.gens
    else:
        name = args.ideal or "I1"
        ideal = _catalog_ideal(args, p, ctx, name)
        label = name
    if args.action == "span":
        _emit(
            out,
            {
                "command": "ideal",
                "action": "span",
                "ideal": label,
                "dimension": ideal.dimension,
                "degree_bound": ideal.degree_bound,
            },
        )
        return 0
    if args.action == "member":
        el = elaborate_element(parse(args.expr), ctx)
        status = ideal.member(el)
        _emit(
            out,
            {"command": "ideal", "action": "member", "ideal": label, "status": status},
        )
        return 0
    other = _catalog_ideal(args, p, ctx, args.other or "I3")
    report = containment_probe(ideal, other)
    _emit(
        out,
        {
            "command": "ideal",
            "action": "contain",
            "small": label,
            "big": args.other or "I3",
            "status": report.status,
        },
    )
    return 0


def _module_command(args, p, out) -> int:
    sigma = parse_scalar(args.sigma)
    tau = parse_scalar(args.tau)
    mod = QuotientModule(args.family, sigma, tau, p)
    if args.action == "act":
        ctx = context_for("S", p, order_key=args.family)
        el = elaborate_element(parse(args.expr or "1"), ctx)
        i, j = (int(x) for x in args.vec.split(","))
        got = mod.act(el, mod.basis_vector(i, j))
        _emit(
            out,
            {
                "command": "module",
                "action": "act",
                "family": args.family,
                "vector": mod.render_vector(got),
            },
        )
        return 0
    if args.action == "probe":
        ctx = context_for("S", p, order_key=args.family)
        el = elaborate_element(parse(args.expr or "1"), ctx)
        w = mod.act(el, mod.cyclic_vector())
        verdict = cyclicity_probe(mod, w, args.deg) if w else "ZeroVector"
        _emit(
            out,
            {
                "command": "module",
                "action": "probe",
                "family": args.family,
                "verdict": verdict,
            },
        )
        return 0
    if args.action == "growth":
        if args.weight:
            target = WeightModule("K", parse_scalar(args.eigenvalue), mod, args.window)
        else:
            target = mod
        slope = growth_exponent(target, args.deg)
        _emit(
            out,
            {
                "command": "module",
                "action": "growth",
                "family": args.family,
                "weight": bool(args.weight),
                "exponent": round(slope, 6),
            },
        )
        return 0
    wm = WeightModule(args.kind, parse_scalar(args.eigenvalue), mod, args.window)
    values = sorted(str(v) for v in wm.support())
    _emit(
        out,
        {
            "command": "module",
            "action": "support",
            "kind": args.kind,
            "window": args.window,
            "support": values,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
