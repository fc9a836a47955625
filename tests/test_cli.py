"""Command surface: JSON output, determinism, exit codes."""

import argparse
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import qheis
from qheis import qfield
from qheis.cli import _dispatch, build_parser, main


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def lines_of(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def test_nf_smash_relation():
    code, out = run_cli(["nf", "--algebra", "Dq", "--m", "1", "--n", "1", "E*c"])
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["terms"] == [
        {"coeff": "1", "mono": {"E": 1, "c": 1}},
        {"coeff": "q^-1", "mono": {"K": 1, "a": -1}},
    ]


def test_nf_renders_each_coefficient_once(monkeypatch):
    """36 terms, 18 of them with a negative coefficient: the JSON `coeff`
    and the `text` share one rendering of each coefficient, where
    rendering them apart took 71."""
    calls = []
    parts = qfield._poly_parts

    def counted(*args):
        calls.append(args)
        return parts(*args)

    monkeypatch.setattr(qfield, "_poly_parts", counted)
    code, out = run_cli(["nf", "--algebra", "S", "--m", "2", "--n", "2", "cp^5*bp^5*Fp^5*Ep^5"])
    (rec,) = lines_of(out)
    assert code == 0 and len(rec["terms"]) == 36
    assert sum(t["coeff"].startswith("-") for t in rec["terms"]) == 18
    assert 0 < len(calls) <= 36


def test_pair_value():
    code, out = run_cli(["pair", "--m", "1", "--n", "1", "K", "a"])
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["value"] == "q^-1"


def test_act_value():
    code, out = run_cli(["act", "--m", "1", "--n", "2", "F", "b"])
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["terms"] == [{"coeff": "1", "mono": {"a": 2}}]


def test_counit_and_antipode():
    code, out = run_cli(["counit", "--algebra", "Oq", "3*q*a + c"])
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["value"] == "3*q"
    code, out = run_cli(["antipode", "--algebra", "Oq", "--m", "1", "--n", "1", "b"])
    (rec,) = lines_of(out)
    assert rec["terms"] == [{"coeff": "-q^-1", "mono": {"b": 1}}]


def test_comm_command():
    code, out = run_cli(["comm", "--algebra", "S", "--m", "1", "--n", "1", "Ep", "cp"])
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["text"] == "(-q^-2 + 1)*Ep*cp + q^-2"


def test_smash_command():
    code, out = run_cli(["smash", "--m", "1", "--n", "1"])
    assert code == 0
    recs = lines_of(out)
    assert len(recs) == 16
    assert all(r["ok"] for r in recs)


def test_ideal_member():
    code, out = run_cli(
        ["ideal", "member", "--ideal", "I3", "--m", "1", "--n", "1", "--deg", "6", "1"]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["status"] == "NotDetected"
    code, out = run_cli(
        ["ideal", "member", "--ideal", "I1", "--m", "1", "--n", "1", "--deg", "6", "phi1"]
    )
    (rec,) = lines_of(out)
    assert rec["status"] == "Verified"


def test_ideal_contain_and_span():
    code, out = run_cli(
        ["ideal", "contain", "--ideal", "I1", "--other", "I3", "--m", "1", "--n", "1", "--deg", "6"]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["status"] == "Contained"
    code, out = run_cli(
        ["ideal", "span", "--gens", "phi1", "--m", "1", "--n", "1", "--deg", "4"]
    )
    (rec,) = lines_of(out)
    assert rec["dimension"] > 0


@pytest.mark.parametrize(
    "argv, spans",
    [
        (["ideal", "contain", "--ideal", "I1", "--other", "I3", "--deg", "4"], 2),
        (["ideal", "span", "--ideal", "J2", "--z", "q", "--deg", "4"], 1),
    ],
)
def test_catalog_ideal_builds_only_the_ideals_named(monkeypatch, argv, spans):
    import qheis.cli
    import qheis.ideals

    original = qheis.ideals.ideal_span
    built = []

    def counted(spres, generators, *args, **kwargs):
        built.append(len(generators))
        return original(spres, generators, *args, **kwargs)

    monkeypatch.setattr(qheis.ideals, "ideal_span", counted)
    monkeypatch.setattr(qheis.cli, "ideal_span", counted)
    code, _ = run_cli(argv)
    assert (code, len(built)) == (0, spans)


def test_catalog_ideal_unknown_name(capsys):
    code, out = run_cli(["ideal", "span", "--ideal", "I9", "--deg", "4"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: QheisError: unknown catalog ideal 'I9'\n"


def test_spec_diagram():
    code, out = run_cli(["spec", "diagram", "--m", "1", "--n", "1", "--deg", "6"])
    assert code == 0
    recs = lines_of(out)
    statuses = {(r["from"], r["to"]): r["status"] for r in recs}
    assert statuses[("I1", "I3")] == "Contained"


def test_module_commands():
    code, out = run_cli(
        ["module", "act", "--family", "J1", "--m", "1", "--n", "1", "Fp"]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["vector"] == "1*Fp^1.v"
    code, out = run_cli(
        ["module", "probe", "--family", "J2", "--m", "1", "--n", "1", "--deg", "4", "Fp"]
    )
    (rec,) = lines_of(out)
    assert rec["verdict"] == "Cyclic"
    code, out = run_cli(
        ["module", "growth", "--family", "J1", "--m", "1", "--n", "1", "--deg", "24"]
    )
    (rec,) = lines_of(out)
    assert 1.7 <= rec["exponent"] <= 2.3


@pytest.mark.parametrize(
    "argv",
    [
        ["module", "act", "--vec=-1,0", "Ep"],
        ["module", "act", "--vec=0,-1", "bp"],
        ["module", "act", "--family", "J3", "--vec=-2,-2", "1"],
        ["module", "probe", "--deg", "-3", "Ep"],
    ],
    ids=" ".join,
)
def test_module_inputs_out_of_range_exit_2(argv):
    """A negative basis exponent or multiplier degree is a usage error with
    no output, not an answer such as `1.v` or `Undetermined`."""
    code, out = run_cli(argv)
    assert code == 2 and out == ""


def test_module_support_window():
    code, out = run_cli(
        ["module", "support", "--kind", "K", "--window", "1", "--eigenvalue", "2"]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert sorted(rec["support"]) == sorted(["2", "2*q", "2*q^-1"])


def test_aut_failure_exit_code():
    code, out = run_cli(["aut", "check", "--family", "tau", "--m", "1", "--n", "2"])
    assert code == 2  # constraint violation is a usage error


def test_rational_q_mode():
    code, out = run_cli(
        ["nf", "--algebra", "Dq", "--m", "1", "--n", "1", "--q", "3/2", "E*c"]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["terms"][1]["coeff"] == "2/3"


def test_rational_q_mode_ideal():
    code, out = run_cli(
        ["ideal", "member", "--ideal", "I1", "--deg", "6", "--q", "3/2", "phi1"]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["status"] == "Verified"


@pytest.mark.parametrize(
    "expr, status", [("phi1 - q*bp", "Verified"), ("phi1 - 2*bp", "NotDetected")]
)
def test_rational_q_mode_symbolic_z(expr, status):
    """--z q with --q=3/2 is z = 3/2, so J1(z) holds phi1 - q*bp there."""
    code, out = run_cli(
        ["ideal", "member", "--ideal", "J1", "--deg", "4", "--q=3/2", "--z", "q", expr]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["status"] == status


@pytest.mark.parametrize(
    "argv, err",
    [
        (["nf", "--q=1/0", "E"], "InvalidParameter: --q=1/0 has a zero denominator"),
        (
            ["ideal", "member", "--ideal", "I1", "--q=2/0", "phi1"],
            "InvalidParameter: --q=2/0 has a zero denominator",
        ),
        (["nf", "--q=abc", "E"], "Invalid literal for Fraction: 'abc'"),
        (["nf", "--q=0", "E"], "InvalidParameter: q = 0 is excluded (root of unity or zero)"),
    ],
    ids=["nf-1/0", "member-2/0", "abc", "zero"],
)
def test_a_q_that_is_no_admissible_rational_exits_2(argv, err, capsys):
    """A zero denominator names --q; the other refusals keep their text."""
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


SRC = Path(__file__).resolve().parent.parent / "src"
Q_WORDS = ["E^3*c^2", "b^2*F^3", "E*c*b*F", "K*E^2*c*a^-1", "phi1*E+phi2"]


def test_nf_at_q0_specializes_once_per_process(monkeypatch):
    """Five `nf --q=3/2` calls on Dq at (2, 3) build the specialized Dq
    once and reuse it; each prints the bytes of a fresh process."""
    p = qheis.params(2, 3)
    argv = ["nf", "--algebra", "Dq", "--m", "2", "--n", "3", "--q=3/2"]
    assert run_cli(argv[:-1] + ["E"])[0] == 0  # the preset and its primed images
    qheis.presets.make_Dq(p)._specialized.clear()
    built = []
    init = qheis.rewrite.Presentation.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(qheis.rewrite.Presentation, "__init__", counted)
    outs = [run_cli(argv + [word]) for word in Q_WORDS]
    assert len(built) == 1
    code = "import sys; from qheis.cli import main; sys.exit(main(sys.argv[1:]))"
    for word, (status, out) in zip(Q_WORDS, outs):
        fresh = subprocess.run(
            [sys.executable, "-c", code, *argv, word],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
            check=True,
        )
        assert (status, out) == (0, fresh.stdout)


def test_verify_deterministic_and_exit_zero():
    args = ["verify", "--suite", "confluence,smash", "--m", "1", "--n", "1", "--seed", "3"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    summary = lines_of(out1)[-1]
    assert summary["failed"] == 0


def test_verify_unknown_suite():
    code, _ = run_cli(["verify", "--suite", "bogus"])
    assert code == 2


def test_parse_error_exit():
    code, _ = run_cli(["nf", "--algebra", "Oq", "b^-1"])
    assert code == 2
    code, _ = run_cli(["nf", "--algebra", "Oq", "a +"])
    assert code == 2


def test_env_seed(monkeypatch):
    monkeypatch.setenv("QHEIS_SEED", "11")
    code, out = run_cli(["verify", "--suite", "smash"])
    assert code == 0
    assert lines_of(out)[-1]["seed"] == 11


def test_the_package_reads_no_environment_variable_but_the_seed():
    """Each read of os.environ or getenv in the package names its variable
    as a literal, and QHEIS_SEED is the only one: a new switch shows here."""
    names = set()
    for path in sorted(Path(qheis.__file__).parent.rglob("*.py")):
        text = path.read_text()
        reads = re.findall(r"\b(?:environ|getenv)\b", text)
        named = re.findall(
            r"""\b(?:environ(?:\.get)?\s*[\[(]|getenv\s*\()\s*["']([A-Za-z0-9_]+)["']""", text
        )
        assert len(named) == len(reads), path.name
        names.update(named)
    assert names == {"QHEIS_SEED"}


def test_cached_parser_matches_fresh_parser():
    """main reuses one parser; each call must print what a newly built
    parser prints, whatever options the calls before it passed."""
    assert build_parser() is build_parser()
    runs = [
        ["nf", "--q=3/2", "E*c"],
        ["nf", "E*c"],
        ["nf", "--algebra", "S", "--order", "J3", "--m", "2", "--n", "-3", "cp*Ep"],
        ["nf", "E*c"],
    ]
    for argv in runs:
        code, cached = run_cli(argv)
        fresh = io.StringIO()
        assert _dispatch(build_parser.__wrapped__().parse_args(argv), fresh) == code == 0
        assert cached == fresh.getvalue()


def test_json_option_removed():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nf", "--json", "E*c"])


@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "--q=2", "K", "a"],
        ["spec", "catalog", "--q=2"],
        ["nf", "--seed", "3", "E"],
        ["module", "act", "--q=2", "Fp"],
        ["delta", "--algebra", "Dq", "b"],
    ],
    ids=" ".join,
)
def test_option_a_command_does_not_read_is_a_usage_error(argv):
    """An option the command would ignore must not run it with a silent
    default (symbolic q, seed 0, a Hopf structure that does not exist)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["module", "act", "--deg", "3", "--window", "9", "--weight", "--kind", "a",
         "--eigenvalue", "5", "--vec", "0,1", "Fp"],
        ["module", "act", "--deg", "3", "Fp"],
        ["module", "probe", "--vec", "0,1", "Fp"],
        ["module", "probe", "--window", "9", "Fp"],
        ["module", "growth", "--kind", "a"],
        ["module", "growth", "--vec", "0,1"],
        ["module", "support", "--deg", "3"],
        ["module", "support", "--weight"],
        ["ideal", "span", "--gens", "phi1", "--deg", "3", "--other", "I2"],
        ["ideal", "member", "--other", "I2", "phi1"],
    ],
    ids=" ".join,
)
def test_module_and_ideal_actions_take_only_the_options_they_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["module", "act", "--family", "J2", "--sigma", "q", "--tau", "0", "--vec", "0,1", "Fp"],
        ["module", "probe", "--deg", "3", "Fp"],
        ["module", "growth", "--deg", "6", "--weight", "--eigenvalue", "2", "--window", "2"],
        ["module", "support", "--kind", "a", "--eigenvalue", "2", "--window", "2"],
        ["ideal", "contain", "--ideal", "I1", "--other", "I3", "--deg", "3"],
    ],
    ids=" ".join,
)
def test_module_and_ideal_actions_take_the_options_they_read(argv):
    args = build_parser().parse_args(argv)
    assert args.action == argv[1]


def test_module_act_parenthesizes_multi_term_coefficients():
    code, out = run_cli(
        ["module", "act", "--family", "J4", "--sigma", "q", "--vec", "1,2",
         "Ep*cp*bp^2 + Fp"]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["vector"] == (
        "1*cp^2.v + q^-5*bp^1*cp^2.v + (1 + q^2 + q^4)*bp^3*cp^2.v"
    )


@pytest.mark.parametrize(
    "family, scalars, m, n",
    [
        ("zeta", "2,q,-3", 1, 1),
        ("zeta2", "2,q", 1, 1),
        ("zeta2", "1/2,q^2", 2, -3),
        ("xi34", "2,-q", 1, 1),
        ("dual-embed", None, 1, 1),
        ("uq-to-oq", None, 1, 1),
    ],
)
def test_aut_families_check_ok(family, scalars, m, n):
    argv = ["aut", "check", "--family", family, "--m", str(m), f"--n={n}"]
    if scalars is not None:
        argv += ["--scalars", scalars]
    code, out = run_cli(argv)
    (rec,) = lines_of(out)
    assert code == 0 and rec["ok"] is True and rec["failures"] == []
    assert rec["family"] == family and rec["params"] == {"m": m, "n": n}


@pytest.mark.parametrize(
    "family, scalars",
    [("zeta", "2,q"), ("zeta", None), ("zeta2", "2"), ("xi34", "1,2,3")],
)
def test_aut_wrong_number_of_scalars_exits_2(family, scalars, capsys):
    argv = ["aut", "check", "--family", family]
    if scalars is not None:
        argv += ["--scalars", scalars]
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert "needs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options",
    [
        ["--family", "rho", "--matrix", "2,1,1,1", "--scalars", "3"],
        ["--family", "tau", "--i", "3", "--m", "2", "--n", "-2"],
        ["--family", "dual-embed", "--scalars", "2"],
    ],
    ids=["rho-scalars", "tau-i", "dual-embed-scalars"],
)
def test_aut_option_its_family_does_not_read_exits_2(options, capsys):
    code, out = run_cli(["aut", "check", *options])
    assert code == 2 and out == ""
    assert "takes no parameter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "q, coeff", [(None, "q^-2"), ("3/2", "4/9")], ids=["symbolic", "q3/2"]
)
def test_nf_on_the_torus(q, coeff):
    argv = ["nf", "--algebra", "torus", "Fp*Ep^-1*Fp"]
    if q is not None:
        argv += ["--q", q]
    code, out = run_cli(argv)
    (rec,) = lines_of(out)
    assert code == 0
    assert rec["terms"] == [{"coeff": coeff, "mono": {"Ep": -1, "Fp": 2}}]
    assert rec["text"] == f"{coeff}*Ep^-1*Fp^2"


def test_module_probe_of_degree_zero_is_undetermined():
    """Multipliers of degree 0 only rescale Ep.v, which cannot reach v."""
    code, out = run_cli(["module", "probe", "--family", "J1", "--deg", "0", "Ep"])
    (rec,) = lines_of(out)
    assert code == 0 and rec["verdict"] == "Undetermined"


def _failing_smash(self):
    """The smash checks with only the first one failing."""
    return [
        {"u": "K", "x": "a", "ok": False, "direct": "K*a", "rebuilt": "0"},
        {"u": "K", "x": "b", "ok": True, "direct": "K*b", "rebuilt": "K*b"},
    ]


def test_aut_check_that_fails_exits_1(monkeypatch):
    import qheis.cli
    from qheis.morphisms import MorphismReport

    report = MorphismReport(ok=False, relations_checked=7, failures=[("b*a", None)])
    monkeypatch.setattr(qheis.cli, "check_morphism", lambda f: report)
    code, out = run_cli(["aut", "check", "--family", "dual-embed"])
    (rec,) = lines_of(out)
    assert code == 1
    assert rec["ok"] is False and rec["failures"] == ["b*a"]
    assert rec["relations_checked"] == 7


def test_smash_that_fails_exits_1(monkeypatch):
    monkeypatch.setattr(qheis.DualPairing, "check_smash", _failing_smash)
    code, out = run_cli(["smash"])
    recs = lines_of(out)
    assert code == 1
    assert [r["ok"] for r in recs] == [False, True]
    assert all(r["command"] == "smash" for r in recs)


def test_verify_with_a_failing_suite_exits_1(monkeypatch):
    monkeypatch.setattr(qheis.DualPairing, "check_smash", _failing_smash)
    code, out = run_cli(["verify", "--suite", "smash"])
    *recs, summary = lines_of(out)
    assert code == 1
    assert [(r["suite"], r["check"], r["ok"]) for r in recs] == [
        ("smash", "K*a", False),
        ("smash", "K*b", True),
    ]
    assert (summary["checks"], summary["passed"], summary["failed"]) == (2, 1, 1)
    assert summary["per_suite"] == {"smash": {"checks": 2, "passed": 1}}


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_with_fewer_than_one_sample_exits_2(samples, capsys):
    """With no sample the sampled checks hold vacuously; their records
    would pass while checking nothing."""
    argv = ["verify", "--suite", "hopf,modules,pairing-action", f"--samples={samples}"]
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: --samples must be at least 1, not {samples}\n"


def test_verify_takes_no_window(capsys):
    """The weight modules of suites weights and growth have a fixed window
    of 4 layers each side, so verify takes no --window to ignore."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "weights", "--window", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --window 4" in captured.err


@pytest.mark.parametrize("window", ["0", "-2"])
def test_verify_with_a_window_below_one_exits_2(window, capsys):
    """A window below one, which would leave the weights suite's relation
    loops over no layer, is refused like any other --window."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "weights", f"--window={window}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --window={window}" in captured.err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["nf", "--algebra", "Dq", "--order", "J3", "E*c"],
         "error: --order applies to --algebra S only, not Dq\n"),
        (["comm", "--order", "J2", "E", "c"],
         "error: --order applies to --algebra S only, not Dq\n"),
        (["ideal", "span", "--ideal", "J1", "--side", "left"],
         "error: --side applies to --gens only: a catalog ideal is two-sided\n"),
        (["ideal", "member", "--side", "twoSided", "phi1"],
         "error: --side applies to --gens only: a catalog ideal is two-sided\n"),
    ],
    ids=["nf --order on Dq", "comm --order on Dq", "span --side on J1", "member --side on I1"],
)
def test_option_the_command_would_ignore_exits_2(argv, err, capsys):
    """--order orders S only, and a catalog span is always two-sided, so
    each would be accepted and then ignored."""
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == err


def test_order_and_side_still_apply_where_they_are_read():
    def record(argv):
        code, out = run_cli(argv)
        assert code == 0
        return lines_of(out)[0]

    nf = ["nf", "--algebra", "S", "Ep*Fp*bp*cp"]
    assert record(nf)["text"] == record([*nf, "--order", "J1"])["text"] == "Ep*Fp*bp*cp"
    assert record([*nf, "--order", "J3"])["text"] == "q^-2*Ep*bp*Fp*cp + Ep*cp"
    span = ["ideal", "span", "--gens", "cp", "--deg", "3"]
    assert record(span)["dimension"] == record([*span, "--side", "twoSided"])["dimension"] == 35
    assert record([*span, "--side", "left"])["dimension"] == 15


@pytest.mark.parametrize(
    "argv, err",
    [
        (["ideal", "span", "--gens", "cp", "--deg", "3", "--ideal", "I2"],
         "error: --ideal and --gens both name the ideal: give one\n"),
        (["ideal", "span", "--gens", "cp", "--deg", "3", "--ideal", "I2", "--z", "5"],
         "error: --ideal and --gens both name the ideal: give one\n"),
        (["ideal", "span", "--gens", "cp", "--deg", "3", "--z", "5"],
         "error: --z applies to the catalog ideals J1 and J2 only\n"),
        (["ideal", "span", "--ideal", "I1", "--deg", "3", "--z", "5"],
         "error: --z applies to the catalog ideals J1 and J2 only\n"),
        (["ideal", "member", "--z", "2", "phi1"],
         "error: --z applies to the catalog ideals J1 and J2 only\n"),
        (["ideal", "contain", "--ideal", "I2", "--z", "1"],
         "error: --z applies to the catalog ideals J1 and J2 only\n"),
    ],
    ids=["span --ideal with --gens", "span --ideal --z with --gens", "span --z with --gens",
         "span --z on I1", "member --z on I1", "contain --z on I2 and I3"],
)
def test_ideal_option_the_command_would_ignore_exits_2(argv, err, capsys):
    """--gens names the ideal itself, and --z is read for J1 and J2 only,
    so each would be accepted and then ignored."""
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == err


def test_z_still_applies_where_it_is_read():
    def record(argv):
        code, out = run_cli(argv)
        assert code == 0
        return lines_of(out)[0]

    span = ["ideal", "span", "--ideal", "J1", "--deg", "3"]
    assert record(span) == record([*span, "--z", "1"])
    assert record([*span, "--z", "5"])["ideal"] == "J1"
    contain = ["ideal", "contain", "--ideal", "I2", "--other", "J1"]
    assert record(contain) == record([*contain, "--z", "1"])
    assert record(["ideal", "contain", "--gens", "cp", "--other", "J2", "--z", "3", "--deg", "3"])


def _leaf_commands(parser, path=()):
    """(command words, subparser) of each command that takes no action."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_commands(sub, (*path, name))


def test_every_leaf_command_names_its_handler(capsys):
    leaves = list(_leaf_commands(build_parser()))
    assert len(leaves) == 19
    for path, sub in leaves:
        assert callable(sub.get_default("run")), path
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0, path
        assert capsys.readouterr().out.startswith(f"usage: qheis {' '.join(path)} "), path
