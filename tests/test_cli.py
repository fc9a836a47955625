"""Command surface: JSON output, determinism, exit codes."""

import io
import json
import re
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
