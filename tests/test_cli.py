import argparse
import contextlib
import functools
import hashlib
import io
import json
import random
import re
import runpy
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dscodes import cli, field, secretshare
import parity

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src/dscodes/schemas/output.schema.json").read_text())
PARITY_ROWS = json.loads(parity.PARITY_FILE.read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, err


def test_field_command(capsys):
    code, payload, _ = run_json(capsys, "field", "--p", "3", "--m", "2")
    assert code == 0
    assert payload["field"]["q"] == 9
    assert payload["field"]["modulus"] == [1, 0, 1]


def test_field_honors_modulus_override(capsys):
    code, payload, _ = run_json(
        capsys, "field", "--p", "2", "--m", "3", "--field-poly", "1,1,0,1"
    )
    assert code == 0
    assert payload["field"]["modulus"] == [1, 1, 0, 1]


def test_code_command_cubic_example(capsys):
    code, payload, _ = run_json(capsys, "code", "--p", "2", "--m", "5", "--set", "trcubic")
    assert code == 0
    c = payload["code"]
    assert (c["n"], c["k"]) == (11, 5)
    assert c["enumerator"] == "1+10z^4+16z^6+5z^8"
    assert c["dual"] == {"n_minus_k": 6, "d": 3}
    assert c["pless_ok"] is True


def test_verify_match_exits_zero(capsys):
    code, payload, _ = run_json(capsys, "verify", "--claim", "thm5", "--m", "6")
    assert code == 0
    assert payload["report"]["verdict"] == "match"


def test_verify_hypothesis_not_met_exits_one(capsys):
    code, payload, _ = run_json(capsys, "verify", "--claim", "thm4", "--m", "4")
    assert code == 1
    assert payload["report"]["verdict"] == "hypothesis-not-met"


def test_verify_mismatch_exits_two(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--claim", "cor4even", "--p", "3", "--m", "2",
        "--set", "qf:1,0,1",
    )
    assert code == 2
    assert payload["report"]["verdict"] == "mismatch"
    assert payload["report"]["first_diff"]["w"] == 4


USAGE_ERROR_ARGV = [
    ["verify", "--claim", "nosuch", "--m", "5"],
    ["code", "--p", "2", "--m", "4", "--set", "nosuch"],
    ["code", "--p", "2", "--m", "40", "--set", "simplex"],
    ["verify", "--m", "5"],
    ["ssreport", "--m", "6", "--set", "trcubic", "--format", "csv"],
    ["nosuchcommand"],
    ["code", "--p", "2", "--m", "4", "--set", "simplex", "--format", "bogus"],
    ["field", "--m", "abc"],
    ["field", "--m", "3..x"],
    ["scan", "--claim", "thm4", "--m", "5..a"],
    ["code", "--p", "2", "--m", "4", "--set", "simplex", "--threads", "2"],
    ["code", "--p", "2", "--m", "4"],
    ["ssreport", "--m", "3", "--set", "trcubic"],
]


def test_usage_errors_exit_three(capsys):
    for argv in USAGE_ERROR_ARGV:
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert err != ""


# the flags each subcommand reads, besides --format
FLAGS_READ = {
    "field": {"--p", "--m", "--field-poly", "--max-q"},
    "code": {"--p", "--m", "--field-poly", "--max-q", "--set"},
    "verify": {"--claim", "--p", "--m", "--h", "--set", "--field-poly", "--seed", "--max-q"},
    "scan": {"--claim", "--p", "--m", "--h", "--seed", "--max-q"},
    "expsum": {"--m", "--field-poly", "--max-q", "--a", "--b"},
    "walsh": {"--m", "--field-poly", "--max-q", "--set"},
    "ssreport": {"--p", "--m", "--field-poly", "--max-q", "--set"},
}
FLAG_VALUES = {
    "--p": "2", "--m": "3", "--h": "1", "--set": "simplex", "--claim": "thm4",
    "--field-poly": "1,1,0,1", "--seed": "1", "--max-q": "64", "--a": "1", "--b": "1",
}
# a valid invocation of each subcommand, the base the unread flags are added to
BASE_ARGV = {
    "field": ["field", "--m", "3"],
    "code": ["code", "--m", "3", "--set", "simplex"],
    "verify": ["verify", "--claim", "thm4", "--m", "5"],
    "scan": ["scan", "--claim", "thm4", "--m", "5"],
    "expsum": ["expsum", "--m", "3"],
    "walsh": ["walsh", "--m", "3"],
    "ssreport": ["ssreport", "--m", "3", "--set", "simplex"],
}
UNREAD_ARGV = [
    BASE_ARGV[cmd] + [flag, value]
    for cmd, read in FLAGS_READ.items()
    for flag, value in FLAG_VALUES.items()
    if flag not in read
] + [
    BASE_ARGV[cmd] + ["--format", "csv"] for cmd in ("field", "expsum", "walsh", "ssreport")
] + [
    # flags that the claim's row does not read
    ["verify", "--claim", "thm1prop", "--m", "2", "--set", "simplex"],
    ["verify", "--claim", "cor1", "--m", "3", "--set", "simplex"],
    ["verify", "--claim", "thm3", "--h", "1", "--set", "simplex"],
    ["verify", "--claim", "thm4", "--m", "5", "--set", "simplex"],
    ["verify", "--claim", "thm5", "--m", "4", "--set", "simplex"],
    ["verify", "--claim", "thm4", "--m", "5", "--h", "1"],
    ["scan", "--claim", "cor1", "--m", "3", "--h", "1"],
    ["verify", "--claim", "thm3", "--h", "1", "--m", "3"],
    ["verify", "--claim", "thm3", "--h", "1", "--field-poly", "1,2,0,1"],
    ["scan", "--claim", "thm3", "--h", "1", "--m", "3"],
    # --seed is read only by the thm1prop sweep (verify) and the cor3 family (scan)
    ["verify", "--claim", "thm4", "--m", "5", "--seed", "3"],
    ["verify", "--claim", "cor3", "--m", "5", "--set", "trcubic", "--seed", "3"],
    ["verify", "--claim", "thm3", "--h", "1", "--seed", "3"],
    ["scan", "--claim", "thm5", "--m", "4", "--seed", "3"],
    ["scan", "--claim", "cor1", "--m", "3", "--seed", "3"],
    ["scan", "--claim", "thm1prop", "--m", "2", "--seed", "3"],
]


@pytest.mark.parametrize("argv", BASE_ARGV.values(), ids=BASE_ARGV)
def test_flag_table_base_invocations_run(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out


@pytest.mark.parametrize("argv", UNREAD_ARGV, ids=" ".join)
def test_unread_flags_exit_three_before_any_field(capsys, monkeypatch, argv):
    def boom(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(field, "_cached_field", boom)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err != ""


OVERSIZED_ARGV = [
    ["code", "--set", "simplex", "--m", "20000"],
    ["code", "--set", "simplex", "--m", "3000000000"],
    ["code", "--set", "simplex", "--m", "99999999999999999999"],
    ["field", "--p", "2", "--m", "100000000"],
    ["field", "--p", "251", "--m", "2", "--max-q", "0"],
    ["verify", "--claim", "thm3", "--h", "2000000000"],
    ["scan", "--claim", "thm4", "--m", "1..3000000000"],
    ["scan", "--claim", "thm3", "--h", "1..2000000000"],
]


@pytest.mark.parametrize("argv", OVERSIZED_ARGV, ids=" ".join)
def test_oversized_sizes_exit_three_before_any_power(capsys, monkeypatch, argv):
    def boom(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(field, "_cached_field", boom)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "exceeds --max-q" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, needle", [
    (["code", "--m", "3", "--set", "product:1..3000000000"], "inside GF(p)*"),
    (["verify", "--claim", "thm1", "--m", "3", "--set", "product:1..3000000000"], "inside GF(p)*"),
    (["scan", "--claim", "cor3", "--p", "2", "--m", "1"], "GF(2^1) is too small for cor3"),
], ids=["code product", "verify thm1 product", "scan cor3 GF(2^1)"])
def test_long_digit_ranges_and_tiny_cor3_fields_exit_three(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert needle in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["scan", "--claim", "thm3", "--h=-3000000000..3"],
    ["scan", "--claim", "thm3", "--h=-1..3"],
    ["scan", "--claim", "thm3", "--h", "3,1,-1"],
    ["scan", "--claim", "thm3", "--h", "0"],
    ["scan", "--claim", "thm4", "--m", "0,5"],
    ["scan", "--claim", "cor1", "--m=-2..3"],
], ids=" ".join)
def test_scan_values_below_one_exit_three_before_any_instance(capsys, monkeypatch, argv):
    def boom(*args, **kwargs):
        raise AssertionError("a scan started")

    monkeypatch.setattr(cli.theorems, "scan", boom)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "is below 1" in err and "Traceback" not in err


def test_verify_h_zero_is_a_hypothesis_report_not_a_usage_error(capsys):
    # only a scan's list or range is refused below 1; one value is the claim's to judge
    code, out, err = run(capsys, "verify", "--claim", "thm3", "--h", "0", "--format", "text")
    assert code == 1 and err == ""
    assert out == (
        "claim thm3 {'p': 3, 'h': 0, 'm': 0}: hypothesis-not-met\n"
        "  [FAIL] h-positive  h = 0\n"
        "  [FAIL] h-odd  h = 0\n"
    )
    code, out, _ = run(capsys, "verify", "--claim", "thm3", "--h", "0")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2f735006bae8019517fbec6f8be2179ad64e1f39c43f8ed7c6760ae8dab96f19"
    )


def test_weight_routes_past_their_bounds_exit_three(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("the gather started past its bound")

    # GF(27) holds 13 simplex elements: a gather of 351 cells, a transform
    # state of 81
    monkeypatch.setattr("dscodes.code.GATHER_MAX_CELLS", 1 << 8)
    monkeypatch.setattr("dscodes.code.TRANSFORM_MAX_CELLS", 1 << 6)
    monkeypatch.setattr("dscodes.code._weights_by_gather", boom)
    for argv in (
        ["code", "--p", "3", "--m", "3", "--set", "simplex"],
        ["ssreport", "--p", "3", "--m", "3", "--set", "simplex"],
        ["verify", "--claim", "cor3", "--p", "3", "--m", "3", "--set", "simplex"],
        ["scan", "--claim", "cor1", "--p", "3", "--m", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "GATHER_MAX_CELLS" in err


def test_a_transform_that_fits_runs_past_the_gathers_bound(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("the gather started past its bound")

    argv = ("code", "--p", "3", "--m", "3", "--set", "simplex")
    expected = run(capsys, *argv)
    # 351 gather cells past the bound, a transform state of 81 within its own
    monkeypatch.setattr("dscodes.code.GATHER_MAX_CELLS", 1 << 8)
    monkeypatch.setattr("dscodes.code._weights_by_gather", boom)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0


def test_cor3_refuses_an_unfit_complement_before_enumerating(capsys, monkeypatch, tmp_path):
    def boom(*args):
        raise AssertionError("the base set was enumerated")

    # a base of 3 elements of GF(16) fits a 48-cell gather, its complement's
    # 208 cells do not, nor does a transform state of 32 cells
    table = tmp_path / "table.txt"
    table.write_text("1000000000000110\n")
    monkeypatch.setattr("dscodes.code.GATHER_MAX_CELLS", 1 << 6)
    monkeypatch.setattr("dscodes.code.TRANSFORM_MAX_CELLS", 1 << 4)
    monkeypatch.setattr("dscodes.code._weights_by_gather", boom)
    code, out, err = run(capsys, "verify", "--claim", "cor3", "--m", "4", "--set", f"bool:{table}")
    assert code == 3
    assert out == ""
    assert "GATHER_MAX_CELLS" in err


def test_outputs_are_byte_identical(capsys):
    argv = ("scan", "--claim", "cor2", "--p", "3", "--m", "2,3")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("row", PARITY_ROWS, ids=parity.row_id)
def test_cli_parity(tmp_path, row):
    # exit code and stdout bytes of every row, recorded by tests/parity.py
    code, out = parity.run_row(row["argv"], tmp_path)
    assert code == row["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == row["sha256"]


def test_every_parity_row_in_reverse_in_one_process(tmp_path):
    # one process, rows in reverse: a value one row left behind in the module
    # would change a later row's exit code or stdout
    for row in reversed(PARITY_ROWS):
        code, out = parity.run_row(row["argv"], tmp_path)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (row["exit"], row["sha256"]), parity.row_id(row)


class _Refused(Exception):
    pass


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2
        raise _Refused(message)


def _argparse_oracle():
    """An argparse tree from `cli._COMMANDS` and `cli._FLAGS`, with no
    abbreviations at any level: the parser `cli.parse_args` stands in for."""
    parser = _OracleParser(prog="dscodes", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, required, optional, formats) in cli._COMMANDS.items():
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.set_defaults(fn=fn)
        for flag in f"{required} {optional} --format".split():
            kwargs = {k: v for k, v in cli._FLAGS[flag].items() if k != "help"}
            if "choices" in kwargs or flag == "--format":
                kwargs["choices"] = (formats if flag == "--format" else kwargs["choices"]).split()
            cmd.add_argument(flag, required=flag in required.split(), **kwargs)
        if required == "--claim":
            cmd.set_defaults(p=None)
    return parser


def _outcome(parse, argv):
    """("ok", namespace dict), ("help", None) or ("refused", None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(list(argv))
    except (cli.UsageError, _Refused):
        return "refused", None
    except SystemExit as exc:  # argparse's -h
        assert exc.code == 0
        args = None
    if args is None:
        assert out.getvalue().startswith("usage: dscodes")
        return "help", None
    return "ok", vars(args)


def _generated_argv():
    """Each flag in both spellings after each command's base invocation,
    repeated flags, negative numbers, a missing value, unknown flags, -h and
    --.  How argparse reads a -- next to a flag's value or before the
    command word differs between Python versions, so each -- here comes
    after the command and has a stray word after it."""
    for cmd, base in BASE_ARGV.items():
        for flag, value in {**FLAG_VALUES, "--format": "text"}.items():
            yield base + [flag, value]
            yield base + [f"{flag}={value}"]
            yield base + [flag, value, flag, "4"]
            yield base + [f"{flag}=bogus", f"{flag}={value}"]
            yield base + [flag, "-3"]
            yield base + [f"{flag}=-1.5"]
            yield base + [flag]
            yield [cmd, flag, *base[1:]]
        yield base + ["--m", "-x y"]
        yield base + ["--m", "-", "--m", ""]
        yield base + ["--m", "-.5", "--m", "-0"]
        yield base + ["--bogus", "1"]
        yield base + ["-m", "3"]
        yield base + ["--ma", "8"]
        yield base + ["--m", "3", "extra"]
        yield base + ["--", "x"]
        yield [cmd, "--", *base[1:], "x"]
        yield base + ["-h"]
        yield [cmd, "--help", "--bogus"]
        yield base + ["--max-q", "x", "-h"]
        yield base + ["--help=x"]
        yield base + ["--m", "-h"]
    yield from (["-h"], ["--help"], ["--he"], [], ["nosuch", "-h"])


ORACLE_ARGV = (
    [[a.format(table="table.txt") for a in row["argv"]] for row in PARITY_ROWS]
    + USAGE_ERROR_ARGV
    + list(_generated_argv())
)


def test_flag_parser_agrees_with_argparse_from_the_same_tables():
    oracle = _argparse_oracle()
    seen = set()
    for argv in ORACLE_ARGV:
        want = _outcome(oracle.parse_args, argv)
        assert _outcome(cli.parse_args, argv) == want, argv
        seen.add(want[0])
    assert seen == {"ok", "help", "refused"}


_FLAG_WORD = re.compile(r"-(?!\d+$|\d*\.\d+$)[^ ]+$")  # the oracle: a flag, not a value


def test_flag_word_predicate_matches_the_regex_oracle():
    words = ["-3", "-.5", "-1.5", "--m", "-x", "-", "- x", "--", "-1e3", "--field-poly",
             "-0", "-00.00", "-1.", "-.", "-1.5.2", "-3\n", "-3\n\n", "-\n", "-\u0663",
             "-1\t", "x", "", "3", "-1 "]
    rng = random.Random(31)
    alphabet = "-.0129e \n\t\u0663x"
    words += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(7))) for _ in range(20000)]
    for word in words:
        assert cli._names_a_flag(word) == bool(_FLAG_WORD.match(word)), repr(word)
    assert [cli._names_a_flag(w) for w in ("-3", "-.5", "-1.5", "--m", "-x", "-", "- x", "--", "-1e3")] == [
        False, False, False, True, True, False, False, True, True]


@pytest.mark.parametrize("command", ["field", "code", "expsum", "walsh", "ssreport"])
def test_m_is_required_where_every_run_reads_it(capsys, command):
    code, out, err = run(capsys, command, "-h")
    assert re.search(r"\n  --m +.*\(required\)\n", out), out
    code, out, err = run(capsys, *[a for a in BASE_ARGV[command] if a not in ("--m", "3")])
    assert (code, out) == (3, "")
    assert f"{command} needs --m" in err


def test_help_prints_usage_to_stdout_and_exits_zero(capsys):
    for argv in (["--help"], ["-h"]) + tuple([cmd, "-h"] for cmd in cli._COMMANDS):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: dscodes"), argv
        for flag in FLAGS_READ.get(argv[0], ()):
            assert f"\n  {flag} " in out, (argv, flag)


_AWKWARD_STRINGS = (
    "", '"', "\\", '\\"', '"\\', "\\\\", "[]{},:", "a, b: c", '{"k": [1]}', "]}", "[{",
    "line\nbreak\ttab", "\x00\x1f", "é", "\u2603 snow", "\U0001d11e", '\\"[,',
)


def _random_payload(rng, depth):
    kind = rng.randrange(8 if depth else 5)  # containers only while depth is left
    if kind == 0:
        return "".join(rng.choice(_AWKWARD_STRINGS) for _ in range(rng.randrange(4)))
    if kind == 1:
        return rng.choice((0, -1, 7, 2**70, -(10**30), rng.randrange(-10**9, 10**9)))
    if kind == 2:
        return rng.choice((True, False))
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(([], {}))
    size = rng.randrange(1, 5)
    if kind == 5:
        return [_random_payload(rng, depth - 1) for _ in range(size)]
    keys = (rng.choice(_AWKWARD_STRINGS) + str(i) for i in range(size))
    return {key: _random_payload(rng, depth - 1) for key in keys}


def _stdlib_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    0, -5, 2**80, True, False, None, "", "plain", '"[{,:}]"', "\\", "é\n", [], {},
    [[]], [{}], {"a": {}}, {"a": []}, [[], {}, [[{}]]], {"": {"": [[], {}]}},
], ids=repr)
def test_json_render_matches_stdlib_indent_on_edge_payloads(payload):
    assert cli.render(payload, "json") == _stdlib_json(payload)


def test_json_render_matches_stdlib_indent_on_random_payloads():
    rng = random.Random(18)
    for _ in range(400):
        payload = _random_payload(rng, rng.randrange(1, 6))
        assert cli.render(payload, "json") == _stdlib_json(payload), payload


# whether the compact text holds a backslash picks _breaks' branch: every
# escape (\\, \", \n, and \uXXXX for non-ASCII text) writes one
@pytest.mark.parametrize("payload,backslash", [
    ({"path": "C:\\dir\\"}, True),
    ({"quote": 'say "[x]", then {y}'}, True),
    ({"text": "two\nlines, [one]"}, True),
    ({"name": "\u00e9 \u2603 \U0001d11e", "n": [1, 2]}, True),
    ({"mixed": ['\\"', '"\\', "\\\\", "\u00e9\n"]}, True),
    ({"plain": "a, b: [c] {d}", "list": [[], {}, [1, {"k": "]}"}]]}, False),
    ({"reports": [{"claim": "cor3", "params": {"p": 2, "m": 4}, "weights": []}]}, False),
    ([0, -1, 2**70, True, None, "plain"], False),
], ids=repr)
def test_json_render_matches_stdlib_indent_with_and_without_backslashes(payload, backslash):
    assert ("\\" in json.dumps(payload)) == backslash
    assert cli.render(payload, "json") == _stdlib_json(payload)


def test_json_render_refuses_numpy_scalars():
    with pytest.raises(TypeError):
        cli.render({"command": "code", "n": [1, np.int64(3)]}, "json")


def test_property_claim_is_seeded_and_deterministic(capsys):
    argv = ("verify", "--claim", "thm1prop", "--p", "3", "--m", "2")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    jsonschema.validate(payload, SCHEMA)
    assert payload["report"]["all_matched"] is True
    code3, out3, _ = run(capsys, *argv, "--seed", "999")
    assert code3 == 0


def test_scan_exit_codes(capsys):
    code, payload, _ = run_json(capsys, "scan", "--claim", "thm4", "--m", "5,7")
    assert code == 0
    code, payload, _ = run_json(capsys, "scan", "--claim", "thm4", "--m", "3..7")
    assert code == 1  # m = 3 fails the floor hypothesis
    code, payload, _ = run_json(
        capsys, "scan", "--claim", "cor4even", "--p", "3", "--m", "2"
    )
    assert code == 2  # the 4-to-1 form mismatch is in range
    assert payload["summary"]["mismatch"] >= 1


def test_csv_output_shape(capsys):
    code, out, _ = run(
        capsys, "verify", "--claim", "thm5", "--m", "6", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "claim,p,m,n,k,w,A_w,verdict"
    assert lines[1] == "thm5,2,6,31,6,12,10,match"
    assert len(lines) == 4  # header + three weights


def test_csv_row_for_unmet_hypothesis(capsys):
    code, out, _ = run(
        capsys, "scan", "--claim", "thm4", "--m", "3", "--format", "csv"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[1].startswith("thm4,2,3,,,,,")


def test_text_format_smoke(capsys):
    for argv in (
        ("field", "--p", "2", "--m", "4"),
        ("code", "--p", "2", "--m", "5", "--set", "trcubic"),
        ("verify", "--claim", "thm3", "--h", "1"),
        ("scan", "--claim", "thm5", "--m", "4..8"),
        ("expsum", "--m", "6", "--a", "3", "--b", "5"),
        ("walsh", "--m", "5"),
        ("ssreport", "--m", "6", "--set", "trcubic"),
    ):
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0, argv
        assert out.strip(), argv


def test_expsum_agrees_with_direct(capsys):
    code, payload, _ = run_json(capsys, "expsum", "--m", "7", "--a", "1", "--b", "1")
    assert code == 0
    assert payload["direct"] == payload["closed_form"] == 16
    code, payload, _ = run_json(capsys, "expsum", "--m", "5", "--a", "3", "--b", "7")
    assert code == 0
    assert payload["closed_form"] is None and payload["agree"] is None


def test_walsh_reports_semibent(capsys):
    code, payload, _ = run_json(capsys, "walsh", "--m", "7")
    assert code == 0
    assert payload["semibent"] is True
    total = sum(count for _, count in payload["value_histogram"])
    assert total == 1 << 7


def test_walsh_accepts_truth_table_file(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("1111011110111100\n")
    code, payload, _ = run_json(
        capsys, "walsh", "--m", "4", "--set", f"bool:{path}"
    )
    assert code == 0
    assert payload["n_f"] == 12


def test_walsh_max_abs_of_a_one_sided_spectrum(capsys, tmp_path):
    # f = 1 everywhere: W(0) = -q and W(w) = 0 for w != 0
    path = tmp_path / "ones.txt"
    path.write_text("1" * 16 + "\n")
    code, payload, _ = run_json(capsys, "walsh", "--m", "4", "--set", f"bool:{path}")
    assert code == 0
    assert payload["value_histogram"] == [[-16, 1], [0, 15]]
    assert payload["max_abs"] == 16


def test_truth_table_binary_and_hex_agree(capsys, tmp_path):
    bits = "1111011110111100"
    p1 = tmp_path / "bin.txt"
    p1.write_text(bits + "\n")
    p2 = tmp_path / "hex.txt"
    p2.write_text(format(int(bits, 2), "x") + "\n")
    _, out1, _ = run(capsys, "walsh", "--m", "4", "--set", f"bool:{p1}")
    _, out2, _ = run(capsys, "walsh", "--m", "4", "--set", f"bool:{p2}")
    assert out1 == out2


def test_truth_table_bit_order_matches_scalar_oracle(tmp_path):
    # oracle: the last bit is f(0), bit q-2-t is f(alpha^t)
    rng = random.Random(3)
    for m in (1, 4, 7, 10):
        f = field.get_field(2, m)
        bits = "".join(rng.choice("01") for _ in range(f.q))
        path = tmp_path / f"table{m}.txt"
        path.write_text(bits + "\n")
        want = [0] * f.q
        want[0] = int(bits[-1])
        for t in range(f.q - 1):
            want[f.antilog(t)] = int(bits[f.q - 2 - t])
        table = cli._truth_table_for_field(f, str(path))
        assert table.dtype == bool
        assert table.tolist() == want, m


def test_truth_table_errors(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("xyz\n")
    code, _, err = run(capsys, "walsh", "--m", "4", "--set", f"bool:{path}")
    assert code == 3
    code, _, err = run(capsys, "walsh", "--m", "4", "--set", "bool:/nonexistent")
    assert code == 3


def test_ssreport_cubic_m8(capsys):
    code, payload, _ = run_json(capsys, "ssreport", "--m", "8", "--set", "trcubic")
    assert code == 0
    assert payload["ratio"]["raw_ratio"] == [48, 64]
    assert payload["ratio"]["passes"] is True
    assert payload["ratio"]["m_congruence_case"] == "m = 0 mod 8"
    assert payload["ratio"]["closed_form_ratio"] == [3, 4]
    assert payload["minimal"]["all_minimal"] is True
    assert payload["minimal_skipped"] is None


def test_ssreport_skips_minimal_codewords_past_the_bound(capsys, monkeypatch):
    # qf:0,1,1 over GF(5^4): the threshold leaves 26 classes, 26*625 gather cells
    def boom(*args):
        raise AssertionError("a gather started past the bound")

    argv = ("ssreport", "--p", "5", "--m", "4", "--set", "qf:0,1,1")
    monkeypatch.setattr(secretshare, "_gather_passes", boom)
    monkeypatch.setattr(secretshare, "MINIMAL_GATHER_BOUND", 26 * 625)
    with pytest.raises(AssertionError, match="past the bound"):
        cli.main(list(argv))
    capsys.readouterr()
    monkeypatch.setattr(secretshare, "MINIMAL_GATHER_BOUND", 26 * 625 - 1)
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert payload["minimal"] is None
    assert payload["minimal_skipped"] == "enumeration bound exceeded"
    assert payload["ratio"]["raw_ratio"] == [80, 100]
    assert payload["code"]["k"] == 4


def test_ssreport_binary_minimal_codewords_run_past_the_gather_bound(capsys, monkeypatch, tmp_path):
    # 20 points of GF(2^8): the threshold leaves the classes of weight past 9
    # to the correlations; 215 is the support scan's count
    def boom(*args):
        raise AssertionError("a gather started past the bound")

    path = tmp_path / "sparse.hex"
    path.write_text(format(sum(1 << b for b in random.Random(8).sample(range(256), 20)), "x"))
    monkeypatch.setattr(secretshare, "_gather_passes", boom)
    monkeypatch.setattr(secretshare, "MINIMAL_GATHER_BOUND", 1 << 10)
    code, payload, _ = run_json(capsys, "ssreport", "--m", "8", "--set", f"bool:{path}")
    assert code == 0
    assert payload["minimal_skipped"] is None
    assert payload["ratio"]["raw_ratio"] == [5, 17]
    assert payload["minimal"] == {
        "p": 2, "n": 20, "k": 8, "total_nonzero": 255, "minimal_count": 215, "all_minimal": False,
    }


def test_thm2_requires_room_for_second_half(capsys):
    code, _, err = run(
        capsys, "verify", "--claim", "thm2", "--p", "2", "--m", "4",
        "--set", "simplex",
    )
    assert code == 3
    assert "covers every unit" in err


def test_recursive_complement_selector(capsys):
    code, payload, _ = run_json(
        capsys, "code", "--p", "2", "--m", "4", "--set", "complement:complement:trcubic"
    )
    assert code == 0
    inner, _, _ = run_json(capsys, "code", "--p", "2", "--m", "4", "--set", "trcubic")


def test_max_q_is_checked_before_field_build(capsys):
    code, _, err = run(
        capsys, "field", "--p", "2", "--m", "21", "--max-q", "1048576"
    )
    assert code == 3
    assert "exceeds" in err


# one instance of every claim token: (token, extra argv, exit code, verdict)
CLAIM_CASES = [
    ("thm1", ["--m", "2"], 0, "match"),
    ("thm1prop", ["--m", "2"], 0, "match"),
    ("cor1", ["--m", "3"], 0, "match"),
    ("cor2", ["--p", "5", "--m", "2", "--set", "product:1,4"], 0, "match"),
    ("thm2", ["--m", "5", "--set", "trcubic"], 0, "match"),
    ("cor3", ["--m", "5", "--set", "trcubic"], 0, "match"),
    ("cor4odd", ["--m", "3", "--set", "qf:1,0,1"], 0, "match"),
    ("cor4even", ["--m", "2", "--set", "qf:1,0,1"], 2, "mismatch"),
    ("cor5", ["--m", "4"], 1, "hypothesis-not-met"),
    ("thm3", ["--h", "1"], 0, "match"),
    ("thm4", ["--m", "7"], 0, "match"),
    ("thm5", ["--m", "6"], 0, "match"),
]


def test_claim_cases_cover_every_token():
    from dscodes import theorems

    assert {case[0] for case in CLAIM_CASES} == set(theorems.CLAIMS)
    assert len(CLAIM_CASES) == 12


@pytest.mark.parametrize("token,argv,exit_code,verdict", CLAIM_CASES)
def test_verify_every_claim_token(capsys, token, argv, exit_code, verdict):
    code, payload, _ = run_json(capsys, "verify", "--claim", token, *argv)
    assert code == exit_code
    assert payload["report"]["claim"] == token
    assert payload["report"]["verdict"] == verdict


def test_verify_builds_its_field_once(capsys, monkeypatch):
    # a fresh cache, so fields built by earlier tests do not hide a build
    monkeypatch.setattr(
        field, "_cached_field", functools.lru_cache(maxsize=None)(field._cached_field.__wrapped__)
    )
    built = []
    init = field.Field.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(field.Field, "__init__", counting_init)
    code, payload, _ = run_json(capsys, "verify", "--claim", "thm4", "--m", "7")
    assert code == 0 and payload["report"]["verdict"] == "match"
    assert len(built) == 1


@pytest.mark.parametrize("argv,message", [
    (["scan", "--claim", "thm4", "--p", "3", "--m", "5"], "thm4 is a binary claim"),
    (["scan", "--claim", "thm5", "--p", "3", "--m", "4"], "thm5 is a binary claim"),
    (["scan", "--claim", "cor5", "--p", "3", "--m", "4"], "cor5 is a binary claim"),
    (["scan", "--claim", "thm3", "--p", "5", "--h", "1"], "thm3 is a ternary claim"),
    (["verify", "--claim", "thm4", "--p", "3", "--m", "5"], "thm4 is a binary claim"),
    (["verify", "--claim", "cor5", "--p", "3", "--m", "2"], "cor5 is a binary claim"),
    (["verify", "--claim", "thm3", "--p", "5", "--h", "1"], "thm3 is a ternary claim"),
])
def test_fixed_p_claims_refuse_another_p(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert message in err


def test_unsamplable_reflection_range_is_a_usage_error(capsys):
    # GF(4) holds no set meeting the reflection hypotheses
    code, out, err = run(capsys, "scan", "--claim", "cor3", "--p", "2", "--m", "2")
    assert code == 3
    assert out == ""
    assert "could not sample" in err


def test_readme_library_tour_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.split("#", 1)[1].strip() for line in tour.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(tour, {})
    assert want and out.getvalue().splitlines() == want


def test_verify_paper_script_tally():
    script = runpy.run_path(str(ROOT / "scripts/verify_paper.py"), run_name="verify_paper")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = script["main"]()
    assert code == 2  # the cor4even 4-to-1 standing example
    tally = re.sub(r" in [0-9.]+ s:", ":", out.getvalue().splitlines()[-1])
    assert tally == "103 instances: 98 match, 3 mismatch, 2 hypothesis-not-met"


def test_peak_rss_script_keeps_the_status_and_fails_past_the_limit(capsys):
    script = runpy.run_path(str(ROOT / "scripts/peak_rss.py"), run_name="peak_rss")
    python = [sys.executable, "-c"]
    assert script["main"](["100000", *python, "pass"]) == 0
    assert script["main"](["100000", *python, "raise SystemExit(3)"]) == 3
    assert script["main"](["0", *python, "pass"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("peak RSS ") and lines[0].endswith(" MB, limit 100000 MB")
