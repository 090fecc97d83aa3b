import ast
import inspect
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from branchpolar import cli
from branchpolar.errors import InvariantViolation
from branchpolar.polar import predict

GOLDEN = Path(__file__).parent / "golden"
SCHEMAS = Path(cli.__file__).parent / "schemas"


def run(capsys, *argv):
    code = cli.main(list(argv) + ["--quiet"])
    out = capsys.readouterr().out
    return code, out


def validate(blob, schema_name):
    from referencing import Registry, Resource

    resources = [
        (path.name, Resource.from_contents(json.loads(path.read_text())))
        for path in SCHEMAS.glob("*.json")
    ]
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validators.validator_for(schema)(schema, registry=registry).validate(blob)


@pytest.mark.parametrize("name,k", [("ex1", 1), ("ex1", 2), ("ex1", 10), ("ex2", 1), ("ex2", 2)])
def test_examples_match_golden_json(capsys, name, k):
    code, out = run(capsys, "example", name, "--k", str(k), "--format", "json")
    assert code == 0
    assert out == (GOLDEN / f"{name}_k{k}.json").read_text()
    validate(json.loads(out), "prediction.schema.json")


@pytest.mark.parametrize("name,k", [("ex1", 1), ("ex1", 2), ("ex1", 10), ("ex2", 1), ("ex2", 2)])
def test_examples_match_golden_text(capsys, name, k):
    code, out = run(capsys, "example", name, "--k", str(k), "--format", "text")
    assert code == 0
    assert out == (GOLDEN / f"{name}_k{k}.txt").read_text()


@pytest.mark.parametrize("name,k", [("ex1", 1), ("ex2", 1), ("ex2", 2)])
def test_examples_match_golden_dot(capsys, name, k):
    code, out = run(capsys, "example", name, "--k", str(k), "--format", "dot")
    assert code == 0
    assert out == (GOLDEN / f"{name}_k{k}.dot").read_text()


# verify 12,16,31 --k 1 --seeds 17: seed 17 is degenerate at level 1 and ok at
# level 2, so the report retries with seed 18, which passes.
# verify 12,20,23 --k 11 --seeds 4780: seed 4780 samples a 0 at x^2, so row 11
# of f^_1 is empty at every cap; the polar within the cut misses the expected
# diagram, which makes the seed degenerate, and seed 4781 passes.
# verify 16,24,28,30,31 --k 1 --seeds 1,2: a four-level chain, each level cut
# to its own weight
# verify 9,15,17 --k 1 --seeds 2: level 1 of seed 2 has the expected polar
# diagram, and its one reason is a steep edge with a repeated factor
@pytest.mark.parametrize("char,k,seeds", [
    ("12,16,31", 2, "1,2,3"), ("12,16,31", 1, "17"), ("12,20,23", 11, "4780"),
    ("16,24,28,30,31", 1, "1,2"), ("9,15,17", 1, "2"),
])
@pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
def test_verify_matches_golden(capsys, char, k, seeds, fmt, ext):
    code, out = run(capsys, "verify", char, "--k", str(k), "--seeds", seeds, "--format", fmt)
    assert code == 0
    name = f"{char.replace(',', '_')}_k{k}_seeds{seeds.replace(',', '_')}.{ext}"
    assert out == (GOLDEN / "verify" / name).read_text()
    if fmt == "json":
        validate(json.loads(out), "verify_report.schema.json")


def test_predict_equals_example(capsys):
    _, via_example = run(capsys, "example", "ex1", "--k", "2", "--format", "json")
    _, via_predict = run(capsys, "predict", "12,16,31", "--k", "2", "--format", "json")
    assert via_example == via_predict


def test_unwritable_output_is_a_diagnostic(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code = cli.main(["predict", "3,4", "--k", "1", "--output", str(target), "--quiet"])
    diag = json.loads(capsys.readouterr().err)
    assert code == cli.EXIT_USAGE
    assert diag["error"] == "FileNotFoundError"
    assert str(target) in diag["message"]


def test_every_shipped_schema_is_valid_and_checked_against_cli_output():
    shipped = {path.name for path in SCHEMAS.glob("*.json")}
    for name in shipped:
        schema = json.loads((SCHEMAS / name).read_text())
        jsonschema.validators.validator_for(schema).check_schema(schema)
    # the schema names this module validates real command output against
    calls = [node for node in ast.walk(ast.parse(Path(__file__).read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "validate"]
    checked = {node.args[1].value for node in calls}
    assert checked == {"prediction.schema.json", "verify_report.schema.json"}
    assert shipped == checked


def test_verify_cli_pass(capsys):
    code, out = run(capsys, "verify", "2,3", "--k", "1", "--seeds", "1,2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "PASS"
    validate(blob, "verify_report.schema.json")


def test_verify_cli_exit_codes(capsys, monkeypatch):
    class Stub:
        def __init__(self, verdict):
            self.verdict = verdict

        def to_text(self, put, newline="\n"):
            put(self.verdict)

        def to_json(self, put, newline="\n"):
            put(json.dumps({"verdict": self.verdict}))

    for verdict, expected in [("FAIL", cli.EXIT_FAIL), ("UNKNOWN", cli.EXIT_UNKNOWN)]:
        monkeypatch.setattr(cli.verify, "verify_prediction",
                            lambda *a, verdict=verdict, **kw: Stub(verdict))
        code, _ = run(capsys, "verify", "2,3", "--k", "1")
        assert code == expected


def test_verify_cli_fail_through_the_real_report(capsys, monkeypatch):
    # the report's own writers, not a stub: an initial form that does not
    # match fails level 1 of the first seed, and the FAIL ends the run
    monkeypatch.setattr(cli.verify, "check_initial_form", lambda *a: False)
    code, out = run(capsys, "verify", "12,16,31", "--k", "2", "--seeds", "1")
    assert code == cli.EXIT_FAIL
    lines = out.splitlines()
    assert lines[0] == "verify K(12,16,31) k=2: FAIL"
    assert "initial form MISMATCH" in lines[2]
    assert "  FAIL: level 1: initial form mismatch" in lines
    code, out = run(capsys, "verify", "12,16,31", "--k", "2", "--seeds", "1", "--format", "json")
    assert code == cli.EXIT_FAIL
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert blob["runs"][0]["levels"][0]["initial_form_ok"] is False
    validate(blob, "verify_report.schema.json")


def test_usage_errors_exit_1(capsys):
    assert cli.main(["predict", "abc,def", "--k", "1", "--quiet"]) == cli.EXIT_USAGE
    assert cli.main(["predict", "--k", "1", "--quiet"]) == cli.EXIT_USAGE  # no char
    assert cli.main(["predict", "2,3", "--quiet"]) == cli.EXIT_USAGE  # missing --k
    assert cli.main(["predict", "2,3", "--k", "5", "--quiet"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("argv,message", [
    (["predict", "2,3", "--quiet"], "the following arguments are required: --k"),
    (["predict", "2,3", "--k", "1", "--format", "xml", "--quiet"], "invalid choice: 'xml'"),
    (["predict", "2,3", "--k", "one", "--quiet"], "invalid int value: 'one'"),
    (["nosuch", "--quiet"], "invalid choice: 'nosuch'"),
    (["predict", "2,3", "--k", "1", "--bogus"], "unrecognized arguments: --bogus"),
    (["predict", "--k", "1", "--quiet"], "the following arguments are required: CHAR"),
    (["verify", "--k", "1", "--quiet"], "the following arguments are required: CHAR"),
    (["predict", "2,3", "--char", "2,3", "--k", "1", "--quiet"],
     "unrecognized arguments: --char 2,3"),
    # the Newton diagram and continued fraction toolbox is library only
    (["diagram", "show", "--elementary", "3/2", "--quiet"], "invalid choice: 'diagram'"),
    (["contfrac", "31/4", "--quiet"], "invalid choice: 'contfrac'"),
], ids=["missing-k", "format-xml", "k-not-int", "no-such-command", "unknown-option",
        "predict-no-char", "verify-no-char", "char-option", "diagram-removed",
        "contfrac-removed"])
def test_argparse_usage_errors_are_returned_as_json(capsys, argv, message):
    # what argparse itself refuses is reported like every other usage error:
    # one JSON line on stderr and exit 1 returned, no usage text and no
    # SystemExit for an in-process caller
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    blob = json.loads(captured.err)
    assert blob["error"] == "ArgumentError"
    assert message in blob["message"]


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_still_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:" if flag == "--help" else "branchpolar ")


def test_the_commands_are_predict_verify_and_example(capsys):
    _, commands = cli._build_parser()
    assert list(commands) == ["predict", "verify", "example"]
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert "{predict,verify,example}" in capsys.readouterr().out


class _Terminal(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize("quiet", [False, True])
def test_the_version_banner_goes_to_a_terminal_stderr_unless_quiet(capsys, monkeypatch, quiet):
    stderr = _Terminal()
    monkeypatch.setattr(sys, "stderr", stderr)
    code = cli.main(["predict", "2,3", "--k", "1", *(["--quiet"] if quiet else [])])
    assert code == 0 and capsys.readouterr().out
    assert stderr.getvalue() == ("" if quiet else "branchpolar 0.1.0\n")


def test_a_command_help_is_the_command_parser_help(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: branchpolar predict")


@pytest.mark.parametrize("command", ["predict", "verify", "example"])
def test_every_command_help_describes_its_options(capsys, command):
    # --k is defined once for all three commands and --no-branch once for
    # the two that draw the tree, so their help cannot drift apart
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--k K derivative order, 1 <= k < b0" in out
    assert ("--no-branch omit the branch and semiroots from the Eggers-Wall tree" in out) == (
        command != "verify")
    if command == "verify":
        assert "comma-separated witness seeds (default 1,2,3,4,5)" in out
    if command == "example":
        assert "{ex1,ex2} ex1 is K(12,16,31), ex2 is K(10,14,15)" in out


@pytest.mark.parametrize("argv", [
    ["predict", "12,16,31", "--k", "2"],
    ["predict", "--k=2", "12,16,31", "--format", "dot", "--no-branch",
     "--output", "tree.dot", "--quiet"],
    ["predict", "2,3", "--k", "1", "--form", "json"],
    ["verify", "12,16,31", "--k", "1", "--seeds", "1,2", "--format", "json"],
    ["verify", "--k=1", "2,3", "--output", "report.txt", "--quiet"],
    ["example", "ex1", "--k", "10", "--no-branch", "--format", "dot"],
    ["example", "ex2", "--k=1"],
], ids=lambda argv: " ".join(argv))
def test_a_named_command_parses_as_through_the_full_parser(argv):
    parser, _ = cli._build_parser()
    assert cli._parse(argv) == parser.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["predict", "2,3"],
    ["predict", "2,3", "--k", "one"],
    ["predict", "--k", "1"],
    ["predict", "2,3", "--char", "2,3", "--k", "1"],
    ["verify", "2,3", "--k", "1", "--format", "dot"],
    ["example", "ex1", "--k", "1", "--version"],
], ids=lambda argv: " ".join(argv))
def test_a_named_command_refuses_as_the_full_parser_does(argv):
    parser, _ = cli._build_parser()
    with pytest.raises(cli.argparse.ArgumentError) as full:
        parser.parse_args(argv)
    with pytest.raises(cli.argparse.ArgumentError) as routed:
        cli._parse(argv)
    assert str(routed.value) == str(full.value)


@pytest.mark.parametrize("command", ["predict", "verify"])
@pytest.mark.parametrize("positional", ["2,3", "12,16,31"])
def test_a_class_given_twice_is_refused_before_any_work(capsys, monkeypatch, command, positional):
    # equal or not, the class is the one positional CHAR: a second one, or
    # the --char option that no longer exists, is refused by the parser
    monkeypatch.setattr(cli.polar, "predict", None)  # never reached
    monkeypatch.setattr(cli.verify, "verify_prediction", None)
    for second in (["2,3"], ["--char", "2,3"]):
        code = cli.main([command, positional, *second, "--k", "1", "--quiet"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        blob = json.loads(captured.err)
        assert blob == {"error": "ArgumentError",
                        "message": f"unrecognized arguments: {' '.join(second)}"}


def test_an_internal_fault_is_not_a_usage_error(capsys, monkeypatch):
    # a broken invariant is the program's fault, and a caller must be able to
    # tell it from a mistyped class
    def broken(w, depth, k):
        raise InvariantViolation("the chain broke")

    monkeypatch.setattr(cli.verify, "hat_chain", broken)
    code = cli.main(["verify", "12,16,31", "--k", "1", "--seeds", "1", "--quiet"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "InvariantViolation",
                                        "message": "the chain broke"}
    assert cli.main(["verify", "12,16,30", "--k", "1", "--quiet"]) == cli.EXIT_USAGE


def _groups_reversed(cs, k):
    p = predict(cs, k)
    return replace(p, groups=p.groups[::-1])


def test_a_misordered_prediction_is_not_drawn(tmp_path, capsys, monkeypatch):
    # the tree rests on the orderings the JSON writer checks, and refuses a
    # prediction that breaks them with the JSON writer's message, on stdout
    # and in an existing --output alike
    monkeypatch.setattr(cli.polar, "predict", _groups_reversed)
    old = tmp_path / "old.dot"
    old.write_text("kept\n")
    for output in ([], ["--output", str(old)]):
        code = cli.main(["predict", "12,16,31", "--k", "1", "--format", "dot", *output,
                         "--quiet"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "InvariantViolation",
            "message": "semiroot contact 1/2 does not lie beyond 31/12 at z^(2)_1",
        }
    assert old.read_text() == "kept\n"


def test_an_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # a mutant of hat_chain that slices delta_l from [b_(l-2), b_(l-1)):
    # hat_transform then refuses a shift that lowers a weight, a ValueError
    # raised from arguments the command line has already checked
    source = inspect.getsource(cli.verify.hat_chain)
    right = "cs.b[l - 1] <= i < cs.b[l]}"
    assert source.count(right) == 1
    scope = dict(vars(cli.verify))
    exec(source.replace(right, "cs.b[l - 2] <= i < cs.b[l - 1]}"), scope)
    monkeypatch.setattr(cli.verify, "hat_chain", scope["hat_chain"])
    code = cli.main(["verify", "12,16,31", "--k", "1", "--seeds", "1", "--quiet"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ValueError"
    # what argv gets wrong still exits 1
    assert cli.main(["verify", "12,16,30", "--k", "1", "--quiet"]) == cli.EXIT_USAGE
    assert cli.main(["predict", "2,3", "--k", "5", "--quiet"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("argv,error", [
    (["verify", "12,16,31", "--k", "12"], "OrderOutOfRange"),
    (["verify", "12,16,31", "--k", "1", "--seeds", ","], "ValueError"),
    (["verify", "12,16,31", "--k", "1", "--seeds", "1,x"], "ValueError"),
    (["verify", "6,7", "--k", "1", "--seeds", "1,,2"], "ValueError"),
    (["verify", "6,7", "--k", "1", "--seeds", "1,"], "ValueError"),
    (["verify", "6,7", "--k", "1", "--seeds", ",1"], "ValueError"),
    (["verify", "6,7", "--k", "1", "--seeds=-5,5"], "ValueError"),
    (["verify", "6,7", "--k", "1", "--seeds=-1"], "ValueError"),
    (["verify", "12,16,31", "--k", "10", "--seeds", "17,17"], "ValueError"),
    (["verify", "6,7", "--k", "1", "--seeds", "5,3,5"], "ValueError"),
    (["example", "ex1", "--k", "12"], "OrderOutOfRange"),
], ids=["order", "no-seeds", "seed-not-int", "empty-seed-between", "empty-seed-last",
        "empty-seed-first", "negative-seed", "negative-seed-alone",
        "repeated-seed", "repeated-seed-apart", "example-order"])
def test_operands_are_checked_before_any_work(capsys, monkeypatch, argv, error):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli.polar, "predict", no_work)
    monkeypatch.setattr(cli.verify, "verify_prediction", no_work)
    code = cli.main([*argv, "--quiet"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    blob = json.loads(captured.err)
    assert set(blob) == {"error", "message"}
    assert blob["error"] == error


@pytest.mark.parametrize("output,error", [
    ("missing/x.json", "FileNotFoundError"),
    (".", "IsADirectoryError"),  # the folder itself
    ("a-file/x.json", "NotADirectoryError"),  # a parent that is a file
    ("missing/", "IsADirectoryError"),  # a path that names a folder, though none is there
], ids=["missing-folder", "a-folder", "under-a-file", "trailing-slash"])
def test_output_folder_is_checked_before_any_work(tmp_path, capsys, monkeypatch, output, error):
    # main opens --output before the work, so open() refuses it with its own error
    monkeypatch.setattr(cli.verify, "verify_prediction", None)  # never reached
    (tmp_path / "a-file").write_text("kept\n")
    target = os.path.join(tmp_path, output)  # a Path would drop the trailing "/"
    code = cli.main(["verify", "12,16,31", "--k", "1", "--output", target, "--quiet"])
    captured = capsys.readouterr()
    diag = json.loads(captured.err)
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert diag["error"] == error and target in diag["message"]
    assert list(tmp_path.iterdir()) == [tmp_path / "a-file"]
    assert (tmp_path / "a-file").read_text() == "kept\n"


def test_an_empty_output_path_is_refused(capsys, monkeypatch):
    # "" is a path that open() refuses, not a request for stdout
    monkeypatch.setattr(cli.verify, "verify_prediction", None)  # never reached
    code = cli.main(["verify", "12,16,31", "--k", "1", "--output", "", "--quiet"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "FileNotFoundError"


def test_a_refused_command_line_creates_no_output(tmp_path, capsys):
    # the operands are checked before --output is opened
    code = cli.main(["predict", "12,16,31", "--k", "12", "--output", str(tmp_path / "out.txt"),
                     "--quiet"])
    assert code == cli.EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["error"] == "OrderOutOfRange"
    assert list(tmp_path.iterdir()) == []


def test_an_internal_fault_keeps_an_existing_output(tmp_path, capsys, monkeypatch):
    # --output is opened for appending before the work and written only after
    # it: a run that ends in exit 4 leaves an existing file as it was, and a
    # new one empty
    def broken(cs, k):
        raise InvariantViolation("the prediction broke")

    monkeypatch.setattr(cli.polar, "predict", broken)
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("kept\n")
    for target in (old, new):
        code = cli.main(["predict", "12,16,31", "--k", "1", "--output", str(target), "--quiet"])
        assert code == cli.EXIT_INTERNAL
        assert json.loads(capsys.readouterr().err)["error"] == "InvariantViolation"
    assert old.read_text() == "kept\n"
    assert new.read_text() == ""
    # a streamed document is refused before its first byte, the embedded
    # prediction of a verify report too, and the file is opened "w" only after
    # the checks
    monkeypatch.setattr(cli.polar, "predict", _groups_reversed)
    monkeypatch.setattr(cli.verify, "predict", _groups_reversed)
    for argv in (["predict", "12,16,31", "--k", "1"],
                 ["verify", "12,16,31", "--k", "1", "--seeds", "1"]):
        code = cli.main([*argv, "--format", "json", "--output", str(old), "--quiet"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL, argv
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InvariantViolation"
    assert old.read_text() == "kept\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = cli.main(["predict", "2,3", "--k", "1", "--format", "json",
                     "--output", str(target), "--quiet"])
    assert code == 0
    assert json.loads(target.read_text())["k"] == 1


def test_format_env_default(capsys, monkeypatch):
    # the default format is the command's first choice; the environment has no say
    monkeypatch.setenv("BRANCHPOLAR_FORMAT", "json")
    code, out = run(capsys, "predict", "2,3", "--k", "1")
    assert code == 0
    assert out.startswith("class K(2,3), k = 1:")


@pytest.mark.parametrize("argv,first", [
    (["verify", "2,3", "--k", "1", "--seeds", "1"], "verify K(2,3) k=1: PASS"),
    (["example", "ex2", "--k", "1"], "class K(10,14,15), k = 1:"),
], ids=["verify", "example"])
def test_format_default_is_the_first_choice(capsys, monkeypatch, argv, first):
    # each command's default, with the variable that once preset it still set
    monkeypatch.setenv("BRANCHPOLAR_FORMAT", "json")
    _, out = run(capsys, *argv)
    assert out.startswith(first)
    assert cli._parse(argv).format == "text"
