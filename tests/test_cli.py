import inspect
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from declassiflow import cli, ir
from declassiflow.cli import load_config, main

from conftest import FIXTURES, fixture_text


def run(args):
    return main(args)


def test_analyze_exit_zero(tmp_path, capsys):
    src = FIXTURES / "diamond_linked.mir"
    out = tmp_path / "report.json"
    assert run(["analyze", str(src), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["entry"] == "main"
    edges = {(e["from"], e["to"]): e["known"] for e in report["functions"][0]["edges"]}
    assert edges[("B1", "B3")] == ["b1", "b2", "b3"]


def test_usage_error_exit_one(capsys):
    assert run(["bogus-command"]) == 1
    assert run(["analyze", "/nonexistent/file.mir"]) == 1


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mir"
    bad.write_text("fn f() {\nB1:\n  x = frobnicate 3\n  ret\n}\n")
    assert run(["analyze", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("digits,code", [(4300, 0), (5000, 2)])
def test_long_integer_literal(tmp_path, capsys, digits, code):
    src = tmp_path / "long.mir"
    src.write_text(f"fn f() {{\nB1:\n  x = const {'1' * digits}\n  ret\n}}\n")
    assert run(["analyze", str(src)]) == code
    if code:
        assert capsys.readouterr().err == \
            "error: line 3, col 13: integer literal of more than 4300 digits\n"


# One minimal program per kind of issue validate_ssa reports, with the
# message the CLI prints for it: the issue's message after its line, if any.
VALIDATION_ERRORS = {
    "duplicate-function": ("fn f() {\nB1:\n  ret\n}\nfn f() {\nB1:\n  ret\n}\n",
                           "line 5: duplicate function 'f'"),
    "unknown-callee": ("fn f() {\nB1:\n  r = call g()\n  ret\n}\n",
                       "line 3: unknown callee 'g'"),
    "call-arity": ("fn f() {\nB1:\n  r = call g(1)\n  ret\n}\nfn g(a, b) {\nB1:\n  ret\n}\n",
                   "line 3: call to 'g' passes 1 args, expected 2"),
    "recursion": ("fn f() {\nB1:\n  r = call f()\n  ret\n}\n",
                  "call graph has a cycle (recursion is rejected)"),
    "duplicate-label": ("fn f() {\nB1:\n  jmp B2\nB1:\n  ret\nB2:\n  ret\n}\n",
                        "line 4: duplicate block label 'B1'"),
    "duplicate-definition": ("fn f(a) {\nB1:\n  a = const 1\n  ret\n}\n",
                             "line 3: duplicate definition of 'a'"),
    "unknown-label": ("fn f() {\nB1:\n  jmp B9\n}\n", "line 3: unknown label 'B9'"),
    "entry-has-preds": ("fn f() {\nB1:\n  jmp B1\n}\n",
                        "line 2: entry block 'B1' has predecessors ['B1']"),
    "phi-not-prefix": ("fn f() {\nB1:\n  jmp B2\nB2:\n  a = const 1\n  x = phi [a, B1]\n  ret\n}\n",
                       "line 6: phi after non-phi instruction"),
    "phi-arity": ("fn f() {\nB1:\n  jmp B2\nB2:\n  x = phi [1, B1], [2, B9]\n  ret\n}\n",
                  "line 5: phi incoming labels ['B1', 'B9'] do not match predecessors ['B1']"),
    "undefined-use": ("fn f() {\nB1:\n  transmit x\n  ret\n}\n", "line 3: use of undefined 'x'"),
    "phi-input-not-prior": (
        "fn f() {\nB1:\n  c = input\n  br c, B2, B3\nB2:\n  jmp B3\n"
        "B3:\n  y = phi [c, B1], [z, B2]\n  z = add y, 1\n  ret\n}\n",
        "line 8: phi input 'z' not defined prior to block 'B3' (via predecessor 'B2')"),
    "use-not-dominated": ("fn f() {\nB1:\n  x = add y, 1\n  y = const 2\n  ret\n}\n",
                          "line 3: use of 'y' before its definition"),
}


def test_validation_error_cases_cover_every_issue_kind():
    source = inspect.getsource(ir.validate_ssa) + inspect.getsource(ir._validate_function)
    assert set(re.findall(r'\.add\(\s*"([a-z-]+)"', source)) == set(VALIDATION_ERRORS)


@pytest.mark.parametrize("kind", sorted(VALIDATION_ERRORS))
def test_verify_reports_validation_error(kind, tmp_path, monkeypatch, capsys):
    """parse_program is the run's only validation: each issue kind ends
    `verify` with exit 2 and the issue's message, without a traceback."""
    text, message = VALIDATION_ERRORS[kind]
    reports, validate = [], ir.validate_ssa

    def recorded(program):
        reports.append(validate(program))
        return reports[-1]

    monkeypatch.setattr(ir, "validate_ssa", recorded)
    src = tmp_path / "bad.mir"
    src.write_text(text)
    assert run(["verify", str(src)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [r.issues[0].kind for r in reports] == [kind]


TEXT = hst.text(hst.sampled_from('a"\\/\n\t\x00\x1f\x7fé€\U0001f600') | hst.characters())
JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.sampled_from([0, 1, -0.0]) | TEXT
    | hst.integers(-2**80, 2**80) | hst.floats(allow_nan=True, allow_infinity=True),
    lambda inner: (hst.lists(inner, max_size=4) | hst.tuples(inner, inner)
                   | hst.dictionaries(TEXT, inner, max_size=4)
                   # one list object at two depths and twice at one, as the report shares them
                   | hst.lists(TEXT, max_size=3).map(lambda names: [names, {"k": names}, names])),
    max_leaves=20)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_emit_report_matches_json_dumps(value):
    assert cli.emit_report(value) == (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


def test_emit_report_rejects_a_set():
    value = {"a": [1, {"b": {2}}]}
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        cli.emit_report(value)


def test_verification_failure_exit_three(tmp_path, monkeypatch, capsys):
    src = tmp_path / "p.mir"
    src.write_text(fixture_text("diamond_linked"))
    real = cli.run_pipeline

    def rigged(program, config):
        report = real(program, config)
        if config.verify:
            report["verification"] = {"passed": False, "window": 1, "depth": 1,
                                      "violations": []}
        return report

    monkeypatch.setattr(cli, "run_pipeline", rigged)
    assert run(["verify", str(src)]) == 3


def test_pipeline_on_fixture(tmp_path, capsys):
    src = FIXTURES / "djbsort_analog.mir"
    out = tmp_path / "r.json"
    code = run(["pipeline", str(src), "--domain", "0..3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["barriers"] == {"int32_sort": ["B2"]}
    assert report["verification"]["passed"] is True
    assert "protected_program" in report


def test_empty_program(tmp_path, capsys):
    src = tmp_path / "empty.mir"
    src.write_text("# nothing here\n")
    assert run(["analyze", str(src)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["functions"] == []


def test_dump_cfg_and_expanded(capsys):
    src = FIXTURES / "self_loop_linked.mir"
    assert run(["analyze", str(src), "--dump-cfg"]) == 0
    assert "digraph" in capsys.readouterr().out
    assert run(["analyze", str(src), "--dump-expanded"]) == 0
    out = capsys.readouterr().out
    assert "B2.1" in out and "B2.2" in out


def test_text_report(capsys):
    src = FIXTURES / "aes_analog.mir"
    assert run(["protect", str(src), "--text"]) == 0
    out = capsys.readouterr().out
    assert "barrier encrypt: B1" in out


def test_verify_text_window_and_depth(capsys):
    src = str(FIXTURES / "anticorrelated.mir")
    assert run(["verify", src, "--window", "8", "--depth", "2", "--text"]) == 0
    out = capsys.readouterr().out
    assert "verification: PASS (window 8, depth 2)" in out
    assert "  region B1 var x: inevitable" in out
    assert run(["verify", src, "--window", "x"]) == 1
    assert "argument --window: bad count 'x'" in capsys.readouterr().err


def test_dead_block_feeding_loop_phi(capsys):
    """Valid SSA whose unreachable block B9 defines a loop-header phi arm:
    verify accepts it, and pruning drops B9 before expansion."""
    src = str(FIXTURES / "dead_phi_arm.mir")
    assert run(["verify", src, "--domain", "0..2", "--text"]) == 0
    out = capsys.readouterr().out
    assert "barrier main: B1, B2" in out and "verification: PASS" in out
    assert run(["analyze", src, "--dump-expanded"]) == 0
    out = capsys.readouterr().out
    assert "B2.1" in out and "B9" not in out


def test_caller_reads_refined_callee_summary(tmp_path):
    """Only refinement declassifies g's `x`, so only g's refined summary says
    that the call `g(c)` reveals `c`: main must read that summary and know
    `c` from B1, the call's block, on."""
    out = tmp_path / "report.json"
    src = str(FIXTURES / "refined_callee.mir")
    assert run(["verify", src, "--domain", "0..1", "--emit-frontiers", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verification"]["passed"]
    assert report["barriers"] == {"g": ["B1"]}
    main_fn = next(f for f in report["functions"] if f["name"] == "main")
    assert main_fn["frontiers"]["c"] == ["B1"]


def test_report_determinism(tmp_path):
    src = FIXTURES / "chacha_analog.mir"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["pipeline", str(src), "--domain", "0..2", "--out", str(a)]) == 0
    assert run(["pipeline", str(src), "--domain", "0..2", "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timing"), rb.pop("timing")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_config_file(tmp_path):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("""
# analysis limits
[limits]
loop_cap = 8
path_cap = 128
domain = "0..7"

[constraints]
int32_sort = "n >= 0; x >= 0"
""")
    limits, constraints = load_config(str(cfg))
    assert limits.loop_cap == 8 and limits.path_cap == 128
    assert (limits.domain_min, limits.domain_max) == (0, 7)
    assert [(c.var, c.op, c.value) for c in constraints["int32_sort"]] == [
        ("n", ">=", 0), ("x", ">=", 0)]


def _bad_config_exit(tmp_path, capsys, line, section="limits"):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(f"[{section}]\n{line}\n")
    code = run(["analyze", str(FIXTURES / "chain.mir"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: ") and err.count("\n") == 1, err
    return code, err


def test_config_malformed_integer_exit_two(tmp_path, capsys):
    code, err = _bad_config_exit(tmp_path, capsys, 'loop_cap = "abc"')
    assert code == 2 and "abc" in err


def test_config_malformed_domain_exit_two(tmp_path, capsys):
    code, err = _bad_config_exit(tmp_path, capsys, 'domain = "x..y"')
    assert code == 2 and "x..y" in err


def test_config_empty_domain_exit_two(tmp_path, capsys):
    code, err = _bad_config_exit(tmp_path, capsys, 'domain = "5..2"')
    assert code == 2 and "empty domain '5..2'" in err
    # domain_min and domain_max are checked together once the file is read
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("[limits]\ndomain_min = 5\ndomain_max = 2\n")
    assert run(["refine", str(FIXTURES / "djbsort_analog.mir"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: {cfg}: empty domain 5..2 "
                                       "(domain_min > domain_max)\n")


WRAPPED_GUARD = """fn main() {
B1:
  q = input
  x = input
  c = lt q, 0
  br c, B2, B3
B2:
  jmp B5
B3:
  transmit x
  jmp B5
B5:
  ret
}
"""


@pytest.mark.parametrize("lines,message", [
    ('domain = "2147483648..2147483649"', "domain_min 2147483648"),
    ("domain_max = 2147483648", "domain_max 2147483648"),
    ("domain_min = -2147483649", "domain_min -2147483649")])
def test_config_domain_outside_int32_exit_two(tmp_path, capsys, lines, message):
    # symbols compare raw integers while the IR wraps to 32 bits: under
    # domain 2147483648..2147483649, protect used to call x `inevitable` at
    # B1, though input q = 2147483648 wraps below 0 and skips the transmit
    src, cfg = tmp_path / "prog.mir", tmp_path / "cfg.toml"
    src.write_text(WRAPPED_GUARD)
    cfg.write_text(f"[limits]\n{lines}\n")
    assert run(["protect", str(src), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: {cfg}: {message} outside signed 32 bits "
                                       "(-2147483648..2147483647)\n")


def test_empty_verify_domain_exit_one(capsys):
    src = str(FIXTURES / "diamond_linked.mir")
    assert run(["verify", src, "--domain", "5..2"]) == 1
    assert "empty domain '5..2'" in capsys.readouterr().err
    for command, flag in (("verify", "--window"), ("analyze", "--window"),
                          ("verify", "--depth"), ("protect", "--depth")):
        assert run([command, src, flag, "0"]) == 1
        assert f"argument {flag}: '0' is below 1" in capsys.readouterr().err
    assert run(["verify", src, "--domain", "2..2"]) == 0


@pytest.mark.parametrize("domain,message", [
    ("2147483647..2147483648", "domain_max 2147483648"),
    ("-2147483649..0", "domain_min -2147483649")])
def test_verify_domain_outside_int32_exit_one(capsys, domain, message):
    # the machine wraps inputs to 32 bits: 2147483647..2147483648 used to
    # exit 0 and report that domain, though 2147483648 ran as -2147483648
    src = str(FIXTURES / "diamond_linked.mir")
    assert run(["verify", src, f"--domain={domain}"]) == 1
    assert capsys.readouterr().err.endswith(
        f"argument --domain: {message} outside signed 32 bits (-2147483648..2147483647)\n")
    assert run(["verify", src, "--domain=-2147483648..-2147483647"]) == 0


def test_config_negative_limit_exit_two(tmp_path, capsys):
    # path_cap = -1 used to end every refinement query `inevitable`
    code, err = _bad_config_exit(tmp_path, capsys, "path_cap = -1")
    assert code == 2 and err.endswith(":2: negative path_cap -1\n")


def test_config_unknown_key_exit_two(tmp_path, capsys):
    code, err = _bad_config_exit(tmp_path, capsys, "loop_kap = 3")
    assert code == 2 and "loop_kap" in err


@pytest.mark.parametrize("section,first,second", [
    ("constraints", 'int32_sort = "n >= 0"', 'int32_sort = "n < 8"'),
    ("limits", "loop_cap = 4", "loop_cap = 64"),
    ("limits", 'domain = "0..3"', "domain_max = 9"),
    ("limits", "domain_max = 9", 'domain = "0..3"')])
def test_config_duplicate_key_exit_two(tmp_path, capsys, section, first, second):
    # the second line used to replace the first silently: domain then
    # domain_max = 9 read as 0..9, the reverse order as 0..3
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(f"[{section}]\n{first}\n{second}\n")
    earlier, key = first.split()[0], second.split()[0]
    message = (f"duplicate key '{key}'" if key == earlier
               else f"'{key}' sets a bound that '{earlier}' set")
    for command in ("analyze", "protect", "verify"):
        assert run([command, str(FIXTURES / "djbsort_analog.mir"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"


@pytest.mark.parametrize("line,message", [
    ('main = "zz < 3"', "constraint on unknown parameter 'zz' of 'main'"),
    ('nosuch = "n < 3"', "constraint on unknown function 'nosuch'")])
def test_constraint_on_unknown_name_exit_two(tmp_path, capsys, line, message):
    # under protect, the unknown parameter used to end refinement `unknown`
    # and move the barrier from B1 to B2, B4; the unknown function was ignored,
    # and the two dumps accepted both with exit 0
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(f"[constraints]\n{line}\n")
    src = str(FIXTURES / "anticorrelated.mir")
    for args in (["analyze"], ["protect"], ["verify"], ["analyze", "--dump-cfg"],
                 ["analyze", "--dump-expanded"]):
        assert run([*args, src, "--config", str(cfg)]) == 2, args
        assert capsys.readouterr() == ("", f"error: {message}\n"), args


def test_config_bad_constraint_literal_exit_two(tmp_path, capsys):
    code, err = _bad_config_exit(tmp_path, capsys, 'main = "n >= q"', "constraints")
    assert code == 2
    assert err.endswith(":2: bad constraint 'n >= q' (expected 'var op literal')\n")


def test_config_constraints_flow_into_refinement(tmp_path, capsys):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("[constraints]\nint32_sort = \"n >= 2\"\n")
    src = FIXTURES / "djbsort_analog.mir"
    assert run(["refine", str(src), "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    fn = report["functions"][0]
    verdicts = {(r["region"], r["variable"]): r["verdict"] for r in fn["refinements"]}
    # with the handrail constraint the whole-function region becomes inevitable
    assert verdicts[("B1", "x")] == "inevitable"


def test_console_entry_point(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys
    src = FIXTURES / "diamond_linked.mir"
    path = os.pathsep.join([str(pathlib.Path(cli.__file__).resolve().parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "declassiflow.cli",
                           "analyze", str(src)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["entry"] == "main"


def test_verify_report_independent_of_hash_seed():
    import os
    import pathlib
    import subprocess
    import sys
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    reports = []
    for seed in ("0", "1"):
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-m", "declassiflow.cli", "verify",
                               str(FIXTURES / "two_latch.mir")],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode in (0, 3), proc.stderr
        report = json.loads(proc.stdout)
        report.pop("timing")
        reports.append(report)
    assert reports[0] == reports[1]


def test_transmit_nonspec_flag(capsys):
    # with transmits treated as non-speculative nothing needs a barrier
    src = FIXTURES / "diamond_opaque.mir"
    assert main(["protect", str(src), "--transmit-nonspec"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["barriers"] == {}
    assert main(["protect", str(src)]) == 0
    report2 = json.loads(capsys.readouterr().out)
    # refinement lifts the join value's frontier to the entry; the arm value
    # stays at its defining block
    assert report2["barriers"] == {"main": ["B1", "B2"]}


def test_vacuous_knowledge_note_in_report(capsys):
    src = FIXTURES / "diamond_linked.mir"
    assert main(["analyze", str(src)]) == 0
    report = json.loads(capsys.readouterr().out)
    notes = report["functions"][0]["notes"]
    assert any("vacuous" in n for n in notes)


@pytest.mark.parametrize("op", ["add", "mul"])
def test_deep_term_ends_unknown(tmp_path, capsys, op):
    """A branch on a chain of 1,500 operations nests its term past the
    recursion limit: in the interval check during exploration (add) or in
    the solver (mul). The query ends unknown instead of a traceback."""
    body = [f"  v0 = {op} x, 1"] + [f"  v{i} = {op} v{i - 1}, 1" for i in range(1, 1500)]
    src = tmp_path / "deep.mir"
    src.write_text("\n".join(["fn main(x) {", "B1:", "  q = input", *body,
                              "  c = lt v1499, 5", "  br c, B2, B3",
                              "B2:", "  w = load q", "  jmp B4", "B3:", "  jmp B4",
                              "B4:", "  ret", "}", ""]))
    assert run(["protect", str(src)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(r["variable"], r["verdict"], r["note"])
            for r in report["functions"][0]["refinements"]] == [
        ("q", "unknown", "symbolic term nested past the Python recursion limit")]
    assert report["barriers"] == {"main": ["B2"]}


@pytest.mark.parametrize("which", ["input", "config"])
def test_non_utf8_file_exit_two(tmp_path, capsys, which):
    bad = tmp_path / "bad"
    bad.write_bytes(b"[limits]\nloop_cap = 3\n\xff\n")
    src = str(bad) if which == "input" else str(FIXTURES / "diamond_linked.mir")
    extra = ["--config", str(bad)] if which == "config" else []
    assert run(["analyze", src, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "can't decode byte 0xff" in err, err


# main calls a function named like main's protected clone: emitting both would
# leave two functions main.p, and verify would run the callee as the entry.
CALLS_ITS_CLONE_NAME = """
fn main(buf, n) {
B1:
  c = lt n, 4
  br c, B2, B3
B2:
  p = gep buf, n, 4
  w = load p
  jmp B3
B3:
  d = call main.p(buf, n)
  ret
}

fn main.p(buf, n) {
B1:
  transmit n
  ret
}
"""


@pytest.mark.parametrize("command", ["protect", "verify"])
def test_protected_clone_name_clash_exit_two(tmp_path, capsys, command):
    src = tmp_path / "clash.mir"
    src.write_text(CALLS_ITS_CLONE_NAME)
    assert run([command, str(src), "--domain", "0..3"]) == 2
    err = capsys.readouterr().err
    assert "'main'" in err and "'main.p'" in err
