import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pieri
import pieri.cli
import pieri.hibi
from pieri.cli import _json, build_parser, main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_mult_basic():
    code, out, _ = run_cli("mult", "--group", "o", "--k", "1", "--ell", "1",
                           "--D", "1", "--P", "1", "--F", "2")
    assert code == 0 and out.strip() == "1"

    code, out, _ = run_cli("mult", "--group", "o", "--k", "1", "--ell", "1",
                           "--D", "1", "--P", "1", "--F", "1")
    assert code == 0 and out.strip() == "0"


def test_mult_verify_agrees():
    code, out, _ = run_cli("mult", "--group", "o", "--k", "2", "--ell", "1",
                           "--D", "2,1", "--P", "2", "--F", "3,2", "--verify",
                           "--json")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["multiplicity"] == record["result"]["independent_count"]


def test_mult_gl():
    code, out, _ = run_cli("mult", "--group", "gl", "--n", "3",
                           "--D", "1", "--P", "1", "--F", "2")
    assert code == 0 and out.strip() == "1"
    # row bound: F with too many rows gets multiplicity 0
    code, out, _ = run_cli("mult", "--group", "gl", "--n", "1",
                           "--D", "1", "--P", "1", "--F", "1,1")
    assert code == 0 and out.strip() == "0"


def test_mult_sp():
    code, out, _ = run_cli("mult", "--group", "sp", "--k", "1", "--ell", "1",
                           "--n", "2", "--D", "1", "--P", "1", "--F", "1,1",
                           "--verify")
    assert code == 0 and out.splitlines()[0] == "1"
    code, _, err = run_cli("mult", "--group", "sp", "--k", "1", "--ell", "1",
                           "--n", "1", "--D", "1", "--P", "1", "--F", "2")
    assert code == 2 and "k + ell" in err


def test_missing_sp_rank_exits_2():
    for argv in (
        ["mult", "--group", "sp", "--k", "1", "--ell", "1", "--D", "1", "--P", "1",
         "--F", "2"],
        ["decompose", "--group", "sp", "--k", "1", "--ell", "1", "--D", "1", "--P", "1"],
    ):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "", argv
        assert "requires the rank n" in err, argv


def test_gl_rank_errors_exit_2():
    for want, argv in (
        ("need n >= 1", ["decompose", "--group", "gl", "--n", "0", "--P", "1"]),
        ("need n >= 1", ["mult", "--group", "gl", "--n", "-2", "--D", "1", "--P", "1",
                         "--F", "2"]),
        ("more than n=1 rows", ["mult", "--group", "gl", "--n", "1", "--D", "1,1",
                                "--P", "1", "--F", "2"]),
        ("requires the rank n", ["decompose", "--group", "gl", "--P", "1"]),
        ("requires the rank n", ["mult", "--group", "gl", "--P", "1", "--F", "1"]),
        ("longer than 0", ["decompose", "--group", "gl", "--n", "3", "--ell", "0",
                           "--P", "1,1"]),
    ):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "", argv
        assert want in err, argv


def test_mult_stable_range_refusal():
    code, _, err = run_cli("mult", "--group", "o", "--k", "1", "--ell", "1",
                           "--n", "4", "--D", "1", "--P", "1", "--F", "2")
    assert code == 2 and "stable range" in err


def test_decompose_text_table():
    code, out, _ = run_cli("decompose", "--group", "o", "--k", "1", "--ell", "1",
                           "--D", "1", "--P", "1")
    assert code == 0
    lines = [ln.split() for ln in out.strip().splitlines()]
    assert [(f, int(m)) for f, m in lines] == [("-", 1), ("2", 1), ("1,1", 1)]


def test_decompose_sp_matches_o():
    _, out_sp, _ = run_cli("decompose", "--group", "sp", "--k", "1", "--ell", "1",
                           "--n", "2", "--D", "1", "--P", "1", "--json")
    _, out_o, _ = run_cli("decompose", "--group", "o", "--k", "1", "--ell", "1",
                          "--D", "1", "--P", "1", "--json")
    assert json.loads(out_sp)["result"] == json.loads(out_o)["result"]


def test_decompose_gl_route():
    code, out, _ = run_cli("decompose", "--group", "gl", "--n", "2",
                           "--D", "1", "--P", "1,1", "--json")
    assert code == 0
    table = {tuple(f): m for f, m in json.loads(out)["result"]["table"]}
    # (1) x (1) x (1) for GL_2: (3):1, (2,1):2
    assert table == {(3,): 1, (2, 1): 2}


def test_cone_count_equals_mult():
    args = ["--k", "2", "--ell", "1", "--D", "2", "--P", "2", "--F", "3,1"]
    _, cone_out, _ = run_cli("cone", *args, "--json")
    _, mult_out, _ = run_cli("mult", "--group", "o", *args, "--json")
    assert (json.loads(cone_out)["result"]["count"]
            == json.loads(mult_out)["result"]["multiplicity"])


def test_cone_list_round_trip():
    code, out, _ = run_cli("cone", "--k", "1", "--ell", "1",
                           "--D", "1", "--P", "1", "--F", "2", "--list")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["count"] == 1
    point = record["result"]["points"][0]
    assert point["rows"]["1"] == [2, 0] and point["rows"]["-1"] == [1]
    # byte-identical re-serialization
    assert json.dumps(record, sort_keys=True, indent=2) + "\n" == out


# quotes, backslashes, control characters and non-ASCII text, surrogates included
_texts = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f' "aZ09 :,{}[]\u00e9\u2603\ud800\udfff")
    | st.characters()
)
_leaves = (
    _texts
    | st.integers()
    | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
    | st.booleans()
    | st.none()
    | st.floats()
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(_values)
def test_writer_matches_json_dumps(obj):
    assert _json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_cone_single_point_at_zero_content():
    code, out, _ = run_cli("cone", "--k", "2", "--ell", "1",
                           "--D", "2,1", "--P", "0", "--F", "2,1")
    assert code == 0 and out.strip() == "1"


def test_poset_dot_is_dag():
    code, out, _ = run_cli("poset", "--k", "2", "--ell", "1", "--format", "dot")
    assert code == 0
    nodes = [ln.strip().rstrip(";").strip('"') for ln in out.splitlines()
             if ln.strip().endswith(';') and "->" not in ln]
    edges = [tuple(part.strip().strip('"') for part in
                   ln.strip().rstrip(";").split("->"))
             for ln in out.splitlines() if "->" in ln]
    assert len(nodes) == 7
    # acyclic: Kahn peeling terminates
    remaining = set(nodes)
    pending = list(edges)
    while remaining:
        sources = {n for n in remaining if not any(b == n for _, b in pending)}
        assert sources, "cycle detected"
        remaining -= sources
        pending = [(a, b) for a, b in pending if a in remaining and b in remaining]


def test_poset_json_node_count():
    code, out, _ = run_cli("poset", "--k", "2", "--ell", "2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["result"]["nodes"]) == 14


def test_lattice_nodes():
    code, out, _ = run_cli("lattice", "--k", "1", "--ell", "1", "--format", "json")
    record = json.loads(out)
    assert len(record["result"]["nodes"]) == 6
    assert "(0,0,0)" in record["result"]["nodes"]


def test_eta_golden():
    code, out, _ = run_cli("eta", "--k", "1", "--ell", "1", "--n", "5", "--c", "0")
    assert code == 0 and out == "1\nLM: 1\n"

    code, out, _ = run_cli("eta", "--k", "1", "--ell", "1", "--n", "5",
                           "--c", "0", "--I", "1", "--J", "1")
    assert code == 0
    assert out == "-y[1,1]*r[1,2]\nLM: y[1,1]*r[1,2]\n"


def test_eta_capacity_error():
    code, _, err = run_cli("eta", "--k", "1", "--ell", "1", "--n", "5",
                           "--c", "1", "--I", "1")
    assert code == 2 and "row capacity" in err


def test_eta_repeated_keys_exit_2():
    for flag, value in (("--I", "1,1"), ("--J", "2,2"), ("--Z", "1:2,1:2")):
        code, out, err = run_cli("eta", "--n", "9", "--k", "2", "--ell", "2",
                                 "--c", "1", flag, value)
        assert code == 2 and out == "", flag
        assert "must not repeat" in err, flag


def test_eta_with_eps():
    code, out, _ = run_cli("eta", "--k", "1", "--ell", "2", "--n", "7",
                           "--c", "0", "--Z", "1:2", "--json")
    assert code == 0
    assert json.loads(out)["result"]["polynomial"] == "r[2,3]"


def test_verify_passes():
    code, out, _ = run_cli("verify", "--suite", "hibi,oracle",
                           "--k", "1", "--ell", "2")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_oracle_catches_a_wrong_dp_table(monkeypatch):
    import pieri.verify

    real = pieri.verify.decompose_o

    def skewed(k, ell, d, p):
        table = dict(real(k, ell, d, p))
        table[pieri.YoungDiagram((1,))] = table.get(pieri.YoungDiagram((1,)), 0) + 1
        table[pieri.YoungDiagram((9,))] = 1  # a key no walked F can be
        return table

    monkeypatch.setattr(pieri.verify, "decompose_o", skewed)
    code, out, _ = run_cli("verify", "--suite", "oracle", "--k", "1", "--ell", "1")
    assert code == 3 and "FAIL oracle" in out
    assert "DP table" in out and "unexpected key (9,)" in out


def test_verify_all_suites_at_2_1_7():
    code, out, _ = run_cli("verify", "--suite", "all",
                           "--k", "2", "--ell", "1", "--n", "7")
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out
    # every line reports how many instances were checked
    assert all("checked" in ln for ln in out.strip().splitlines())


def test_verify_refuses_rank_outside_stable_range():
    # every suite, not only those that build a PieriContext
    for suite in ("oracle", "hibi", "lm"):
        code, out, err = run_cli("verify", "--suite", suite,
                                 "--k", "2", "--ell", "1", "--n", "3")
        assert code == 2 and out == "", suite
        assert "stable range" in err, suite


def test_verify_unknown_suite():
    code, _, err = run_cli("verify", "--suite", "nope", "--k", "1", "--ell", "1")
    assert code == 2 and "unknown suite" in err


def test_usage_errors_exit_1():
    code, _, err = run_cli("bogus")
    assert code == 1
    code, _, _ = run_cli("mult", "--group", "xx")
    assert code == 1


def test_domain_errors_exit_2():
    code, _, err = run_cli("mult", "--group", "o", "--k", "1", "--ell", "1",
                           "--D", "1,2", "--P", "1", "--F", "2")
    assert code == 2 and "bad diagram" in err
    code, _, err = run_cli("mult", "--group", "o", "--D", "1", "--P", "1")
    assert code == 2 and "--k" in err
    code, _, err = run_cli("mult", "--group", "o", "--k", "1", "--ell", "1",
                           "--D", "1", "--P", "-1", "--F", "2")
    assert code == 2


def test_nonpositive_k_ell_exit_2():
    for argv in (
        ["mult", "--k", "0", "--ell", "1", "--F", "1", "--P", "1"],
        ["mult", "--k", "0", "--ell", "1", "--F", "1", "--P", "1", "--verify"],
        ["mult", "--k", "1", "--ell", "0", "--F", "1", "--D", "1"],
        ["mult", "--k", "-1", "--ell", "1", "--F", "1", "--D", "1", "--P", "1"],
        ["decompose", "--k", "0", "--ell", "1", "--P", "1"],
    ):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "", argv
        assert "need k >= 1 and ell >= 1" in err, argv


def test_recursion_limit_exits_2_without_a_traceback():
    # the skew Kostka backtracking recurses once per cell, past the
    # interpreter's limit here; the backstop in main reports it in one line
    code, out, err = run_fresh("mult", "--k", "1", "--ell", "1", "--P", "1000", "--F", "1000",
                               timeout=60)
    assert (code, out) == (2, "")
    assert err.startswith("error: input too large") and "RecursionError" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_memory_error_exits_2_without_a_traceback(monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(pieri.cli, "multiplicity", exhausted)
    code, out, err = run_cli("mult", "--k", "1", "--ell", "1", "--P", "1", "--F", "1")
    assert (code, out) == (2, "")
    assert err == "error: input too large for this process (MemoryError())\n"


@pytest.mark.parametrize("argv", [
    ["mult", "--k", "1", "--ell", "1" + "0" * 22, "--P", "1", "--F", "1"],
    ["cone", "--k", "1", "--ell", "1" + "0" * 22, "--P", "1", "--F", "1"],
    ["decompose", "--group", "sp", "--n", "5", "--k", "1", "--ell", "1" + "0" * 22, "--P", "1"],
    ["mult", "--group", "gl", "--n", "3", "--ell", "1" + "0" * 22, "--P", "1", "--F", "1"],
])
def test_overflow_error_exits_2_without_a_traceback(argv):
    # padding P to an ell past the index range overflows before any work
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: input too large") and "OverflowError" in err
    assert len(err.splitlines()) == 1


HUGE = "1" + "0" * 22


def ints(low, high, huge=False):
    """(good, bad) values of an int flag: ints in [low, high], and where safe 10**22; malformed
    text, ints below ``low`` and where safe -10**22."""
    good = [str(v) for v in range(low, high + 1)] * 2 + ([HUGE] if huge else [])
    bad = ["", "1.5", "x", "-1", str(low - 1)] + (["-" + HUGE] if huge else [])
    return st.sampled_from(good), st.sampled_from(bad)


def comma_lists(good, bad):
    """(good, bad) comma lists: of good entries only, or with one bad entry among them."""
    entries = st.lists(st.sampled_from(good), max_size=4)
    return (entries.map(",".join),
            st.tuples(entries, st.sampled_from(bad)).map(lambda t: ",".join(t[0] + [t[1]])))


def choices(good, bad):
    return st.sampled_from(good), st.sampled_from(bad)


# Per command, each flag's (good, bad) values, or None for a flag that takes
# no value.  Every command that enumerates keeps k, ell <= 3 and n <= 13.
# Huge --k, --ell or --n on poset, lattice, eta, verify and cone --list still
# runs unbounded (no work budget refuses it yet), so there they draw no
# 10**22.  verify keeps k, ell <= 2: its suites take seconds to minutes at
# ell = 3.  A part of 10**22 goes into one list per command line: two of them
# (--D and --F of mult, or two parts of P) still enumerate up to 10**22.
PARTS = comma_lists(["0", "1", "2", "3"], ["-1", "", "1.5", "a"])
GROUP = choices(["o", "sp", "gl"], ["x", ""])
FORMAT = choices(["dot", "json"], ["svg"])
GRAMMAR = {
    "mult": {"--group": GROUP, "--k": ints(1, 3, True), "--ell": ints(1, 3, True),
             "--n": ints(1, 13, True), "--D": PARTS, "--P": PARTS, "--F": PARTS,
             "--verify": None, "--json": None},
    "decompose": {"--group": GROUP, "--k": ints(1, 3, True), "--ell": ints(1, 3, True),
                  "--n": ints(1, 13, True), "--D": PARTS, "--P": PARTS, "--json": None},
    "cone": {"--k": ints(1, 3), "--ell": ints(1, 3), "--D": PARTS, "--P": PARTS, "--F": PARTS,
             "--list": None, "--json": None},
    "poset": {"--k": ints(1, 3), "--ell": ints(1, 3), "--format": FORMAT, "--json": None},
    "lattice": {"--k": ints(1, 3), "--ell": ints(1, 3), "--format": FORMAT, "--json": None},
    "eta": {"--k": ints(1, 3), "--ell": ints(1, 3), "--n": ints(1, 13), "--c": ints(0, 3, True),
            "--I": comma_lists(["1", "2", "3"], ["0", "-1", "", "x"]),
            "--J": comma_lists(["1", "2", "3"], ["0", "-1", "", "x"]),
            "--Z": comma_lists(["1:2", "1:3", "2:3"], ["2:1", "1:1", "0:1", "a:b", "1", "1:2:3"]),
            "--json": None},
    "verify": {"--k": ints(1, 2), "--ell": ints(1, 2), "--n": ints(1, 13),
               "--suite": comma_lists(["lm", "hibi", "oracle", "subduction", "hw", "all"],
                                      ["bogus", ""]),
               "--json": None},
}
# what a command line may carry besides its flags: an unknown flag, a stray
# word, a flag without its value
JUNK = st.sampled_from([["--bogus"], ["stray"], ["--k"], ["--K", "1"]])


@st.composite
def cli_argv(draw):
    """A command line from the grammar, then up to three edits.

    Each edit gives a flag a bad value, drops it, repeats it with a good
    value (the last one counts) or adds junk; one list of mult or decompose
    may also get a first part of 10**22.
    """
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    flags = GRAMMAR[command]
    line = {flag: None if values is None else draw(values[0]) for flag, values in flags.items()
            if flag in ("--k", "--ell", "--c") or draw(st.booleans())}
    extra = []
    edits = st.tuples(st.sampled_from("bdrj"), st.sampled_from(sorted(flags)))
    for edit, flag in draw(st.lists(edits, max_size=3)):
        values = flags[flag]
        if edit == "b" and values is not None:
            line[flag] = draw(values[1])
        elif edit == "d":
            line.pop(flag, None)
        elif edit == "r":
            extra.append([flag] if values is None else [flag, draw(values[0])])
        elif edit == "j":
            extra.append(draw(JUNK))
    huge = [flag for flag in ("--D", "--P", "--F") if flag in line]
    if command in ("mult", "decompose") and huge and draw(st.booleans()):
        flag = draw(st.sampled_from(huge))
        line[flag] = ",".join(filter(None, [HUGE, line[flag]]))
    pairs = [[flag] if value is None else [flag, value] for flag, value in line.items()] + extra
    return [command] + [word for pair in draw(st.permutations(pairs)) for word in pair]


@given(argv=cli_argv())
@settings(max_examples=200, deadline=None)
def test_fuzzed_command_lines_exit_with_a_documented_code(argv):
    code, _, err = run_cli(*argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv


def test_lattice_reads_only_the_factors(monkeypatch):
    # the CLI labels and links the product lattice from its two factors; the
    # index of every up-set is never built
    def refused(poset):
        raise AssertionError("the product lattice was built")

    monkeypatch.setattr(pieri.hibi, "_index", refused)
    code, out, err = run_cli("lattice", "--k", "2", "--ell", "3", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "832a8c00bab26a9cc8480800058704813bcf25ae9987a4a13b11aa893736165e")


def readme_commands() -> list[list[str]]:
    """The arguments of each ``pieri ...`` line of README's command-line block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("pieri ")]
    assert commands, "README's command-line block lists no pieri command"
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_run(argv):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "") and out


def test_unwritable_out_exits_1(tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli("mult", "--k", "1", "--ell", "1", "--D", "1",
                             "--P", "1", "--F", "2", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("usage error: cannot write --out")
    assert len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_failure_exits_1():
    # /dev/full opens but refuses every write: the error comes from write or close
    code, out, err = run_cli("decompose", "--k", "1", "--ell", "1", "--D", "1",
                             "--P", "1", "--out", "/dev/full")
    assert code == 1 and out == ""
    assert err.startswith("usage error: cannot write --out /dev/full")
    assert len(err.splitlines()) == 1


def test_empty_out_name_exits_1():
    # an empty file name cannot be opened; it must not fall back to stdout
    code, out, err = run_cli("mult", "--k", "1", "--ell", "1", "--D", "1",
                             "--P", "1", "--F", "2", "--out", "")
    assert code == 1 and out == ""
    assert err.startswith("usage error: cannot write --out")
    assert len(err.splitlines()) == 1


def test_out_file(tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_cli("mult", "--group", "o", "--k", "1", "--ell", "1",
                           "--D", "1", "--P", "1", "--F", "2",
                           "--json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["multiplicity"] == 1


def run_python(*argv, **kwargs):
    """A new Python process that imports the same pieri as this one, installed or not."""
    src = str(Path(pieri.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


def run_fresh(*argv, **kwargs):
    """``pieri`` in a new process, whose parser has parsed nothing before."""
    return run_python("-m", "pieri.cli", *argv, **kwargs)


@pytest.mark.parametrize("argv, want", [
    # a ring of 80001 variables: nothing may be built per pair of variables
    (["eta", "--k", "1", "--ell", "1", "--n", "40000", "--c", "1"], "x[1,1]\nLM: x[1,1]\n"),
    # a first part of 10**20: nothing may loop over the part's size
    (["decompose", "--k", "1", "--ell", "1", "--P", "9" * 20], "9" * 20 + " 1\n"),
    (["decompose", "--group", "sp", "--n", "2", "--k", "1", "--ell", "1", "--P", "9" * 20],
     "9" * 20 + " 1\n"),
    # the same ring checked for highest weight: nothing may be built per raising
    # derivation, nor per variable of F's length-n row vector
    (["verify", "--suite", "hw", "--k", "1", "--ell", "1", "--n", "40000"],
     "PASS hw: checked 46 instances\n"),
    # a skew shape of 10**22 boxes and a content of none: no box may be listed
    (["mult", "--group", "gl", "--n", "1", "--ell", "1", "--F", "1" + "0" * 22], "0\n"),
])
def test_large_inputs_run_in_little_memory(argv, want):
    resource = pytest.importorskip("resource")
    gib = 1 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (gib, gib))

    code, out, err = run_fresh(*argv, preexec_fn=cap, timeout=30)
    assert (code, out, err) == (0, want, "")


def test_imports_only_the_standard_library():
    # -S keeps the .pth hooks of site-packages out, so every module loaded
    # besides the -c script is the interpreter's own or one that pieri, its
    # CLI or its suites import
    code, out, err = run_python(
        "-S", "-c", "import sys, pieri, pieri.cli, pieri.verify; print(*sys.modules)")
    assert code == 0, err
    top = {name.partition(".")[0] for name in out.split()} - {"__main__", "pieri"}
    assert sorted(top - set(sys.stdlib_module_names)) == []


def test_module_invocation_subprocess():
    code, out, _ = run_fresh("mult", "--group", "o", "--k", "1", "--ell", "1",
                             "--D", "1", "--P", "1", "--F", "2")
    assert code == 0 and out.strip() == "1"


def test_reused_parser_keeps_no_state(tmp_path):
    # one parser serves every main() call of a process; what one command
    # sets (a format, an error, an output file) must not reach the next
    assert build_parser() is build_parser()
    target = tmp_path / "out.json"
    mult = ["mult", "--k", "1", "--ell", "1", "--D", "1", "--P", "1", "--F", "2", "--json"]
    pairs = [
        (["lattice", "--k", "1", "--ell", "2", "--format", "json"],
         ["lattice", "--k", "1", "--ell", "2"]),
        (["decompose", "--group", "xx", "--k", "1"],
         ["decompose", "--k", "1", "--ell", "1", "--D", "1", "--P", "1"]),
        (mult + ["--out", str(target)], mult),
    ]
    for first, second in pairs:
        run_cli(*first)
        assert run_cli(*second) == run_fresh(*second), (first, second)
    assert target.read_text() == run_fresh(*mult)[1]
