import json
import os
import random
import subprocess
import sys
import time

import pytest

import postimp
from postimp.cli import main
from postimp.reductions import DnfInput


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def base_file(tmp_path):
    path = tmp_path / "bf.base"
    path.write_text("and 2 0001\nnot 1 10\n")
    return path


@pytest.fixture
def linear_base_file(tmp_path):
    path = tmp_path / "lin.base"
    path.write_text("xor 2 0110\ntop 0 1\n")
    return path


def test_classify_human_and_record(capsys, base_file):
    code, out, _ = run(capsys, "classify", "--base", str(base_file))
    assert code == 0
    assert "coNP-complete" in out
    code, out, _ = run(capsys, "classify", "--base", str(base_file), "--format", "record")
    assert code == 0
    record = json.loads(out)
    assert record["problem"] == "IMP"
    assert record["class"] == "coNP-complete"
    assert record["fragment"] == "general"


def test_classify_single_premise(capsys, linear_base_file):
    code, out, _ = run(capsys, "classify", "--base", str(linear_base_file), "--format", "record")
    assert json.loads(out)["class"] == "ParityL-complete"
    code, out, _ = run(
        capsys, "classify", "--base", str(linear_base_file), "--single-premise", "--format", "record"
    )
    record = json.loads(out)
    assert record["problem"] == "IMP1"
    assert record["class"] == "AC0[2]"


# one base per reachable branch of the classifier, plus {top, bot}, which
# is a base of constants and so falls in the disjunction branch
WITNESS_BASES = {
    "or+consts": "or 2 0111\ntop 0 1\nbot 0 0\n",
    "and": "and 2 0001\n",
    "not+top": "not 1 10\ntop 0 1\n",
    "xor+top": "xor 2 0110\ntop 0 1\n",
    "and+not": "and 2 0001\nnot 1 10\n",
    "consts": "top 0 1\nbot 0 0\n",
}
GOLDEN_WITNESSES = {
    "or+consts": ("AC0", "or", "every connective is a disjunction of variables and constants"),
    "and": ("AC0", "and", "every connective is a conjunction of variables and constants"),
    "not+top": (
        "AC0[2]",
        "unary",
        "every connective depends on at most one variable and 'not' negates",
    ),
    "xor+top": (
        "ParityL-complete",
        "linear",
        "every connective is linear and 'xor' depends on 2 variables",
    ),
    "and+not": (
        "coNP-complete",
        "general",
        "'and' is not a disjunction, 'not' is not a conjunction, and 'and' is not linear",
    ),
    "consts": ("AC0", "or", "every connective is a disjunction of variables and constants"),
}


@pytest.mark.parametrize("name", sorted(WITNESS_BASES))
def test_classify_witness_bytes(capsys, tmp_path, name):
    path = tmp_path / f"{name}.base"
    path.write_text(WITNESS_BASES[name])
    klass, fragment, witness = GOLDEN_WITNESSES[name]
    for problem, flags in (("IMP", ()), ("IMP1", ("--single-premise",))):
        if problem == "IMP1" and fragment == "linear":
            klass, witness = "AC0[2]", witness + "; a single premise reduces to coefficient comparison"
        code, out, err = run(capsys, "classify", "--base", str(path), *flags, "--format", "record")
        assert (code, err) == (0, "")
        assert out == (
            f'{{"class": "{klass}", "fragment": "{fragment}", "problem": "{problem}", '
            f'"witness": "{witness}"}}\n'
        )


def test_classify_single_premise_witness_bytes(capsys, tmp_path):
    path = tmp_path / "xor3.base"
    path.write_text("xor3 3 01101001\n")
    code, out, _ = run(capsys, "classify", "--base", str(path), "--single-premise", "--format", "record")
    assert code == 0
    assert out == (
        '{"class": "AC0[2]", "fragment": "linear", "problem": "IMP1", "witness": '
        '"every connective is linear and \'xor3\' depends on 3 variables; '
        'a single premise reduces to coefficient comparison"}\n'
    )


def test_decide_with_header_and_counterexample(capsys, tmp_path, base_file):
    inst = tmp_path / "inst.txt"
    inst.write_text(f"base: {base_file.name}\npremise: x\nconclusion: and(x, y)\n")
    code, out, _ = run(capsys, "decide", "--instance", str(inst), "--format", "record")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "counterexample": {"x": 1, "y": 0},
        "fragment_used": "general",
        "implies": False,
    }
    code, out, _ = run(capsys, "decide", "--instance", str(inst))
    assert code == 0 and "implies: no" in out and "counterexample" in out


def test_decide_force_fragment(capsys, tmp_path, base_file):
    inst = tmp_path / "inst.txt"
    inst.write_text(f"base: {base_file.name}\npremise: and(x, y)\nconclusion: x\n")
    code, out, _ = run(
        capsys, "decide", "--instance", str(inst), "--force-fragment", "general", "--format", "record"
    )
    assert code == 0 and json.loads(out)["implies"] is True
    code, _, err = run(capsys, "decide", "--instance", str(inst), "--force-fragment", "or")
    assert code == 1
    assert "not a disjunction" in err


def test_force_fragment_names_the_alphabetically_first_offender(capsys, tmp_path):
    # a pre-order walk meets `or` first; the refusal names `and`
    base = tmp_path / "mixed.base"
    base.write_text("xor 2 0110\nor 2 0111\nand 2 0001\n")
    inst = tmp_path / "inst.txt"
    inst.write_text(f"base: {base.name}\npremise: or(and(x, y), z)\nconclusion: x\n")
    code, out, err = run(capsys, "decide", "--instance", str(inst), "--force-fragment", "linear")
    assert (code, out, err) == (1, "", "error: connective 'and' is not linear\n")
    premise = postimp.read_instance(inst).premises[0]
    with pytest.raises(postimp.FragmentError, match="^connective 'and' is not linear$"):
        postimp.extract_linear_nf(premise)


def test_decide_cap(capsys, tmp_path, base_file):
    parts = "x0"
    for i in range(1, 26):
        parts = f"and({parts}, x{i})"
    inst = tmp_path / "wide.txt"
    inst.write_text(f"base: {base_file.name}\nconclusion: {parts}\n")
    code, _, err = run(capsys, "decide", "--instance", str(inst))
    assert code == 1 and "cap is 24" in err
    code, out, _ = run(
        capsys, "decide", "--instance", str(inst), "--max-vars", "26", "--format", "record"
    )
    assert code == 0 and json.loads(out)["implies"] is False


def test_decide_parse_error_names_line(capsys, tmp_path, base_file):
    inst = tmp_path / "broken.txt"
    inst.write_text(f"base: {base_file.name}\npremise: and(x)\nconclusion: x\n")
    code, _, err = run(capsys, "decide", "--instance", str(inst))
    assert code == 1
    assert "broken.txt:2" in err and "expects 2 argument" in err


def test_decide_refuses_an_empty_base_header(capsys, tmp_path, base_file):
    # an empty path would resolve to the instance's own directory
    inst = tmp_path / "inst.txt"
    for header in ("base:", "base:   "):
        inst.write_text(f"# no path\n{header}\npremise: x\nconclusion: x\n")
        for argv in ((), ("--base", str(base_file)), ("--format", "record")):
            code, out, err = run(capsys, "decide", "--instance", str(inst), *argv)
            assert (code, out, err) == (1, "", f"error: {inst}:2: empty 'base:' header\n")


def test_reduce_and_decide_roundtrip(capsys, tmp_path):
    dnf = tmp_path / "phi.dnf"
    dnf.write_text("x1\n-x1\n")
    out_inst = tmp_path / "inst.txt"
    out_base = tmp_path / "taut.base"
    code, out, _ = run(
        capsys,
        "reduce",
        "tautdnf-monotone",
        str(dnf),
        "--out-instance",
        str(out_inst),
        "--out-base",
        str(out_base),
        "--format",
        "record",
    )
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "tautdnf-monotone" and record["premises"] == 1
    code, out, _ = run(capsys, "decide", "--instance", str(out_inst), "--format", "record")
    assert code == 0 and json.loads(out)["implies"] is True


def test_reduce_mod2_word_argument(capsys, tmp_path):
    out_inst = tmp_path / "m.txt"
    out_base = tmp_path / "m.base"
    code, out, _ = run(
        capsys,
        "reduce",
        "mod2-single",
        "101",
        "--out-instance",
        str(out_inst),
        "--out-base",
        str(out_base),
        "--format",
        "record",
    )
    assert code == 0
    code, out, _ = run(capsys, "decide", "--instance", str(out_inst), "--single-premise", "--format", "record")
    assert code == 0
    record = json.loads(out)
    assert record["implies"] is False and record["fragment_used"] == "linear"


def test_reduce_refuses_a_dnf_over_the_variable_cap(capsys, tmp_path):
    # refused once the terms are read, before any tree is built or file written
    dnf = tmp_path / "huge.dnf"
    dnf.write_text("x1 x5000000\n-x1\n")
    outputs = ("--out-instance", str(tmp_path / "inst.txt"), "--out-base", str(tmp_path / "taut.base"))
    for kind in ("tautdnf-monotone", "tautdnf-d2"):
        started = time.perf_counter()
        code, out, err = run(capsys, "reduce", kind, str(dnf), *outputs)
        assert time.perf_counter() - started < 0.1
        assert (code, out) == (1, "")
        assert err == f"error: {dnf}: literal index 5000000 exceeds the cap of 32768 DNF variables\n"
    assert not (tmp_path / "inst.txt").exists() and not (tmp_path / "taut.base").exists()
    dnf.write_text("x1 x32000\n-x1\n")
    code, out, _ = run(capsys, "reduce", "tautdnf-monotone", str(dnf), *outputs, "--format", "record")
    assert code == 0 and json.loads(out)["variables"] == 64_000


def test_reduce_refuses_a_long_literal_by_its_length(capsys, tmp_path):
    # 5 000 digits are refused before int() reads them: one error line that
    # names the line and the cap, with no interpreter advice and no echo
    dnf = tmp_path / "digits.dnf"
    dnf.write_text("x1 x" + "9" * 5000 + "\n-x1\n")
    outputs = ("--out-instance", str(tmp_path / "inst.txt"), "--out-base", str(tmp_path / "taut.base"))
    for kind in ("tautdnf-monotone", "tautdnf-d2"):
        started = time.perf_counter()
        code, out, err = run(capsys, "reduce", kind, str(dnf), *outputs)
        assert time.perf_counter() - started < 0.1
        assert (code, out) == (1, "")
        assert err == f"error: {dnf}: line 1: a literal index of 5000 digits exceeds the cap of 32768 DNF variables\n"
        assert "set_int_max_str_digits" not in err
    assert not (tmp_path / "inst.txt").exists() and not (tmp_path / "taut.base").exists()


def test_reduce_requires_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "reduce", "tautdnf-d2")
    assert code == 1 and "needs a DNF file" in err


def test_closure_output(capsys, tmp_path):
    path = tmp_path / "l2.base"
    path.write_text("xor3 3 01101001\n")
    code, out, _ = run(capsys, "closure", "--base", str(path), "--arity", "2", "--format", "record")
    assert code == 0
    record = json.loads(out)
    assert record == {"arity": 2, "count": 2, "functions": ["0011", "0101"]}


def test_selftest_deterministic_record(capsys):
    code1, out1, _ = run(capsys, "selftest", "--cases", "25", "--format", "record")
    code2, out2, _ = run(capsys, "selftest", "--cases", "25", "--format", "record")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["total_disagreements"] == 0
    assert set(report["fragments"]) == {"and", "general", "linear", "or", "single-linear", "unary"}


def test_selftest_rejects_a_negative_case_count(capsys):
    # a run of no cases must not read as a pass
    code, out, err = run(capsys, "selftest", "--cases", "-5", "--format", "record")
    assert code == 1
    assert out == ""
    assert err == "error: the case count must be nonnegative, got -5\n"


def test_selftest_refuses_a_case_count_over_the_cap(capsys):
    # refused before any instance is drawn, so at once
    started = time.perf_counter()
    code, out, err = run(capsys, "selftest", "--cases", "100001", "--format", "record")
    assert time.perf_counter() - started < 0.1
    assert code == 1
    assert out == ""
    assert err == "error: the case count must be at most 100000 per fragment, got 100001\n"


def _multi_block_dnf(rng, num_vars, tautology):
    """A 3-DNF over exactly `num_vars` variables, a tautology or not, as text."""
    while True:
        terms = [[rng.choice((1, -1)) * v for v in rng.sample(range(1, num_vars + 1), 3)] for _ in range(24)]
        if tautology:
            terms += [[1], [-1, 2], [-1, -2]]
        terms.append([num_vars])
        if DnfInput.build(terms, num_vars).is_tautology() == tautology:
            return "".join(" ".join(f"x{v}" if v > 0 else f"-x{-v}" for v in term) + "\n" for term in terms)


# stdout of `postimp decide` on reductions of 20 variables, so the oracle
# sweeps 16 blocks of 2^16 lanes, in record and in human form
MULTI_BLOCK_OUTPUT = {
    ("tautdnf-d2", True): (
        '{"fragment_used": "general", "implies": true}\n',
        "implies: yes [fragment general] -- all 1048576 assignments checked\n",
    ),
    ("tautdnf-d2", False): (
        '{"counterexample": {"f": 0, "t": 1, "x1": 0, "x2": 0, "x3": 0, "x4": 1, "x5": 0, "x6": 1, "x7": 1,'
        ' "x8": 1, "x9": 0, "y1": 1, "y2": 1, "y3": 1, "y4": 0, "y5": 1, "y6": 0, "y7": 0, "y8": 0, "y9": 1},'
        ' "fragment_used": "general", "implies": false}\n',
        "implies: no [fragment general] -- assignment 612758 satisfies every premise and falsifies the"
        " conclusion; counterexample: x1=0 y1=1 t=1 x2=0 y2=1 f=0 x3=0 y3=1 x4=1 y4=0 x5=0 y5=1 x6=1 y6=0"
        " x7=1 y7=0 x8=1 y8=0 x9=0 y9=1\n",
    ),
    ("tautdnf-monotone", True): (
        '{"fragment_used": "general", "implies": true}\n',
        "implies: yes [fragment general] -- all 1048576 assignments checked\n",
    ),
    ("tautdnf-monotone", False): (
        '{"counterexample": {"x1": 0, "x10": 0, "x2": 1, "x3": 0, "x4": 1, "x5": 0, "x6": 1, "x7": 1,'
        ' "x8": 0, "x9": 1, "y1": 1, "y10": 1, "y2": 0, "y3": 1, "y4": 0, "y5": 1, "y6": 0, "y7": 0,'
        ' "y8": 1, "y9": 0}, "fragment_used": "general", "implies": false}\n',
        "implies: no [fragment general] -- assignment 628326 satisfies every premise and falsifies the"
        " conclusion; counterexample: x1=0 y1=1 x2=1 y2=0 x3=0 y3=1 x4=1 y4=0 x5=0 y5=1 x6=1 y6=0 x7=1"
        " y7=0 x8=0 y8=1 x9=1 y9=0 x10=0 y10=1\n",
    ),
}


def test_reduce_and_decide_across_oracle_blocks(capsys, tmp_path):
    # one implied and one refuted instance of each coNP reduction, written by
    # `reduce` and decided from the files
    rng = random.Random("cli:multi-block")
    for kind, num_vars in (("tautdnf-d2", 9), ("tautdnf-monotone", 10)):
        for tautology in (True, False):
            dnf = tmp_path / "phi.dnf"
            dnf.write_text(_multi_block_dnf(rng, num_vars, tautology))
            inst, base = tmp_path / f"{kind}-{tautology}.txt", tmp_path / f"{kind}.base"
            code, out, _ = run(
                capsys, "reduce", kind, str(dnf), "--out-instance", str(inst), "--out-base", str(base), "--format", "record"
            )
            assert code == 0 and json.loads(out)["variables"] == 20
            for fmt, expected in zip(("record", "human"), MULTI_BLOCK_OUTPUT[kind, tautology]):
                assert run(capsys, "decide", "--instance", str(inst), "--format", fmt) == (0, expected, "")


def test_decide_rejects_a_negative_cap(capsys, tmp_path, base_file):
    # refused before the instance is read, not by the oracle later
    inst = tmp_path / "inst.txt"
    inst.write_text(f"base: {base_file.name}\npremise: x\nconclusion: and(x, y)\n")
    code, out, err = run(capsys, "decide", "--instance", str(inst), "--max-vars", "-1", "--format", "record")
    assert code == 1
    assert out == ""
    assert err == "error: the enumeration cap must be nonnegative, got -1\n"
    # a cap of zero is a cap: the oracle refuses the two-variable instance
    code, out, err = run(capsys, "decide", "--instance", str(inst), "--max-vars", "0", "--format", "record")
    assert code == 1
    assert "but the enumeration cap is 0" in err


def test_missing_file_is_reported(capsys):
    code, _, err = run(capsys, "classify", "--base", "/nonexistent/path.base")
    assert code == 1 and "path.base" in err


def _xor_fold(names):
    text = names[0]
    for name in names[1:]:
        text = f"xor({text}, {name})"
    return text


def _golden_linear_instance():
    names = [f"x{i}" for i in range(64)]
    lines = ["base: lin.base"]
    lines += [f"premise: xor({names[i]}, {names[i + 1]})" for i in range(0, 64, 2)]
    lines.append("premise: xor(x5, top())")
    lines.append(f"premise: {_xor_fold(names[::3])}")
    lines.append(f"premise: {_xor_fold(names[1::5])}")
    lines.append(f"conclusion: xor({_xor_fold(names[::7])}, x63)")
    return "\n".join(lines) + "\n"


GOLDEN_LINEAR_RECORD = (
    '{"counterexample": {"x0": 0, "x1": 1, "x10": 1, "x11": 0, "x12": 1, "x13": 0, '
    '"x14": 1, "x15": 0, "x16": 1, "x17": 0, "x18": 1, "x19": 0, "x2": 0, "x20": 1, '
    '"x21": 0, "x22": 1, "x23": 0, "x24": 1, "x25": 0, "x26": 1, "x27": 0, "x28": 1, '
    '"x29": 0, "x3": 1, "x30": 1, "x31": 0, "x32": 1, "x33": 0, "x34": 1, "x35": 0, '
    '"x36": 1, "x37": 0, "x38": 1, "x39": 0, "x4": 1, "x40": 1, "x41": 0, "x42": 1, '
    '"x43": 0, "x44": 1, "x45": 0, "x46": 1, "x47": 0, "x48": 1, "x49": 0, "x5": 0, '
    '"x50": 1, "x51": 0, "x52": 1, "x53": 0, "x54": 1, "x55": 0, "x56": 1, "x57": 0, '
    '"x58": 1, "x59": 0, "x6": 1, "x60": 1, "x61": 0, "x62": 1, "x63": 0, "x7": 0, '
    '"x8": 1, "x9": 0}, "fragment_used": "linear", "implies": false}\n'
)

GOLDEN_OR_RECORD = '{"fragment_used": "or", "implies": true}\n'


def test_decide_record_bytes_are_stable(capsys, tmp_path, linear_base_file):
    # --format record output must stay byte-identical for identical input
    (tmp_path / "lin.base").write_text(linear_base_file.read_text())
    lin = tmp_path / "lin.txt"
    lin.write_text(_golden_linear_instance())
    code, out, _ = run(capsys, "decide", "--instance", str(lin), "--format", "record")
    assert code == 0 and out == GOLDEN_LINEAR_RECORD
    (tmp_path / "or.base").write_text("or 2 0111\nbot 0 0\n")
    disj = tmp_path / "or.txt"
    disj.write_text(
        "base: or.base\n"
        "premise: or(c, or(a, d))\n"
        "premise: or(a, or(b, bot()))\n"
        "conclusion: or(a, or(e, or(b, c)))\n"
    )
    code, out, _ = run(capsys, "decide", "--instance", str(disj), "--format", "record")
    assert code == 0 and out == GOLDEN_OR_RECORD


def test_closed_stdout_ends_quietly(base_file):
    # the record is far larger than a pipe buffer, so the write meets the
    # reader's closed end
    src = os.path.dirname(os.path.dirname(os.path.abspath(postimp.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "postimp", "closure", "--base", str(base_file), "--arity", "4", "--format", "record"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    head = proc.stdout.read(40)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head == b'{"arity": 4, "count": 65536, "functions"'
    assert err == b""
