"""Command-line interface: classify, decide, reduce, closure, selftest.

Record output is one JSON line with sorted keys, so identical inputs and
flags always produce byte-identical output.  The process exit status encodes
tool success, not the implication answer.
"""

import argparse
import json
import os
import sys
import time

from . import reductions
from .classify import Fragment, classify_base, classify_base_single_premise, closure_fixed_arity
from .decide import DEFAULT_VARIABLE_CAP, Mode, VariableCapError, dispatch
from .formula import Base, read_instance, write_instance
from .gf2 import read_system
from .selftest import MAX_CASES, run_selftest

# `reduce` kind -> (the file it needs, or None when its input is the parity
# word itself, that input's reader, the reduction); the keys are the choices
REDUCTIONS = {
    "tautdnf-monotone": ("a DNF file", reductions.read_dnf, reductions.reduce_tautdnf_monotone),
    "tautdnf-d2": ("a DNF file", reductions.read_dnf, reductions.reduce_tautdnf_d2),
    "linsys": ("a linear-system file", read_system, reductions.reduce_linsys_to_imp),
    "mod2-unary": (None, str, reductions.reduce_mod2_unary),
    "mod2-single": (None, str, reductions.reduce_mod2_single_linear),
}


def run_classify(args: argparse.Namespace):
    base = Base.load(args.base)
    if args.single_premise:
        verdict = classify_base_single_premise(base)
    else:
        verdict = classify_base(base)
    mode = Mode.SINGLE_PREMISE if args.single_premise else Mode.SET_PREMISE
    record = {
        "problem": mode.value,
        "class": verdict.complexity.value,
        "fragment": verdict.fragment.value,
        "witness": verdict.witness,
    }
    human = (
        f"{mode.value}({{{', '.join(base.names)}}}): {verdict.complexity.value} "
        f"[fragment {verdict.fragment.value}] -- {verdict.witness}"
    )
    return record, human, 0


def run_decide(args: argparse.Namespace):
    if args.max_vars < 0:
        raise ValueError(f"the enumeration cap must be nonnegative, got {args.max_vars}")
    base = Base.load(args.base) if args.base else None
    inst = read_instance(args.instance, base)
    mode = Mode.SINGLE_PREMISE if args.single_premise else Mode.SET_PREMISE
    override = Fragment(args.force_fragment) if args.force_fragment else None
    decision = dispatch(inst, mode, override=override, max_vars=args.max_vars)
    record = {
        "implies": decision.implies,
        "fragment_used": decision.fragment_used.value,
    }
    if decision.counterexample is not None:
        record["counterexample"] = decision.counterexample
    human = f"implies: {'yes' if decision.implies else 'no'} [fragment {decision.fragment_used.value}] -- {decision.detail}"
    if decision.counterexample is not None:
        shown = " ".join(f"{k}={v}" for k, v in decision.counterexample.items())
        human += f"; counterexample: {shown}"
    return record, human, 0


def run_reduce(args: argparse.Namespace):
    needs, read, reduction = REDUCTIONS[args.kind]
    if needs and not args.input:
        raise ValueError(f"reduce {args.kind} needs {needs} argument")
    inst = reduction(read(args.input))
    inst.base.save(args.out_base)
    ref = os.path.relpath(
        os.path.abspath(args.out_base), os.path.dirname(os.path.abspath(args.out_instance))
    )
    write_instance(inst, args.out_instance, base_ref=ref)
    record = {
        "kind": args.kind,
        "instance": args.out_instance,
        "base": args.out_base,
        "premises": len(inst.premises),
        "variables": len(inst.variables),
    }
    human = (
        f"wrote {args.kind} instance to {args.out_instance} (base {args.out_base}): "
        f"{len(inst.premises)} premise(s), {len(inst.variables)} variable(s)"
    )
    return record, human, 0


def run_closure(args: argparse.Namespace):
    base = Base.load(args.base)
    closure = closure_fixed_arity(base, args.arity)
    tables = sorted(f.bits() for f in closure)
    record = {
        "arity": args.arity,
        "count": len(tables),
        "functions": tables,
    }
    human = f"closure of {{{', '.join(base.names)}}} at arity {args.arity}: {len(tables)} function(s)\n"
    human += "\n".join(tables)
    return record, human, 0


def run_selftest_command(args: argparse.Namespace):
    started = time.perf_counter()
    report = run_selftest(seed=args.seed, cases=args.cases)
    elapsed = time.perf_counter() - started
    lines = []
    for fragment, entry in sorted(report["fragments"].items()):
        lines.append(
            f"{fragment}: {entry['cases']} cases, {entry['disagreements']} disagreement(s)"
        )
    lines.append(
        f"total disagreements: {report['total_disagreements']} (elapsed {elapsed:.2f}s)"
    )
    return report, "\n".join(lines), 1 if report["total_disagreements"] else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postimp",
        description="Classify and decide propositional implication over restricted connective sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "record"), default="human", dest="out_format")

    p_classify = sub.add_parser("classify", help="classify a base file into its complexity region")
    p_classify.add_argument("--base", required=True)
    p_classify.add_argument("--single-premise", action="store_true", dest="single_premise")
    add_format(p_classify)
    p_classify.set_defaults(run=run_classify)

    p_decide = sub.add_parser("decide", help="decide an implication instance file")
    p_decide.add_argument("--instance", required=True)
    p_decide.add_argument("--base", help="overrides the base: header's path; the header must still be well-formed")
    p_decide.add_argument("--single-premise", action="store_true", dest="single_premise")
    p_decide.add_argument(
        "--force-fragment",
        choices=tuple(f.value for f in Fragment if f is not Fragment.TRIVIAL),
        dest="force_fragment",
    )
    p_decide.add_argument("--max-vars", type=int, default=DEFAULT_VARIABLE_CAP, dest="max_vars")
    add_format(p_decide)
    p_decide.set_defaults(run=run_decide)

    p_reduce = sub.add_parser("reduce", help="emit a reduction instance plus its base file")
    p_reduce.add_argument("kind", choices=tuple(REDUCTIONS))
    p_reduce.add_argument(
        "input",
        nargs="?",
        default="",
        help="DNF file, linear-system file, or parity word depending on the kind",
    )
    p_reduce.add_argument("--out-instance", default="instance.txt", dest="out_instance")
    p_reduce.add_argument("--out-base", default="base.txt", dest="out_base")
    add_format(p_reduce)
    p_reduce.set_defaults(run=run_reduce)

    p_closure = sub.add_parser("closure", help="enumerate the composition closure at a fixed arity")
    p_closure.add_argument("--base", required=True)
    p_closure.add_argument("--arity", type=int, default=3)
    add_format(p_closure)
    p_closure.set_defaults(run=run_closure)

    p_selftest = sub.add_parser("selftest", help="random cross-check of fragment deciders vs the oracle")
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.add_argument(
        "--cases", type=int, default=1000, help=f"cases per fragment, from 0 to {MAX_CASES} (default 1000)"
    )
    add_format(p_selftest)
    p_selftest.set_defaults(run=run_selftest_command)

    return parser


def _emit(text: str, status: int) -> int:
    """Print the result and return the exit status; a reader that closed the
    pipe early gets no traceback, and the status becomes 1."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        record, human, status = args.run(args)
    except (ValueError, VariableCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _emit(json.dumps(record, sort_keys=True) if args.out_format == "record" else human, status)
