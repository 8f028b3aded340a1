"""Command-line front door: load algebras, run identity checks, search for
term systems, and emit witness chains, as deterministic text or JSON reports.

Exit codes: 0 all requested checks passed/found; 1 completed with a negative
outcome (verdict fails, terms not found, witness precondition violated);
2 parse/usage error; 3 cap exceeded; 4 counterexample found while
--assert-holds was requested.  Any other error is a bug in relmod and
surfaces with its traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
import time

from .algebras import AlgebraError, CapExceeded, DEFAULT_CAP, format_term, load_algebra
from . import corpus
from .identities import (
    INF,
    ParseError,
    _SORT_CHOICES,
    _SORTS,
    catalog,
    catalog_entry,
    check_identity,
    parse_identity,
    print_statement,
    with_sorts,
)
from .maltsev import (
    ElementError,
    PreconditionError,
    SearchStatus,
    find_day,
    find_directed_gumm,
    witness_day,
    witness_turt,
    witness_turtt,
)
from .relations import RelKind, enumerate_relations, format_rel_literal, parse_rel_literal


class UsageError(ValueError):
    pass


def _load_algebra_arg(source):
    if source in corpus.builtin_names():
        return corpus.builtin(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return load_algebra(fh.read())
    except FileNotFoundError:
        raise UsageError(
            f"algebra {source!r} is neither a built-in name {corpus.builtin_names()} nor a file"
        ) from None
    except OSError as e:
        raise UsageError(f"cannot read algebra file {source!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"algebra file {source!r} is not UTF-8 text: {e.reason}") from None


# the catalog's parameters; their defaults are catalog's and catalog_entry's
_PARAMS = ("k", "h", "m", "l")


def _parse_params(pairs):
    """The --param values given, by name; an omitted one keeps its default."""
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"bad --param {pair!r}, expected NAME=VALUE")
        name, value = pair.split("=", 1)
        if name not in _PARAMS:
            raise UsageError(f"unknown parameter {name!r}, expected one of {','.join(_PARAMS)}")
        if name in params:
            raise UsageError(f"--param {name} is given twice")
        if value == "inf":
            params[name] = INF
            continue
        try:
            params[name] = int(value)
        except ValueError:
            raise UsageError(f"bad --param {pair!r}: {name} must be an integer or inf") from None
    return params


def _catalog_call(fn, *args, **params):
    """fn(*args, **params) for catalog or catalog_entry, with an unknown
    label or out-of-range catalog parameters reported as a usage error."""
    try:
        return fn(*args, **params)
    except (KeyError, ValueError) as e:
        raise UsageError(e.args[0]) from None


def _parse_sorts(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"bad --sort {pair!r}, expected NAME={'|'.join(_SORTS)}")
        name, value = pair.split("=", 1)
        if name in out:
            raise UsageError(f"--sort {name} is given twice")
        try:
            out[name] = RelKind(value)
        except ValueError:
            raise UsageError(f"bad sort {value!r}, expected {_SORT_CHOICES}") from None
    return out


def _normalize_label(label):
    return label if label.startswith("(") else f"({label})"


def _format_assignment(assignment):
    return {name: format_rel_literal(r) for name, r in assignment}


def _render_text(report):
    lines = [f"command: {report['command']}"]
    alg = report.get("algebra")
    if alg:
        lines.append(f"algebra: {alg['name']} (n={alg['size']})")
    for item in report["results"]:
        kind = item["_kind"]
        if kind == "check":
            status = "HOLDS" if item["holds"] else "FAILS"
            lines.append(f"[check] {item['label']}: {status} checked={item['checked']}")
            if item.get("counterexample"):
                ce = item["counterexample"]
                for name, lit in ce["assignment"].items():
                    lines.append(f"  {name} = {lit}")
                lines.append(f"  witness: {ce['witness'][0]}-{ce['witness'][1]}")
        elif kind == "enumerate":
            lines.append(f"[enumerate] {item['kind']}: {item['count']} members")
            for lit in item["members"]:
                lines.append(f"  {lit}")
        elif kind == "find-terms":
            if item["status"] == "found":
                lines.append(f"[find-terms] {item['family']}: FOUND k={item['k']}")
                for name, text in item["terms"].items():
                    lines.append(f"  {name} = {text}")
            else:
                nodes = "" if item["node_count"] is None else f" nodes={item['node_count']}"
                extra = " (definitive)" if item.get("definitive") else ""
                status = item["status"].upper()
                lines.append(f"[find-terms] {item['family']}: {status}{nodes}{extra}")
        elif kind == "witness":
            lines.append(
                f"[witness] {item['theorem']}: k={item['k']} steps={len(item['steps'])}"
                + (f" lam_blocks={item['lam_blocks']}" if item["lam_blocks"] is not None else "")
            )
            cur = item["start"]
            for step in item["steps"]:
                lines.append(f"  {cur} --[{step['label']}]--> {step['target']}")
                cur = step["target"]
            lines.append(f"  valid: {str(item['valid']).lower()}")
        elif kind == "catalog":
            lines.append(f"[catalog] {item['label']}: {item['statement']}")
    if "time_ms" in report:
        lines.append(f"time-ms: {report['time_ms']}")
    lines.append(f"exit-code: {report['exit_code']}")
    return "\n".join(lines) + "\n"


def _render(report, fmt):
    if fmt == "structured":
        report = dict(report)
        report["results"] = [
            {k: v for k, v in item.items() if k != "_kind"} for item in report["results"]
        ]
        return json.dumps(report, indent=2) + "\n"
    return _render_text(report)


def _cmd_check(args, alg):
    overrides = _parse_sorts(args.sort)
    if args.identity_text is not None:
        if args.param:
            raise UsageError("--param sets catalog parameters; it does not apply to --identity-text")
        stmt = parse_identity(args.identity_text)
        label = "(inline)"
    else:
        label = _normalize_label(args.identity)
        stmt = _catalog_call(catalog_entry, label, **_parse_params(args.param))
    if overrides:
        try:
            stmt = with_sorts(stmt, overrides)
        except ValueError as e:
            raise UsageError(e.args[0]) from None
    # the --samples and --seed values given; an omitted one keeps check_identity's default
    sampling = {flag: getattr(args, flag) for flag in ("samples", "seed") if getattr(args, flag) is not None}
    if sampling and args.mode != "sample":
        raise UsageError(f"--{next(iter(sampling))} applies only to --mode sample")
    if sampling.get("samples", 1) < 1:
        raise UsageError(f"samples must be >= 1, got {sampling['samples']}")
    verdict = check_identity(alg, stmt, mode=args.mode, cap=args.cap, **sampling)
    item = {
        "_kind": "check",
        "label": label,
        "statement": print_statement(stmt),
        "holds": verdict.holds,
        "checked": verdict.checked,
        "counterexample": None,
    }
    if verdict.counterexample is not None:
        item["counterexample"] = {
            "assignment": _format_assignment(verdict.counterexample.assignment),
            "witness": list(verdict.counterexample.witness),
        }
    code = 0 if verdict.holds else (4 if args.assert_holds else 1)
    return [item], code


def _cmd_enumerate(args, alg):
    lattice = enumerate_relations(alg, RelKind(args.kind.upper()), cap=args.cap)
    item = {
        "_kind": "enumerate",
        "kind": args.kind,
        "count": len(lattice.members),
        "members": [format_rel_literal(r) for r in lattice.members],
    }
    return [item], 0


def _cmd_find_terms(args, alg):
    dgumm = args.family == "dgumm"
    res = (find_directed_gumm if dgumm else find_day)(alg, cap=args.cap)
    # t_0 is named first, and t_i for i >= 1 is named later + i
    first, later = ("p", "j") if dgumm else ("d0", "d")
    terms = res.system.terms if res.found else ()
    capped = res.status is SearchStatus.CAP_EXCEEDED
    item = {
        "_kind": "find-terms",
        "family": args.family,
        "status": res.status.value,
        # a capped search built no graph, so it has no node count to report
        "node_count": None if capped else res.node_count,
        "definitive": res.definitive,
        "k": res.system.k if res.found else None,
        "terms": {f"{later}{i}" if i else first: format_term(t) for i, t in enumerate(terms)} or None,
    }
    if capped:
        print(f"error: {res.cap_error}", file=sys.stderr)
        return [item], 3
    return [item], 0 if res.found else 1


def _witness_relations(args, n, fixed, chain=False):
    """The --rel relations by name, and the names of the S-chain.

    Every name in ``fixed`` is required.  With ``chain``, so is a run
    S1..Sk, k >= 1, without a gap.  Any other name, or a name given twice,
    is a usage error.
    """
    rels = {}
    for pair in args.rel or ():
        if "=" not in pair:
            raise UsageError(f"bad --rel {pair!r}, expected NAME=LITERAL")
        name, lit = pair.split("=", 1)
        if name in rels:
            raise UsageError(f"--rel {name} is given twice")
        if name not in fixed and not (chain and re.fullmatch(r"S[1-9][0-9]*", name)):
            expected = ", ".join(fixed) + (", S1, S2, ..." if chain else "")
            raise UsageError(f"unknown --rel name {name!r}, expected {expected}")
        try:
            rels[name] = parse_rel_literal(lit, n)
        except ValueError as e:
            raise UsageError(f"bad --rel {pair!r}: {e}") from None
    missing = [name for name in fixed if name not in rels]
    if missing:
        raise UsageError(f"witness needs --rel for {missing}")
    last = max((int(name[1:]) for name in rels if name not in fixed), default=0)
    s_names = [f"S{i}" for i in range(1, last + 1)]
    gap = next((name for name in s_names if name not in rels), None)
    if gap is not None:
        raise UsageError(f"--rel {gap} is missing: S1..S{last} must have no gap")
    if chain and not s_names:
        raise UsageError("turt/turtt witnesses need --rel S1=... (S2=..., ...)")
    return rels, s_names


def _found(res, family):
    """The system a search found; its cap error, or a precondition error
    when there is none."""
    if res.cap_error is not None:
        raise res.cap_error
    if not res.found:
        raise PreconditionError(f"no {family} system found for this algebra")
    return res.system


def _cmd_witness(args, alg):
    n = alg.size
    if args.theorem in ("turt", "turtt"):
        if args.chain is None or args.a is None or args.b is None:
            raise UsageError("turt/turtt witnesses need --a, --b and --chain")
        if args.c is not None:
            raise UsageError("--c does not apply to turt/turtt witnesses: c is the last --chain element")
        try:
            chain = [int(x) for x in args.chain.split(",")]
        except ValueError:
            raise UsageError(f"bad --chain {args.chain!r}: expected comma-separated integers") from None
        rels, s_names = _witness_relations(args, n, ("R", "V", "W"), chain=True)
        system = _found(find_directed_gumm(alg, cap=args.cap), "directed Gumm")
        build = witness_turt if args.theorem == "turt" else witness_turtt
        chain_obj = build(
            alg,
            system,
            rels["R"],
            rels["V"],
            rels["W"],
            [rels[name] for name in s_names],
            args.a,
            args.b,
            chain,
        )
    else:
        if args.a is None or args.b is None or args.c is None:
            raise UsageError("day witnesses need --a, --b and --c")
        if args.chain is not None:
            raise UsageError("--chain does not apply to day witnesses, which end at --c")
        rels, _ = _witness_relations(args, n, ("Theta", "S"))
        system = _found(find_day(alg, cap=args.cap), "Day")
        chain_obj = witness_day(alg, system, rels["Theta"], rels["S"], args.a, args.b, args.c)
    item = {
        "_kind": "witness",
        "theorem": args.theorem,
        "k": system.k,
        "start": chain_obj.start,
        "end": chain_obj.end,
        "lam_blocks": chain_obj.lam_blocks,
        "steps": [
            {"source": s.source, "target": s.target, "label": s.label} for s in chain_obj.steps
        ],
        "valid": chain_obj.validate(),
    }
    return [item], 0 if item["valid"] else 1


def _cmd_catalog(args):
    items = [
        {"_kind": "catalog", "label": label, "statement": print_statement(stmt)}
        for label, stmt in _catalog_call(catalog, **_parse_params(args.param))
    ]
    return items, 0


def _cap_arg(text):
    """The value of --cap: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"cap must be a positive integer, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="relmod", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--algebra", required=True, help="built-in name or JSON file path")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--timings", action="store_true", help="include timing fields")
        p.add_argument("--cap", type=_cap_arg, default=DEFAULT_CAP)

    p = sub.add_parser("check", help="check an identity on an algebra")
    common(p)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--identity", help="catalog label, e.g. (1.1)")
    given.add_argument("--identity-text", help="inline statement text")
    p.add_argument("--param", action="append", help="catalog parameter, e.g. k=3 or m=inf")
    p.add_argument("--sort", action="append", help="override a quantifier sort, e.g. Theta=CON")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--seed", type=int, help="sample mode only (default 0)")
    p.add_argument("--samples", type=int, help="sample mode only (default 1000)")
    p.add_argument("--assert-holds", action="store_true")

    p = sub.add_parser("enumerate", help="enumerate a relation lattice")
    common(p)
    p.add_argument("--kind", choices=tuple(kind.value.lower() for kind in RelKind), required=True)

    p = sub.add_parser("find-terms", help="search for directed Gumm or Day terms")
    common(p)
    p.add_argument("--family", choices=("dgumm", "day"), required=True)

    p = sub.add_parser("witness", help="emit a witness chain for one instance")
    common(p)
    p.add_argument("--theorem", choices=("turt", "turtt", "day"), required=True)
    p.add_argument("--rel", action="append", help="relation literal, e.g. R=delta+0-1")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--chain", help="comma-separated elements a_0..a_l")

    p = sub.add_parser("catalog", help="print every catalog identity")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--param", action="append")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    command = "relmod " + " ".join(shlex.quote(a) for a in argv)
    started = time.perf_counter()
    report = {"command": command}
    try:
        if args.cmd == "catalog":
            results, code = _cmd_catalog(args)
        else:
            alg = _load_algebra_arg(args.algebra)
            report["algebra"] = {"name": alg.name, "size": alg.size}
            if args.cmd == "check":
                results, code = _cmd_check(args, alg)
            elif args.cmd == "enumerate":
                results, code = _cmd_enumerate(args, alg)
            elif args.cmd == "find-terms":
                results, code = _cmd_find_terms(args, alg)
            else:
                results, code = _cmd_witness(args, alg)
    except (AlgebraError, ParseError, UsageError, ElementError, PreconditionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, PreconditionError) else 2
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    report["results"] = results
    if args.timings:
        report["time_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    report["exit_code"] = code
    sys.stdout.write(_render(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
