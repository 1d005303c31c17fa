"""Command line front end: batch subcommands over the library's file formats.

Every run prints one JSON report (or CSV where a table shape exists) built
from the same envelope: tool version and echoed config.  Each subcommand takes
only the options its handler reads, so any other is a usage error.  Exit
codes: 0 success, 2 bad input (including input lacking the structure a
certificate needs), 3 resource bound hit, 64 usage.

main can answer many queries in one process, and pays for each query's
plumbing once: argv is scanned by one parser, the CSV table is built only
under --out csv, and each family, gluing or system file an option names is
parsed and validated once per distinct content per process (io.load_file).
Each file is still read on every query, so a changed file is read again, and
an error is never cached.  Pair, matrix and scan files are loaded afresh.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .core import (
    check_axioms,
    contract,
    delete,
    dual,
    enumerate_bases,
    enumerate_circuits,
)
from .cycles import (
    glue_all,
    mk_spectrum,
    nearly_finitary_verdict,
    no_glue,
    spectrum_search,
    verify_i3_violation,
)
from .errors import InputError, ResourceLimitError, StructuralMismatchError
from .families import _past_deletion, contract_coloops, delete_edges, spectrum_scan
from .io import (
    dump_system,
    envelope,
    json_text,
    load_edit,
    load_family,
    load_file,
    load_gluing,
    load_matrix_family,
    load_nested_pair,
    load_system,
    read_json,
    spectrum_csv,
)
from .linear import nearly_thin_count
from .ops import (
    NestedPair,
    ch4_i3_witness,
    ch4_inner,
    ch4_system,
    difference,
    smin_enumerate,
    spectrum,
    truncate_top,
    union,
    verify_difference_duality,
)
from .periodic import (
    bean_family,
    corridor_width,
    domination_witness,
    ends_of,
    ladder_family,
    ray_count,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# argument resolution


# A decimal this long is past every count, index and cap the CLI checks, and
# int() refuses decimals past 4,300 digits, so _decimal saturates longer ones
_MAX_DIGITS = 64


def _decimal(text: str) -> int | None:
    """text as a natural number, 10**_MAX_DIGITS past _MAX_DIGITS digits; None
    unless every character is a decimal digit."""
    if not text.isdecimal():
        return None
    return int(text) if len(text) <= _MAX_DIGITS else 10**_MAX_DIGITS


def _canned_n(text: str, head: str) -> int | None:
    """n of a canned name head:n (ladder:n, ch4:r); None for anything else."""
    name, sep, tail = text.partition(":")
    return _decimal(tail) if name == head and sep else None


def _canned_family(text: str):
    if text == "bean":
        return bean_family()
    n = _canned_n(text, "ladder")
    return None if n is None else ladder_family(n)


def _family_arg(text: str):
    fam = _canned_family(text)
    return fam if fam is not None else load_file(load_family, text)


def _pair_arg(text: str, cap: int | None) -> NestedPair:
    r = _canned_n(text, "ch4")
    return load_nested_pair(read_json(text), cap) if r is None else ch4_system(r)


def _system_arg(text: str):
    r = _canned_n(text, "ch4")
    return load_file(load_system, text) if r is None else ch4_inner(r)


def _glue_arg(text: str, family):
    if text == "all":
        return glue_all(family)
    if text == "none":
        return no_glue(family)
    glue = load_file(load_gluing, text)
    glue.validate_for(family)
    return glue


def _pair_from(args) -> NestedPair:
    if args.pair:
        if args.inner or args.outer:
            raise InputError("give either --pair or --inner/--outer, not both")
        return _pair_arg(args.pair, args.cap)
    if args.inner and args.outer:
        return NestedPair(_system_arg(args.inner), _system_arg(args.outer), args.cap)
    raise InputError("need --pair or both --inner and --outer")


def _label_mask(ground, text: str) -> int:
    mask = 0
    for label in filter(None, (part.strip() for part in text.split(","))):
        mask |= 1 << ground.index(label)
    return mask


def _mask_names(ground, masks):
    return [list(ground.names(s)) for s in masks]


def _vertex_arg(text: str):
    name, sep, window = text.partition(":")
    if not sep:
        return name
    w = _decimal(window)
    if w is None:
        raise InputError(f"window index in {text!r} must be a natural number")
    return (name, w)


def _natural(text: str) -> int:
    """The type of every count, bound and cap option: anything but a natural
    number is a usage error."""
    n = _decimal(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a natural number")
    return n


def _profile(args) -> tuple:
    if args.period < 1:
        raise InputError("profile bounds must be nonnegative prefix, positive period")
    return (args.prefix, args.period)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (json payload, None or a function giving
# the csv text, called only under --out csv)


def cmd_axioms(args):
    report = check_axioms(_system_arg(args.system), args.axioms, args.cap)
    return report.to_dict(), None


def cmd_bases(args):
    sys_ = _system_arg(args.system)
    masks = enumerate_bases(sys_, args.cap)
    return {"count": len(masks), "bases": _mask_names(sys_.ground, masks)}, None


def cmd_circuits(args):
    sys_ = _system_arg(args.system)
    masks = enumerate_circuits(sys_, args.cap)
    return {"count": len(masks), "circuits": _mask_names(sys_.ground, masks)}, None


def cmd_dual(args):
    return dump_system(dual(_system_arg(args.system)), args.cap), None


def cmd_minor(args):
    sys_ = _system_arg(args.system)
    if args.delete:
        sys_ = delete(sys_, _label_mask(sys_.ground, args.delete))
    if args.contract:
        sys_ = contract(sys_, _label_mask(sys_.ground, args.contract))
    return dump_system(sys_, args.cap), None


def cmd_union(args):
    merged = union(_system_arg(args.left), _system_arg(args.right), args.cap)
    return dump_system(merged, args.cap), None


def cmd_mk(args):
    if args.family and args.system:
        raise InputError("give either --system or --family, not both")
    if args.system:
        sys_ = truncate_top(_system_arg(args.system), args.k, args.cap)
        return dump_system(sys_, args.cap), None
    if args.family:
        fam = _family_arg(args.family)
        report = mk_spectrum(fam, _glue_arg(args.glue, fam), args.k, _profile(args))
        return report.to_dict(), lambda: spectrum_csv(report)
    raise InputError("mk needs --system (finite truncation) or --family (glued system)")


def cmd_diff(args):
    outer = _system_arg(args.outer)
    inner = _system_arg(args.inner)
    if args.verify_duality:
        equal, witness = verify_difference_duality(outer, inner, args.cap)
        payload = {
            "equal": equal,
            "witness": list(outer.ground.names(witness)) if witness is not None else None,
        }
        return payload, None
    return dump_system(difference(outer, inner, args.cap), args.cap), None


def cmd_spectrum(args):
    if args.family:
        fam = _family_arg(args.family)
        report = spectrum_search(fam, _glue_arg(args.glue, fam), _profile(args))
    else:
        report = spectrum(_pair_from(args), args.cap)
    return report.to_dict(), lambda: spectrum_csv(report)


def cmd_smin(args):
    pair = _pair_from(args)
    masks = smin_enumerate(pair, args.cap)
    return {"count": len(masks), "sets": _mask_names(pair.ground, masks)}, None


def cmd_ch4(args):
    pair = ch4_system(args.r)
    report = spectrum(pair, args.cap)
    if args.r >= 2:
        raw = ch4_i3_witness(args.r)
        witness = {key: list(pair.ground.names(mask)) for key, mask in raw.items()}
    else:
        witness = None
    return {"spectrum": report.to_dict(), "i3_witness": witness}, lambda: spectrum_csv(report)


def cmd_rays(args):
    fam = _family_arg(args.family)
    widths = {
        label: corridor_width(fam, lanes) for label, lanes in ends_of(fam).items()
    }
    payload = {"rays": ray_count(fam), "corridor_widths": widths}
    if args.glue:
        verdict = nearly_finitary_verdict(fam, _glue_arg(args.glue, fam))
        payload["verdict"] = verdict.to_dict()
    return payload, None


def cmd_dominate(args):
    fam = _family_arg(args.family)
    depth = domination_witness(fam, _vertex_arg(args.vertex), args.k)
    return {"dominates": depth is not None, "depth": depth}, None


def cmd_bean(args):
    fam = bean_family()
    try:
        witness = verify_i3_violation(fam)
    except StructuralMismatchError as exc:
        return {"holds": False, "detail": str(exc)}, None
    witness.pop("raw", None)
    return {"holds": True, **witness}, None


def cmd_thin(args):
    spec = load_matrix_family(read_json(args.matrix_family))
    count, rows = nearly_thin_count(spec)
    return {"count": count, "growing_rows": list(rows)}, None


def _scan_entry(text: str, glue_text: str, profile: tuple, cap: int | None):
    fam = _canned_family(text)
    if fam is not None:
        return (text, fam, _glue_arg(glue_text, fam))
    r = _canned_n(text, "ch4")
    if r is not None:
        return (text, ch4_system(r))
    obj = read_json(text)
    name = Path(text).stem
    if not isinstance(obj, dict):
        raise InputError(f"{text}: not a family, edit, or nested pair file")
    if "repeat" in obj:
        fam = load_family(obj)
        return (name, fam, _glue_arg(glue_text, fam))
    if "base" in obj:
        base, doomed, squeezed = load_edit(obj, base_dir=Path(text).parent)
        fam = delete_edges(base, doomed)
        glue = _glue_arg(glue_text, fam)
        if squeezed:
            # both lists name instances of the base family
            squeezed = _past_deletion(base, doomed, squeezed)
            return (name, contract_coloops(fam, glue, squeezed, profile))
        return (name, fam, glue)
    if "inner" in obj:
        return (name, load_nested_pair(obj, cap))
    raise InputError(f"{text}: not a family, edit, or nested pair file")


def cmd_scan(args):
    profile = _profile(args)
    entries = [_scan_entry(t, args.glue, profile, args.cap) for t in args.targets]
    rows = []
    table = ["name,values,gap"]
    for row in spectrum_scan(entries, profile, args.cap):
        body = row["report"].to_dict()
        rows.append({"name": row["name"], "values": body["values"], "gap": row["gap"]})
        table.append(
            f'{row["name"]},{" ".join(str(v) for v in body["values"])},'
            f'{str(row["gap"]).lower()}'
        )
    return {"rows": rows}, lambda: "\n".join(table) + "\n"


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    """Each subcommand, declared once with its handler and the options it reads."""
    out = _Parser(add_help=False)
    out.add_argument("--out", choices=("json", "csv"), default="json")

    capped = _Parser(add_help=False)
    capped.add_argument("--cap", type=_natural, default=None, help="enumeration cap")

    on_system = _Parser(add_help=False, parents=[capped])
    on_system.add_argument("--system", required=True)

    paired = _Parser(add_help=False)
    for option in ("--pair", "--inner", "--outer"):
        paired.add_argument(option)

    profiled = _Parser(add_help=False)
    profiled.add_argument("--prefix", type=_natural, default=2, help="prefix block bound")
    profiled.add_argument("--period", type=_natural, default=1, help="pattern period bound")

    parser = _Parser(
        prog="matroidlab",
        description="Finite independence systems and periodic glued cycle systems.",
        epilog=(
            "Canned inputs: ladder:n, bean (families); ch4:r (nested pair, or its "
            "inner system where a system is expected)."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", metavar="subcommand")

    def add(name, help_, handler, *parents):
        p = sub.add_parser(name, help=help_, parents=[out, *parents])
        p.set_defaults(cmd=name, handler=handler)  # so main can parse with p alone
        return p

    p = add("axioms", "axiom conformance report for a system file", cmd_axioms, on_system)
    p.add_argument("--axioms", choices=("I", "B", "F"), default="I")
    add("bases", "all maximal independent sets", cmd_bases, on_system)
    add("circuits", "all minimal dependent sets", cmd_circuits, on_system)
    add("dual", "dual system, written as an explicit system file", cmd_dual, on_system)

    p = add("minor", "delete and contract by element labels", cmd_minor, on_system)
    p.add_argument("--delete", default="", help="comma separated labels")
    p.add_argument("--contract", default="", help="comma separated labels")

    p = add("union", "independence union of two systems", cmd_union, capped)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("mk", "k-step system: top truncation (--system) or removal spectrum (--family)",
            cmd_mk, capped, profiled)
    p.add_argument("--system")
    p.add_argument("--family")
    p.add_argument("--glue", default="all")
    p.add_argument("-k", type=_natural, required=True)

    p = add("diff", "difference system of a nested pair of system files", cmd_diff, capped)
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--verify-duality", action="store_true")

    p = add("spectrum", "spectrum of a nested pair or a glued family",
            cmd_spectrum, capped, profiled, paired)
    p.add_argument("--family")
    p.add_argument("--glue", default="all")

    add("smin", "minimal spanning complements of a nested pair", cmd_smin, capped, paired)

    p = add("ch4", "block counterexample: spectrum and exchange-failure witness",
            cmd_ch4, capped)
    p.add_argument("-r", type=_natural, required=True)

    p = add("rays", "ray census of a family; verdict when a gluing is given", cmd_rays)
    p.add_argument("--family", required=True)
    p.add_argument("--glue")

    p = add("dominate", "smallest depth giving k disjoint paths from a vertex to the tail",
            cmd_dominate)
    p.add_argument("--family", required=True)
    p.add_argument("--vertex", required=True, help="prefix name, or lane:window")
    p.add_argument("-k", type=_natural, required=True)

    add("bean", "canonical exchange-failure family, all sub-claims checked", cmd_bean)

    # the family branch of cmd_spectrum, which reads no cap
    p = add("psi-spectrum", "spectrum of a family under an explicit gluing file",
            cmd_spectrum, profiled)
    p.add_argument("--family", required=True)
    p.add_argument("--glue", required=True)

    p = add("thin", "rows of a periodic column family with growing support", cmd_thin)
    p.add_argument("--matrix-family", required=True)

    p = add("scan", "batch spectra with gap flags", cmd_scan, capped, profiled)
    p.add_argument("targets", nargs="+", help="family/edit/pair files or canned names")
    p.add_argument("--glue", default="all")

    parser.commands = sub.choices  # subcommand name -> its parser, for _parse_argv
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """build_parser() once per process; parsing never changes the parser."""
    return build_parser()


def _config_echo(args) -> dict:
    config = {"subcommand": args.cmd, "format": args.out}
    for key, value in sorted(vars(args).items()):
        if key in ("cmd", "out", "handler") or value is None:
            continue
        config[key] = list(value) if isinstance(value, tuple) else value
    return config


def _parse_argv(parser: _Parser, argv: list):
    """parser.parse_args(argv), scanning argv once.  An argv led by a
    subcommand name is parsed by that subcommand's parser alone, which is
    what parser.parse_args hands it; only the rest (no name, an unknown one,
    an option first) needs the top-level scan."""
    command = parser.commands.get(argv[0]) if argv else None
    return parser.parse_args(argv) if command is None else command.parse_args(argv[1:])


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = _parse_argv(parser, sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 64
    if not args.cmd:
        parser.print_usage(sys.stderr)
        return 64
    config = _config_echo(args)
    try:
        payload, table = args.handler(args)
    except (InputError, StructuralMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return 3
    if args.out == "csv":
        if table is None:
            print(f"error: {args.cmd} has no CSV form", file=sys.stderr)
            return 2
        sys.stdout.write(table())
    else:
        sys.stdout.write(json_text(envelope(payload, config)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
