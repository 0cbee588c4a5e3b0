"""Command-line front end.

One binary with subcommands; quiver files come from a positional path or
standard input ("-").  Exit codes: 0 success/PASS, 1 verification FAIL,
2 domain errors and resource limits, 64 usage errors, 65 unreadable or
unparsable input.
"""

from __future__ import annotations

import argparse
import sys

from . import core, families, invariant, moves
from .orbit import (
    DEFAULT_MAX_STATES,
    SizeClass,
    _bounded,
    _enumerate_cached,
    _usable_cpus,
    normalize,
    orbit,
    verify_completeness,
    verify_lemma_tables,
    verify_minimality,
    verify_slides,
)

EX_USAGE = 64
EX_DATAERR = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(low: int):
    """An argparse ``type`` that accepts integers no smaller than ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    return count


def _read_quiver(path: str) -> core.BoundQuiver:
    if path == "-":
        return core.parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return core.parse(handle.read())


def _build_parser() -> _Parser:
    p = _Parser(prog="gentleq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def with_file(sp):
        sp.add_argument("file", nargs="?", default="-",
                        help="quiver file, or - for standard input")
        return sp

    with_file(sub.add_parser("validate", help="check gentleness and finiteness"))
    with_file(sub.add_parser("phi", help="print the derived invariant"))
    with_file(sub.add_parser("cartan", help="print path counts and form data"))
    with_file(sub.add_parser("moves", help="list applicable moves"))

    sp = with_file(sub.add_parser("apply", help="apply one move"))
    sp.add_argument("--move", required=True,
                    choices=[k.value for k in moves.MoveKind])
    sp.add_argument("--vertex")

    sp = with_file(sub.add_parser("shift", help="slide a relation or a block"))
    sp.add_argument("--block", action="store_true")
    sp.add_argument("--beta", help="anchor arrow of a block slide")
    sp.add_argument("--first", help="first arrow of the relation")
    sp.add_argument("--second", help="second arrow of the relation")
    sp.add_argument("--direction", choices=["left", "right"], default="right")

    sp = sub.add_parser("family", help="build or recognize family members")
    fam = sp.add_subparsers(dest="family_command", required=True)
    b = fam.add_parser("build")
    b.add_argument("tag")
    b.add_argument("params", nargs="*", type=int)
    with_file(fam.add_parser("recognize"))
    fp = fam.add_parser("phi")
    fp.add_argument("tag")
    fp.add_argument("params", nargs="*", type=int)

    sp = sub.add_parser("enumerate", help="list isomorphism classes")
    sp.add_argument("--vertices", type=_at_least(1), required=True)
    sp.add_argument("--arrows", type=_at_least(0), default=None)
    sp.add_argument("--two-cycle", action="store_true")

    sp = with_file(sub.add_parser("orbit", help="breadth-first move closure"))
    sp.add_argument("--max-states", type=_at_least(1), default=DEFAULT_MAX_STATES)

    sp = with_file(sub.add_parser("normalize", help="canonical family of the orbit"))
    sp.add_argument("--max-states", type=_at_least(1), default=DEFAULT_MAX_STATES)

    sp = sub.add_parser("verify", help="run a verification report")
    ver = sp.add_subparsers(dest="verify_command", required=True)
    v = ver.add_parser("completeness")
    v.add_argument("--vertices", type=_at_least(1), required=True)
    v = ver.add_parser("minimality")
    v.add_argument("--max-vertices", type=_at_least(2), required=True)
    v.add_argument("--orbit-vertices", type=_at_least(2), default=4)
    v = ver.add_parser("lemmas")
    v.add_argument("--bound", type=_at_least(1), default=8)
    v.add_argument("--orbit-vertices", type=_at_least(2), default=5)
    v.add_argument("--sweep-vertices", type=_at_least(2), default=4)
    v.add_argument("--jobs", type=_at_least(1), default=_usable_cpus())
    v = ver.add_parser("slides")
    v.add_argument("--vertices", type=_at_least(1), required=True)
    return p


def _cmd_validate(args) -> int:
    bq = _read_quiver(args.file)
    violations = core.validate(bq)
    if not violations:
        print("ok")
        return 0
    for v in violations:
        print("violation %s: %s" % (v.condition, v.witness))
    return 2


def _cmd_phi(args) -> int:
    bq = _read_quiver(args.file)
    for line in invariant.phi(bq).lines():
        print(line)
    return 0


def _cmd_cartan(args) -> int:
    bq = _read_quiver(args.file)
    order, rows = invariant.cartan_matrix(bq)
    print("vertices: %s" % " ".join(order))
    for v, row in zip(order, rows):
        print("row %s: %s" % (v, " ".join(str(x) for x in row)))
    det = invariant._det_int(rows)
    print("det: %d" % det)
    data = invariant._euler(rows, det)
    print("euler: none" if data is None else "euler: sym-det=%d" % data[1])
    return 0


def _cmd_moves(args) -> int:
    bq = _read_quiver(args.file)
    for mv in moves.applicable_moves(bq):
        print(str(mv))
    return 0


def _cmd_apply(args) -> int:
    bq = _read_quiver(args.file)
    kind = moves.MoveKind(args.move)
    vertex = args.vertex
    if kind is not moves.MoveKind.OPPOSITE and vertex is None:
        raise _UsageError("--vertex is required for %s" % kind.value)
    if kind is moves.MoveKind.OPPOSITE:
        vertex = None
    out = moves.apply_move(bq, moves.Move(kind, vertex))[0]
    sys.stdout.write(core.serialize(out))
    return 0


def _cmd_shift(args) -> int:
    bq = _read_quiver(args.file)
    if args.block:
        if not args.beta:
            raise _UsageError("--block needs --beta")
        out = moves.shift_relation_block(bq, args.beta)[0]
    else:
        if not args.first or not args.second:
            raise _UsageError("shift needs --first and --second (or --block)")
        out = moves.shift_relation(
            bq, (args.first, args.second), moves.ShiftDirection(args.direction))[0]
    sys.stdout.write(core.serialize(out))
    return 0


def _cmd_family(args) -> int:
    if args.family_command == "build":
        bq = families.build_family(families.spec(args.tag, *args.params))
        sys.stdout.write(core.serialize(bq))
        return 0
    if args.family_command == "recognize":
        bq = _read_quiver(args.file)
        found = families.recognize(bq)
        print(str(found) if found is not None else "none")
        return 0
    phi = families.phi_formula(families.spec(args.tag, *args.params))
    for line in phi.lines():
        print(line)
    return 0


def _cmd_enumerate(args) -> int:
    arrows = args.arrows
    if arrows is None:
        arrows = args.vertices + 1
    size = _bounded(SizeClass(args.vertices, arrows))
    codes = () if args.two_cycle and arrows != args.vertices + 1 else _enumerate_cached(size, 1)
    for code in codes:
        print("class %s" % core._compact(code))
    print("count: %d" % len(codes))
    return 0


def _cmd_orbit(args) -> int:
    bq = _read_quiver(args.file)
    res = orbit(bq, args.max_states)
    for key in sorted(res.component):
        print("state %s" % core.compact_key(res.representatives[key]))
    for _key, sp in res.canonical_hits:
        print("hit %s" % sp)
    print("states: %d" % len(res.component))
    print("edges: %d" % len(res.edges))
    print("complete: %s" % ("yes" if res.complete else "no"))
    return 0 if res.complete else 2


def _cmd_normalize(args) -> int:
    bq = _read_quiver(args.file)
    print(str(normalize(bq, args.max_states)))
    return 0


def _cmd_verify(args) -> int:
    if args.verify_command == "completeness":
        report = verify_completeness(args.vertices, _usable_cpus())
    elif args.verify_command == "minimality":
        report = verify_minimality(args.max_vertices, args.orbit_vertices, _usable_cpus())
    elif args.verify_command == "slides":
        report = verify_slides(args.vertices, _usable_cpus())
    else:
        report = verify_lemma_tables(
            args.bound, args.jobs, args.orbit_vertices, args.sweep_vertices)
    sys.stdout.write(report.render())
    return report.exit_code


_HANDLERS = {
    "validate": _cmd_validate,
    "phi": _cmd_phi,
    "cartan": _cmd_cartan,
    "moves": _cmd_moves,
    "apply": _cmd_apply,
    "shift": _cmd_shift,
    "family": _cmd_family,
    "enumerate": _cmd_enumerate,
    "orbit": _cmd_orbit,
    "normalize": _cmd_normalize,
    "verify": _cmd_verify,
}


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EX_USAGE
    except core.QuiverSyntaxError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EX_DATAERR
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EX_DATAERR
    except UnicodeDecodeError as exc:
        print("i/o error: input is not UTF-8 text: %s" % exc, file=sys.stderr)
        return EX_DATAERR
    except core.QuiverError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
