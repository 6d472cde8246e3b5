"""File-driven front end: validate couples, print pages, run the demos.

Input is the couple JSON interchange format; output is a JSON report on
stdout (or ``--out``), with page tables additionally rendered as aligned
grids in invariant-factor notation.  Exit codes: 0 success, 1 parse
error, 2 validation failure, 3 theorem-check failure, 4 internal error.

``main`` runs a command in two phases.  The load phase parses the command
line, opens ``--out`` and reads and builds the input (a couple, a morphism
or a two-row instance); a malformed command line, an unreadable or
undecodable input file (a key written twice in one JSON object among them)
and an unwritable ``--out`` are parse errors there.
The compute phase runs the command on the loaded input; a ``ValueError``,
``KeyError`` or ``TypeError`` raised there is a fault of the program, not
of its input, and reports as an internal error.  Exit codes 2 and 3 come
from the two base classes of every exception of the package, in either
phase: a ``zlinalg.ValidationFailure`` (the input is not an exact couple,
a morphism, a complex, ...) gives 2, and a ``zlinalg.CheckFailure`` gives
3.  The latter covers every ``TheoremViolation`` (each check of
``zlinalg.require``, among them the four of ``zlinalg.hom_through``, which
builds the page differentials), a failed rule hypothesis, a violated
comparison setup, an inconsistent or underdetermined two-row instance, and
a stabilization budget overrun.  The argument parser is built once per
process, on first use.
"""

import argparse
import functools
import json
import sys

from .zlinalg import (
    CheckFailure,
    FPAbGroup,
    Hom,
    Subgroup,
    ValidationFailure,
    quotient_group,
)
from .spectral import (
    SSMorphism,
    cohomological_rule,
    spectral_sequence_from_page,
)
from .excouple import (
    COMPARE_RULES,
    CoupleMorphism,
    _array,
    _group_from_json,
    _homs_from_json,
    _integer,
    _keyed,
    _object,
    _parse_pos,
    compare_abutments,
    couple_from_json,
    couple_to_json,
    demo_couple,
    zeeman_check,
)
from .solvers import (
    cyclic_group_sequence,
    five_term,
    projective_space_sequence,
    two_row_solve,
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors become a parse report, not exit 2."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


PARSE_ERRORS = (
    argparse.ArgumentError,
    json.JSONDecodeError,
    OSError,
    KeyError,
    TypeError,
    ValueError,
)
INTERNAL_ERRORS = (KeyError, TypeError, ValueError)
FAILURES = (ValidationFailure, CheckFailure)


def _position(text):
    """``--x P,Q`` as a position."""
    try:
        return _parse_pos(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected P,Q, got %r" % (text,)) from None


def _matrix(text):
    """``--matrix A,B,C,D`` as the row-major matrix ((A, B), (C, D))."""
    try:
        a, b, c, d = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected A,B,C,D, got %r" % (text,)) from None
    return ((a, b), (c, d))


def _at_least(lo):
    """An option type for integers ``>= lo``."""
    def parse(text):
        if not text.isdigit() or int(text) < lo:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %r" % (lo, text))
        return int(text)
    return parse


def _read_json(path):
    """The JSON value in ``path``; a key given twice in one object is a
    ``ValueError``, not a silently dropped value."""
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_keyed)


def _load_couple(args):
    return couple_from_json(_read_json(args.file))


def _pos_key(x):
    return "%d,%d" % tuple(x)


def render_grid(objects: dict) -> list:
    """Aligned page table, rows by descending q, columns by ascending p."""
    if not objects:
        return ["(empty page)"]
    ps = sorted({x[0] for x in objects})
    qs = sorted({x[1] for x in objects}, reverse=True)
    cells = {}
    for q in qs:
        for p in ps:
            G = objects.get((p, q))
            cells[(p, q)] = G.describe() if G is not None else "."
    widths = {p: max(len(cells[(p, q)]) for q in qs) for p in ps}
    widths = {p: max(w, len(str(p))) for p, w in widths.items()}
    lines = []
    for q in qs:
        row = "  ".join(cells[(p, q)].rjust(widths[p]) for p in ps)
        lines.append("q=%3d | %s" % (q, row))
    lines.append("-" * max(len(l) for l in lines))
    lines.append("        " + "  ".join(str(p).rjust(widths[p]) for p in ps))
    return lines


def _page_report(ss, r):
    objs = ss.page(r).objects
    table = {_pos_key(x): objs.at(x).describe() for x in objs.positions()}
    grid = render_grid({x: objs.at(x) for x in objs.positions()})
    return {"r": r, "objects": table, "rendered": grid}


def cmd_validate(args, C):
    d_positions, e_positions = C.validate()
    return {"ok": True, "sigma": C.bidegrees.sigma,
            "positions_checked": d_positions + e_positions}


def cmd_pages(args, C):
    ss = C.internal_spectral_sequence()
    return {"pages": [_page_report(ss, r) for r in range(1, args.to + 1)]}


def cmd_einf(args, C):
    einf = C.e_infinity()
    ss = C.internal_spectral_sequence()
    return {
        "e_infinity": {
            _pos_key(e): v["sq"].group.describe()
            for e, v in einf.items() if not v["sq"].group.is_trivial()
        },
        "collapse_page": ss.collapse_page(),
    }


def cmd_abutments(args, C):
    ab = C.abutments(args.n)
    return {
        "n": args.n,
        "sigma": ab.sigma,
        "colim": ab.colim.describe(),
        "lim": ab.lim.describe(),
        "filtration_quotients": {
            _pos_key(x): sq.group.describe() for x, sq in ab.eps.items()
        },
        "upper_quotients": {
            _pos_key(x): sq.group.describe() for x, sq in ab.eps_upper.items()
        },
    }


def cmd_extension_report(args, C):
    rep = C.extension_report(args.x)
    return {
        "position": _pos_key(rep["position"]),
        "stable": rep["stable"],
        "eps": rep["eps"].describe(),
        "stable_e": rep["stable_e"].describe(),
        "e_infinity": rep["e_infinity"].describe(),
        "eps_upper": rep["eps_upper"].describe(),
        "limit_term": rep["limit_term"].describe(),
        "comparison_mono_is_iso": rep["M_iso"],
        "lim1_zero": rep["lim1_zero"],
    }


def cmd_classify(args, C):
    out = C.classify(args.x)
    return {"position": _pos_key(args.x), "label": out["label"],
            "sufficient_conditions": out["sufficient"]}


def cmd_reindex(args, C):
    T = args.matrix or C.canonical_T()
    R = C.reindex(T)
    R.validate()
    return {"matrix": [list(T[0]), list(T[1])], "couple": couple_to_json(R)}


def _morphism_from_json(data):
    data = _object(data)
    src = couple_from_json(data["source"])
    tgt = couple_from_json(data["target"])
    fD = _homs_from_json(data.get("fD", []), src.D_at, tgt.D_at)
    fE = _homs_from_json(data.get("fE", []), src.E_at, tgt.E_at)
    return CoupleMorphism(src, tgt, fD, fE)


def _load_morphism(args):
    if args.rule not in COMPARE_RULES:
        raise ValueError("unknown rule %r" % (args.rule,))
    return _morphism_from_json(_read_json(args.file))


def cmd_compare(args, f):
    return compare_abutments(f, args.rule, args.n)


def _two_row_pair(k, N, perturb=False):
    ss_src = cyclic_group_sequence(k, N)["ss"]
    ss_tgt = cyclic_group_sequence(k, N)["ss"]
    comps = {
        x: Hom.identity(ss_src.page(2).objects.at(x))
        for x in ss_src.page(2).objects.positions()
    }
    f = SSMorphism(ss_src, ss_tgt, comps)
    Z = FPAbGroup(1)
    Zk = Subgroup.from_generators(Z, [(k,)])
    abut = {0: (Z, [Subgroup.zero(Z), Subgroup.full(Z)]),
            1: (Z, [Subgroup.zero(Z), Zk, Subgroup.full(Z)])}
    for n in range(2, N - 1):
        T = FPAbGroup()
        abut[n] = (T, [Subgroup.zero(T)] * (n + 1) + [Subgroup.full(T)])
    if perturb:
        abut[1] = (Z, [Subgroup.zero(Z), Subgroup.zero(Z), Subgroup.full(Z)])
    maps = {n: Hom.identity(L) for n, (L, _) in abut.items()}
    return f, abut, maps


def cmd_zeeman(args, _):
    if args.setup == "I":
        f, abut, maps = _two_row_pair(args.k, args.N, perturb=args.perturb)
        res = zeeman_check(f, abut, abut, maps, setup="I",
                           edge_oracle=lambda f, n: True)
    else:
        Z = FPAbGroup(1)
        ss1 = spectral_sequence_from_page(
            2, ((0, 0), (0, 0)), {(0, 0): Z}, {}, cohomological_rule)
        ss2 = spectral_sequence_from_page(
            2, ((0, 0), (0, 0)), {(0, 0): Z}, {}, cohomological_rule)
        f = SSMorphism(ss1, ss2, {(0, 0): Hom.identity(Z)})
        chain = [Subgroup.zero(Z), Subgroup.full(Z)]
        if args.perturb:
            chain = [Subgroup.zero(Z), Subgroup.zero(Z)]
        abut = {0: (Z, chain)}
        res = zeeman_check(f, abut, abut, {0: Hom.identity(Z)}, setup="II",
                           edge_oracle=lambda f, n: True)
    return res


def _load_two_row(args):
    def degree(entry):
        entry = _object(entry)
        A = _group_from_json(entry["group"])
        F = Subgroup.from_generators(
            A, [tuple(_integer(x) for x in _array(v)) for v in _array(entry.get("stage", []))]
        )
        return A, F

    data = _object(_read_json(args.file))
    # "1" and "01" are one degree: given both, the file is refused
    abutment = _keyed((int(n), degree(entry)) for n, entry in _object(data["abutment"]).items())
    N = data["N"]
    if type(N) is not int or N < 1:
        raise ValueError('"N" should be an integer >= 1, got %r' % (N,))
    return abutment, N


def cmd_solve_two_row(args, instance):
    res = two_row_solve(*instance)
    return {
        "H": {p: G.describe() for p, G in sorted(res["H"].items())},
        "d2": {p: [list(r) for r in f.matrix] for p, f in sorted(res["d2"].items())},
    }


def cmd_five_term(args, _):
    res = cyclic_group_sequence(args.k, 4)
    ss = res["ss"]
    Z = FPAbGroup(1)
    F01 = Subgroup.from_generators(Z, [(args.k,)])
    _, _, data = ss.e_infinity()
    sq01 = data[(0, 1)]
    iso_low = Hom(sq01.group, F01.as_group()[0], [[1]])
    iso_high = Hom(quotient_group(Z, F01)[0],
                   ss.page(2).objects.at((1, 0)), [[1]])
    sq20 = data.get((2, 0))
    H2 = FPAbGroup()
    onto = Hom.zero_map(H2, sq20.group if sq20 else FPAbGroup())
    out = five_term(ss, Z, F01, iso_low, iso_high, H2, onto)
    return {
        "groups": [G.describe() for G in out["groups"]],
        "maps": [[list(r) for r in f.matrix] for f in out["maps"]],
    }


def cmd_demo(args, _):
    name = args.name
    if name in ("couple1", "couple2", "couple3"):
        C = demo_couple(name)
        C.validate()
        einf = C.e_infinity()
        ab = C.abutments(0)
        cls = C.classify((0, 0))
        return {
            "demo": name,
            "couple": couple_to_json(C),
            "L_0": ab.colim.describe(),
            "L_upper_-1": ab.lim.describe(),
            "E_infinity": {
                _pos_key(e): v["sq"].group.describe() for e, v in einf.items()
            },
            "classification": cls["label"],
        }
    if name == "cyclic-k":
        res = cyclic_group_sequence(args.k, args.N)
        return {
            "demo": name, "k": args.k,
            "H": [res["H"][p].describe() for p in range(args.N + 1)],
        }
    if name == "cp-r":
        res = projective_space_sequence(args.r)
        return {
            "demo": name, "r": args.r,
            "H": [res["H"][p].describe() for p in sorted(res["H"])],
        }
    raise ValueError("unknown demo %r" % name)


def build_parser():
    parser = _Parser(
        prog="specseq",
        description="Exact computations with bigraded spectral sequences"
        " and regular exact couples.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _Parser(parents=[common], **kw))

    p = sub.add_parser("validate", help="check exactness of a couple file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate, load=_load_couple)

    p = sub.add_parser("pages", help="page tables of the couple's spectral sequence")
    p.add_argument("file")
    p.add_argument("--to", type=_at_least(1), default=3, help="last page to print")
    p.set_defaults(fn=cmd_pages, load=_load_couple)

    p = sub.add_parser("einf", help="limit page and collapse page")
    p.add_argument("file")
    p.set_defaults(fn=cmd_einf, load=_load_couple)

    p = sub.add_parser("abutments", help="abutments of a diagonal with filtrations")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_abutments, load=_load_couple)

    p = sub.add_parser("extension-report", help="stable-E and limit-page extensions")
    p.add_argument("file")
    p.add_argument("--x", type=_position, required=True, metavar="P,Q")
    p.set_defaults(fn=cmd_extension_report, load=_load_couple)

    p = sub.add_parser("classify", help="relate the limit page to the abutments")
    p.add_argument("file")
    p.add_argument("--x", type=_position, required=True, metavar="P,Q")
    p.set_defaults(fn=cmd_classify, load=_load_couple)

    p = sub.add_parser("reindex", help="apply a unimodular change of positions")
    p.add_argument("file")
    p.add_argument("--matrix", type=_matrix, metavar="A,B,C,D",
                   help="row-major entries; default: the canonical homological change")
    p.set_defaults(fn=cmd_reindex, load=_load_couple)

    p = sub.add_parser("compare", help="abutment comparison via a morphism file")
    p.add_argument("file")
    p.add_argument("--rule", required=True)
    p.add_argument("--n", type=int, default=0)
    p.set_defaults(fn=cmd_compare, load=_load_morphism)

    p = sub.add_parser("zeeman", help="reverse comparison on a two-row pair")
    p.add_argument("--setup", choices=("I", "II"), default="I")
    p.add_argument("--k", type=_at_least(2), default=3)
    p.add_argument("--N", type=_at_least(1), default=6)
    p.add_argument("--perturb", action="store_true",
                   help="break the abutment filtration to witness the failure mode")
    p.set_defaults(fn=cmd_zeeman, load=None)

    p = sub.add_parser("solve-two-row", help="solve a two-row abutment file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_solve_two_row, load=_load_two_row)

    p = sub.add_parser("five-term", help="low-degree exact sequence of the k-tower")
    p.add_argument("--k", type=_at_least(2), required=True)
    p.set_defaults(fn=cmd_five_term, load=None)

    p = sub.add_parser("demo", help="built-in instances")
    p.add_argument("name",
                   choices=("couple1", "couple2", "couple3", "cyclic-k", "cp-r"))
    p.add_argument("--k", type=_at_least(2), default=5)
    p.add_argument("--r", type=_at_least(1), default=2)
    p.add_argument("--N", type=_at_least(1), default=7)
    p.set_defaults(fn=cmd_demo, load=None)
    return parser


@functools.cache
def _shared_parser():
    """``build_parser()``, built on first use and reused by every ``main`` call.

    Parsing leaves a parser unchanged and fills a fresh namespace per call,
    so no state passes from one command to the next.
    """
    return build_parser()


def _failure(ex, loading):
    """Exit code and report for ``ex``, raised in the load phase if ``loading``."""
    if isinstance(ex, ValidationFailure):
        return 2, {"error": "validation", "kind": type(ex).__name__,
                   "witness": repr(ex.args)}
    if isinstance(ex, CheckFailure):
        return 3, {"error": "theorem-check", "kind": type(ex).__name__,
                   "witness": repr(ex.args)}
    if loading:
        return 1, {"error": "parse", "kind": type(ex).__name__, "witness": str(ex)}
    return 4, {"error": "internal", "kind": type(ex).__name__, "witness": repr(ex.args)}


def main(argv=None) -> int:
    out = None
    try:
        try:
            args = _shared_parser().parse_args(argv)
            if args.out:
                out = open(args.out, "w")
            loaded = args.load(args) if args.load else None
        except FAILURES + PARSE_ERRORS as ex:
            code, report = _failure(ex, loading=True)
        else:
            try:
                code, report = 0, args.fn(args, loaded)
            except FAILURES + INTERNAL_ERRORS as ex:
                code, report = _failure(ex, loading=False)
        text = json.dumps(report, indent=2, sort_keys=True, default=str)
        print(text, file=out or sys.stdout)
    finally:
        if out is not None:
            out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
