"""File-driven front end: validate couples, print pages, run the demos.

Input is the couple JSON interchange format; output is a JSON report on
stdout (or ``--out``), with page tables additionally rendered as aligned
grids in invariant-factor notation.  Exit codes: 0 success, 1 parse
error (a malformed command line included), 2 validation failure, 3
theorem-check failure.
"""

import argparse
import json
import sys

from .zlinalg import (
    AmbientMismatch,
    ContainmentViolation,
    FPAbGroup,
    Hom,
    NotWellDefined,
    Subgroup,
    TheoremViolation,
    quotient_group,
)
from .zdiagrams import HypothesisFailed, NotExact, BudgetExceeded
from .spectral import (
    NotADifferential,
    NotAMorphism,
    SSMorphism,
    UnboundedSupport,
    cohomological_rule,
    spectral_sequence_from_page,
)
from .excouple import (
    BidegreeMismatch,
    CoupleMorphism,
    NotAComplex,
    NotFiltered,
    NotRegular,
    NotUnimodular,
    PreimageFailure,
    SetupViolation,
    _group_from_json,
    _homs_from_json,
    _parse_pos,
    compare_abutments,
    couple_from_json,
    couple_to_json,
    demo_couple,
    zeeman_check,
)
from .solvers import (
    Inconsistent,
    Underdetermined,
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
    FileNotFoundError,
    KeyError,
    TypeError,
    ValueError,
)
VALIDATION_ERRORS = (
    NotExact,
    NotRegular,
    NotUnimodular,
    NotADifferential,
    NotAMorphism,
    NotAComplex,
    NotFiltered,
    BidegreeMismatch,
    AmbientMismatch,
    ContainmentViolation,
    NotWellDefined,
    UnboundedSupport,
)
THEOREM_ERRORS = (
    TheoremViolation,
    HypothesisFailed,
    SetupViolation,
    Inconsistent,
    Underdetermined,
    PreimageFailure,
    BudgetExceeded,
)


def _load_couple(path):
    with open(path) as fh:
        return couple_from_json(json.load(fh))


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


def cmd_validate(args):
    C = _load_couple(args.file)
    report = C.validate()
    return {"ok": True, "sigma": C.bidegrees.sigma,
            "positions_checked": report["d_positions"] + report["e_positions"]}


def cmd_pages(args):
    C = _load_couple(args.file)
    ss = C.internal_spectral_sequence(up_to=args.to)
    return {"pages": [_page_report(ss, r) for r in range(1, args.to + 1)]}


def cmd_einf(args):
    C = _load_couple(args.file)
    einf = C.e_infinity()
    ss = C.internal_spectral_sequence()
    return {
        "e_infinity": {
            _pos_key(e): v["sq"].group.describe()
            for e, v in einf.items() if not v["sq"].group.is_trivial()
        },
        "collapse_page": ss.collapse_page(),
    }


def cmd_abutments(args):
    C = _load_couple(args.file)
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


def cmd_extension_report(args):
    C = _load_couple(args.file)
    rep = C.extension_report(_parse_pos(args.x))
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


def cmd_classify(args):
    C = _load_couple(args.file)
    out = C.classify(_parse_pos(args.x))
    return {"position": args.x, "label": out["label"],
            "sufficient_conditions": out["sufficient"]}


def cmd_reindex(args):
    C = _load_couple(args.file)
    if args.matrix:
        a, b, c, d = (int(t) for t in args.matrix.split(","))
        T = ((a, b), (c, d))
    else:
        T = C.canonical_T()
    R = C.reindex(T)
    R.validate()
    return {"matrix": [list(T[0]), list(T[1])], "couple": couple_to_json(R)}


def _morphism_from_json(data):
    src = couple_from_json(data["source"])
    tgt = couple_from_json(data["target"])
    fD = _homs_from_json(data.get("fD", []), src.D_at, tgt.D_at)
    fE = _homs_from_json(data.get("fE", []), src.E_at, tgt.E_at)
    return CoupleMorphism(src, tgt, fD, fE)


def cmd_compare(args):
    with open(args.file) as fh:
        f = _morphism_from_json(json.load(fh))
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


def cmd_zeeman(args):
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


def cmd_solve_two_row(args):
    with open(args.file) as fh:
        data = json.load(fh)
    abutment = {}
    for n, entry in data["abutment"].items():
        A = _group_from_json(entry["group"])
        F = Subgroup.from_generators(
            A, [tuple(v) for v in entry.get("stage", [])]
        )
        abutment[int(n)] = (A, F)
    res = two_row_solve(abutment, data["N"])
    return {
        "H": {p: G.describe() for p, G in sorted(res["H"].items())},
        "d2": {p: [list(r) for r in f.matrix] for p, f in sorted(res["d2"].items())},
    }


def cmd_five_term(args):
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


def cmd_demo(args):
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
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("pages", help="page tables of the couple's spectral sequence")
    p.add_argument("file")
    p.add_argument("--to", type=int, default=3, help="last page to print")
    p.set_defaults(fn=cmd_pages)

    p = sub.add_parser("einf", help="limit page and collapse page")
    p.add_argument("file")
    p.set_defaults(fn=cmd_einf)

    p = sub.add_parser("abutments", help="abutments of a diagonal with filtrations")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_abutments)

    p = sub.add_parser("extension-report", help="stable-E and limit-page extensions")
    p.add_argument("file")
    p.add_argument("--x", required=True, metavar="P,Q")
    p.set_defaults(fn=cmd_extension_report)

    p = sub.add_parser("classify", help="relate the limit page to the abutments")
    p.add_argument("file")
    p.add_argument("--x", required=True, metavar="P,Q")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("reindex", help="apply a unimodular change of positions")
    p.add_argument("file")
    p.add_argument("--matrix", metavar="A,B,C,D",
                   help="row-major entries; default: the canonical homological change")
    p.set_defaults(fn=cmd_reindex)

    p = sub.add_parser("compare", help="abutment comparison via a morphism file")
    p.add_argument("file")
    p.add_argument("--rule", required=True)
    p.add_argument("--n", type=int, default=0)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("zeeman", help="reverse comparison on a two-row pair")
    p.add_argument("--setup", choices=("I", "II"), default="I")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--perturb", action="store_true",
                   help="break the abutment filtration to witness the failure mode")
    p.set_defaults(fn=cmd_zeeman)

    p = sub.add_parser("solve-two-row", help="solve a two-row abutment file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_solve_two_row)

    p = sub.add_parser("five-term", help="low-degree exact sequence of the k-tower")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_five_term)

    p = sub.add_parser("demo", help="built-in instances")
    p.add_argument("name",
                   choices=("couple1", "couple2", "couple3", "cyclic-k", "cp-r"))
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--N", type=int, default=7)
    p.set_defaults(fn=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        report = args.fn(args)
    except VALIDATION_ERRORS as ex:
        report = {"error": "validation", "kind": type(ex).__name__,
                  "witness": repr(ex.args)}
        code = 2
    except THEOREM_ERRORS as ex:
        report = {"error": "theorem-check", "kind": type(ex).__name__,
                  "witness": repr(ex.args)}
        code = 3
    except PARSE_ERRORS as ex:
        report = {"error": "parse", "kind": type(ex).__name__,
                  "witness": str(ex)}
        code = 1
    else:
        code = 0
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args is not None and args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
