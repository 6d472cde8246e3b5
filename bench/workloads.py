"""The benchmark's workloads: inputs, one op each, and the answer checks.

Each workload turns a seed into a pool of plain-data inputs, runs one op on
one input through the public ``specseq`` API, and reduces the op's answer
to a ``Summary``: the mathematical facts the answer states (digested for
comparison), the values the independent oracle checks, and the largest
integer the answer hands back.  ``specseq`` is imported by ``run.py``
before this module is used; the oracles import ``sympy`` only when the
timed part of a run is over.

A workload class is built from ``(seed, workdir)`` and offers ``pool``,
``warmup_input``, ``keys()`` (a digest per input), ``op(item)``,
``summarize(item, answer)``, ``check(item, oracle)`` (a message when the
answer is wrong) and ``sizes()``; ``run.py`` relies on nothing else.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import gen

from specseq import cli
from specseq.excouple import couple_from_filtered_complex, couple_to_json, demo_couple
from specseq.spectral import SpectralSequence
from specseq.zlinalg import FPAbGroup, Hom, Subgroup, SubquotientData, group_from_presentation, subquotient

# Seed offset for the random couples of cli_session, so that they differ
# from the couple_analysis couples of the same seed.
CLI_SEED_OFFSET = 7919

# The workloads whose answers are checked against recorded digests, and the
# number of input pools recorded for them: seed s runs the pool of seed
# s % DIGEST_SEEDS, so every input of every seed has a recorded answer.
RECORDED = ("couple_analysis", "cli_session")
DIGEST_SEEDS = 16


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def group(G):
    return [G.rank, list(G.torsion)]


def bits(obj):
    """Largest bit length of any integer in an answer the library returned.

    Walks library objects, containers and JSON reports alike.
    """
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, FPAbGroup):
        return bits(obj.torsion)
    if isinstance(obj, Hom):
        return max(bits(obj.matrix), bits(obj.domain), bits(obj.codomain))
    if isinstance(obj, Subgroup):
        return bits(obj.basis)
    if isinstance(obj, SubquotientData):
        return max(bits(obj.Z), bits(obj.B), bits(obj.group), bits(obj.section_columns()))
    if isinstance(obj, SpectralSequence):
        return max((bits(list(p.diffs.values())) for p in obj.pages), default=0)
    if isinstance(obj, dict):
        return max((bits(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((bits(v) for v in obj), default=0)
    if hasattr(obj, "__dataclass_fields__"):
        return max((bits(getattr(obj, f)) for f in obj.__dataclass_fields__), default=0)
    return 0


@dataclass
class Summary:
    """What the checks need from one op's answer."""

    facts: object  # JSON-able mathematical content, digested
    oracle: object  # values the independent oracle checks
    bits: int
    report_bytes: int = 0  # bytes of the report a CLI command wrote


# ---------------------------------------------------------------------------
# couple_analysis
# ---------------------------------------------------------------------------


def complex_objects(data):
    """The library objects of a generated filtered complex."""
    groups = {n: FPAbGroup(r, tuple(t)) for n, (r, t) in data["groups"].items()}
    diffs = {n: Hom(groups[n], groups[n - 1], m) for n, m in data["diffs"].items()}
    filtration = {
        p: {n: Subgroup.from_generators(groups[n], [tuple(g) for g in gens])
            for n, gens in level.items()}
        for p, level in data["filtration"].items()
    }
    return groups, diffs, filtration


def diagonal(C, x):
    return C.position_index(x).n


class CoupleAnalysis:
    """One op: the full analysis of one couple of a filtered complex."""

    name = "couple_analysis"
    PER_SHAPE = 22

    def __init__(self, seed, workdir):
        self.pool = gen.complex_pool(seed % DIGEST_SEEDS, self.PER_SHAPE)
        self.warmup_input = gen.complex_pool(0, 1)[0]

    def keys(self):
        return [digest(["couple_analysis", data]) for data in self.pool]

    def op(self, data):
        C = couple_from_filtered_complex(*complex_objects(data))
        ss = C.internal_spectral_sequence()
        einf = C.e_infinity()
        b = C.bidegrees.b
        xs = sorted((e[0] - b[0], e[1] - b[1]) for e in C.E)
        ns = sorted({diagonal(C, x) for x in C.D} | {diagonal(C, x) for x in xs})
        abut = {n: C.abutments(n) for n in ns}
        labels = {x: C.classify(x) for x in xs}
        return C, ss, einf, abut, labels

    def summarize(self, data, answer):
        C, ss, einf, abut, labels = answer
        key = "%d,%d"
        facts = {
            "e_infinity": {key % e: group(v["sq"].group) for e, v in einf.items()
                           if not v["sq"].group.is_trivial()},
            "abutments": {
                str(n): {
                    "colim": group(ab.colim),
                    "lim": group(ab.lim),
                    "eps": {key % x: group(sq.group) for x, sq in ab.eps.items()},
                    "eps_upper": {key % x: group(sq.group) for x, sq in ab.eps_upper.items()},
                }
                for n, ab in abut.items()
            },
            "labels": {key % x: out["label"] for x, out in labels.items()},
        }
        einf_rank = {}
        for e, v in einf.items():
            n = diagonal(C, (e[0] - C.bidegrees.b[0], e[1] - C.bidegrees.b[1]))
            einf_rank[n] = einf_rank.get(n, 0) + v["sq"].group.rank
        oracle = {
            "colim": {n: group(ab.colim) for n, ab in abut.items()},
            "einf_rank": einf_rank,
        }
        return Summary(facts, oracle, bits([ss, einf, abut, labels]))

    def check(self, data, oracle):
        """Colimit abutments and E-infinity ranks against the homology of the complex."""
        import oracle as sym

        for n, colim in oracle["colim"].items():
            H = sym.complex_homology(data, n)
            if colim != H:
                return "abutment %d is %r, homology is %r" % (n, colim, H)
            if oracle["einf_rank"].get(n, 0) != H[0]:
                return "E-infinity ranks on diagonal %d do not add up to %d" % (n, H[0])
        return None

    def sizes(self):
        gens = [sum(r + len(t) for r, t in d["groups"].values()) for d in self.pool]
        return {
            "complexes": len(self.pool),
            "per_shape": self.PER_SHAPE,
            "shapes": [list(s) for s in gen.COMPLEX_SHAPES],
            "chain_gens_total": sum(gens),
            "chain_gens_max": max(gens),
            "free_rank_total": sum(r for d in self.pool for r, _ in d["groups"].values()),
            "torsion_max": max((t for d in self.pool for _, ts in d["groups"].values()
                                for t in ts), default=0),
        }


# ---------------------------------------------------------------------------
# lattice_ladder
# ---------------------------------------------------------------------------


class LatticeLadder:
    """One op: the zlinalg questions about one square integer matrix."""

    name = "lattice_ladder"
    ROUNDS = 80

    def __init__(self, seed, workdir):
        self.pool = gen.ladder_pool(seed, self.ROUNDS)
        self.warmup_input = gen.ladder_pool(0, 1)[0]

    def keys(self):
        return [digest(["lattice_ladder", item]) for item in self.pool]

    def op(self, item):
        n, m = item["n"], item["matrix"]
        F = FPAbGroup(n)
        f = Hom(F, F, m)
        G, proj, sect = group_from_presentation(n, [tuple(row[j] for row in m) for j in range(n)])
        K = f.kernel()
        I = f.image()
        S = Subgroup.from_generators(F, [tuple(v) for v in item["other"]])
        X = I.intersection(S)
        member = [I.contains(v) for v in item["contains"]]
        x = f.solve_element(item["solve_for"])
        Q = subquotient(Subgroup.full(F), I)
        return G, proj, sect, K, I, X, member, x, Q

    def summarize(self, item, answer):
        G, proj, sect, K, I, X, member, x, Q = answer
        facts = {
            "group": group(G),
            "cokernel": group(Q.group),
            "kernel_rank": len(K.basis),
            "member": member,
        }
        oracle = {
            "group": group(G),
            "cokernel": group(Q.group),
            "kernel": [list(k) for k in K.basis],
            "member": member,
            "solution": None if x is None else list(x),
            "intersection": [list(v) for v in X.basis],
        }
        return Summary(facts, oracle, bits([G, proj, sect, K, I, X, x, Q]))

    def check(self, item, oracle):
        """Invariant factors, kernel, memberships and the solution against sympy."""
        import oracle as sym

        m = item["matrix"]
        want = sym.presentation_group(m)
        if oracle["group"] != want or oracle["cokernel"] != want:
            return "invariants %r / %r, sympy says %r" % (oracle["group"], oracle["cokernel"], want)
        if len(oracle["kernel"]) != item["n"] - sym.rank(m):
            return "kernel has the wrong rank"
        if any(any(v) for v in (sym.apply(m, k) for k in oracle["kernel"])):
            return "a kernel vector is not killed by M"
        if oracle["solution"] is None or sym.apply(m, oracle["solution"]) != item["solve_for"]:
            return "M x != y"
        # the first two vectors are images of short vectors by construction
        want_member = [True, True] + [sym.in_lattice(m, [v]) for v in item["contains"][2:]]
        if oracle["member"] != want_member:
            return "contains answered %r, sympy says %r" % (oracle["member"], want_member)
        others = [[v[i] for v in item["other"]] for i in range(item["n"])]
        X = oracle["intersection"]
        if not (sym.in_lattice(m, X) and sym.in_lattice(others, X)):
            return "the intersection leaves one of the subgroups"
        return None

    def sizes(self):
        return {
            "matrices": len(self.pool),
            "rounds": self.ROUNDS,
            "per_round": {str(n): w for n, w in gen.LADDER_WEIGHTS.items()},
            "rank_deficient": sum(1 for it in self.pool if it["deficiency"]),
            "entries": [-9, 9],
        }


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

# Report fields that state mathematics, per command.  validate's
# positions_checked is left out: it does not count what validate checked.
CLI_FIELDS = {
    "validate": ("ok", "sigma"),
    "pages": ("pages",),
    "einf": ("e_infinity", "collapse_page"),
    "abutments": ("n", "sigma", "colim", "lim", "filtration_quotients", "upper_quotients"),
    "extension-report": ("position", "stable", "eps", "stable_e", "e_infinity",
                         "eps_upper", "limit_term", "comparison_mono_is_iso", "lim1_zero"),
    "classify": ("position", "label"),
    "reindex": ("matrix",),
    "zeeman": ("ok", "setup", "horizon", "first_failure"),
    "five-term": ("groups",),
    "solve-two-row": ("H",),
    "demo": ("demo", "H"),
}

TWO_ROW = {"N": 5, "abutment": {
    "0": {"group": {"rank": 1, "torsion": []}, "stage": []},
    "1": {"group": {"rank": 1, "torsion": []}, "stage": [[4]]},
}}

SESSION = [
    ["zeeman", "--setup", "I"],
    ["zeeman", "--setup", "II"],
    ["five-term", "--k", "6"],
    ["solve-two-row", "{tworow}"],
    ["demo", "cyclic-k"],
    ["demo", "cp-r"],
]


class CliSession:
    """One op: one in-process CLI command on a couple file."""

    name = "cli_session"
    PER_SHAPE = 11

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.out = os.path.join(workdir, "report.json")
        files = [("demo-" + name, couple_to_json(demo_couple(name)), None)
                 for name in ("couple1", "couple2", "couple3")]
        for data in gen.complex_pool(seed % DIGEST_SEEDS + CLI_SEED_OFFSET, self.PER_SHAPE):
            C = couple_from_filtered_complex(*complex_objects(data))
            files.append((digest(["complex", data]), couple_to_json(C), data))
        self.complexes = {}
        self.pool = []
        for origin, couple, data in files:
            path = os.path.join(workdir, "couple-%s.json" % origin)
            with open(path, "w") as fh:
                json.dump(couple, fh)
            self.complexes[path] = data
            x = self._position(couple)
            a = couple["bidegrees"]["a"]
            n = a[0] * x[1] - a[1] * x[0]  # the diagonal through x
            at = "%d,%d" % x
            for argv in (["validate"], ["pages", "--to", "4"], ["einf"],
                         ["abutments", "--n", str(n)], ["extension-report", "--x", at],
                         ["classify", "--x", at], ["reindex"]):
                self.pool.append({"argv": [argv[0], path] + argv[1:], "origin": origin})
        tworow = os.path.join(workdir, "tworow.json")
        with open(tworow, "w") as fh:
            json.dump(TWO_ROW, fh)
        for argv in SESSION:
            self.pool.append({"argv": [a.format(tworow=tworow) for a in argv],
                              "origin": "session"})
        self.warmup_input = self.pool[0]

    @staticmethod
    def _position(couple):
        """A D-position x whose E-object x + b is nonzero, (0, 0) if none is."""
        b = couple["bidegrees"]["b"]
        es = sorted(tuple(int(t) for t in s.split(",")) for s in couple["E"])
        if not es:
            return (0, 0)
        return (es[0][0] - b[0], es[0][1] - b[1])

    def keys(self):
        def name_only(a):
            return "{file}" if a.startswith(self.workdir) else a
        return [digest(["cli_session", item["origin"], [name_only(a) for a in item["argv"]]])
                for item in self.pool]

    def op(self, item):
        return cli.main(item["argv"] + ["--out", self.out])

    def summarize(self, item, code):
        with open(self.out) as fh:
            report = json.load(fh)
        fields = CLI_FIELDS[item["argv"][0]]
        facts = {"code": code}
        facts.update({f: report.get(f) for f in fields})
        if item["argv"][0] == "pages":
            facts["pages"] = [{"r": p["r"], "objects": p["objects"]} for p in report["pages"]]
        if item["argv"][0] == "reindex":
            couple = report["couple"]
            facts["couple"] = {k: couple[k] for k in ("bidegrees", "D", "E")}
        oracle = {"code": code}
        if item["argv"][0] == "abutments":
            oracle["colim"] = report.get("colim")
            oracle["n"] = report.get("n")
        return Summary(facts, oracle, bits(report), os.path.getsize(self.out))

    def check(self, item, oracle):
        """Exit code 0; a random couple's colimit abutment against its homology."""
        import oracle as sym

        if oracle["code"] != 0:
            return "exit code %d" % oracle["code"]
        data = self.complexes.get(item["argv"][1])
        if "colim" in oracle and data is not None:
            want = sym.describe(sym.complex_homology(data, oracle["n"]))
            if oracle["colim"] != want:
                return "colim %s, homology %s" % (oracle["colim"], want)
        return None

    def sizes(self):
        return {
            "couple_files": len(self.complexes),
            "random_couples": sum(1 for d in self.complexes.values() if d is not None),
            "commands": len(self.pool),
        }


WORKLOADS = {w.name: w for w in (CoupleAnalysis, LatticeLadder, CliSession)}
