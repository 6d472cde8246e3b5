"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps public functions and methods of ``specseq`` in
place.  Every call through a wrapper records one span: its name, start,
end, the span it was called from and the op it belongs to.  Spans stay in
flat arrays in memory and are written out once, when the run ends.  The
per-layer metrics are computed from the spans and from the few values the
wrappers record next to them (repeated arguments, transform sizes).

A wrapper's own work (its bookkeeping and the ``after`` hooks) is timed
too, as the span's ``overhead``.  It lies outside the span's start and end,
and a parent's self time excludes it along with the child, so self times
measure the library and ``overhead`` the tracer.
"""

import array
import json
import sys
import time
from collections import Counter

# Layer -> (where, name) pairs to wrap.  ``where`` is a class name or
# ``None`` for a module-level function.  Module-level functions are
# replaced in every ``specseq`` module that imported them, because
# ``from .zlinalg import f`` binds ``f`` at import time.
TARGETS = {
    "zlinalg": [
        (None, "smith_normal_form"),
        (None, "hermite_column_form"),
        (None, "kernel_basis"),
        (None, "solve_matrix"),
        (None, "group_from_presentation"),
        (None, "direct_sum"),
        (None, "subquotient"),
        (None, "quotient_group"),
        (None, "cokernel"),
        (None, "induced_map"),
        (None, "hom_on_generators"),
        ("Subgroup", "from_generators"),
        ("Subgroup", "contains"),
        ("Subgroup", "contains_subgroup"),
        ("Subgroup", "sum"),
        ("Subgroup", "intersection"),
        ("Subgroup", "as_group"),
        ("Hom", "__init__"),
        ("Hom", "__call__"),
        ("Hom", "identity"),
        ("Hom", "zero_map"),
        ("Hom", "compose"),
        ("Hom", "add"),
        ("Hom", "image"),
        ("Hom", "kernel"),
        ("Hom", "preimage"),
        ("Hom", "solve_element"),
        ("Hom", "image_of_subgroup"),
        ("Hom", "is_mono"),
        ("Hom", "is_epi"),
        ("Hom", "restrict"),
        ("SubquotientData", "__init__"),
        ("SubquotientData", "project"),
        ("SubquotientData", "lift"),
    ],
    "zdiagrams": [
        ("ZDiagram", "map_at"),
        ("ZDiagram", "composite"),
        (None, "colimit"),
        (None, "limit_and_lim1"),
        (None, "image_towers"),
        (None, "stable_image"),
        (None, "ml_conditions"),
        (None, "filtrations"),
        (None, "kernel_diagram"),
    ],
    "spectral": [
        (None, "turn_page"),
        (None, "spectral_sequence_from_page"),
        ("SpectralSequence", "__init__"),
        ("SpectralSequence", "advance"),
        ("SpectralSequence", "stabilization_horizon"),
        ("SpectralSequence", "e_infinity"),
        ("SpectralSequence", "collapse_page"),
        ("SSMorphism", "__init__"),
    ],
    "excouple": [
        (None, "couple_from_filtered_complex"),
        (None, "couple_from_json"),
        (None, "couple_to_json"),
        (None, "demo_couple"),
        (None, "zeeman_check"),
        ("ExactCouple", "__init__"),
        ("ExactCouple", "validate"),
        ("ExactCouple", "diagonal"),
        ("ExactCouple", "cycles_at"),
        ("ExactCouple", "boundaries_at"),
        ("ExactCouple", "omega_cycles_at"),
        ("ExactCouple", "omega_boundaries_at"),
        ("ExactCouple", "internal_page"),
        ("ExactCouple", "internal_spectral_sequence"),
        ("ExactCouple", "e_infinity"),
        ("ExactCouple", "abutments"),
        ("ExactCouple", "extension_report"),
        ("ExactCouple", "classify"),
        ("ExactCouple", "reindex"),
        ("ExactCouple", "canonical_T"),
    ],
    "solvers": [
        (None, "two_row_solve"),
        (None, "cyclic_group_sequence"),
        (None, "projective_space_sequence"),
        (None, "five_term"),
    ],
    "cli": [
        (None, "main"),
    ],
}

LAYERS = tuple(TARGETS)
SNF_SPANS = ("zlinalg.smith_normal_form", "zlinalg.group_from_presentation")
OP_SPAN = "bench.op"


def _bits(matrices):
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


class Tracer:
    """Records spans from the wrappers it installs into ``specseq``."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.overhead = array.array("d")
        self._stack = []
        self._op_id = -1
        self._seen = {}
        self.repeats = Counter()
        self.transform_bits_max = 0
        self._patched = []

    # -- recording -------------------------------------------------------

    def _id(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def begin_op(self, op_id):
        self._op_id = op_id
        self._seen = {}

    def end_op(self):
        """Stop recording until the next op, so work between ops is not traced."""
        self._op_id = -1

    def note_repeat(self, kind, key):
        """Count ``key`` as a repeat of ``kind`` if this op already asked it."""
        seen = self._seen.setdefault(kind, set())
        if key in seen:
            self.repeats[kind] += 1
        else:
            seen.add(key)

    def span(self, name, fn, after=None):
        """``fn`` wrapped so that each call records a span called ``name``.

        ``after(args, result)`` runs once the span has ended, to record
        repeats or sizes outside the span's own time.
        """
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._op_id < 0:
                return fn(*args, **kwargs)
            enter = clock()
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.overhead.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, result)
            self.overhead[idx] = (t0 - enter) + (clock() - t1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing the wrappers -------------------------------------------

    def _after(self, name):
        if name == "zdiagrams.ZDiagram.composite":
            return lambda args, result: self.note_repeat(name, (args[0], args[1], args[2]))
        if name == "zdiagrams.filtrations":
            return lambda args, result: self.note_repeat(name, args[0])
        if name == "excouple.ExactCouple.internal_spectral_sequence":
            # a couple compares by identity, and the per-op set holds it, so
            # a rebuilt couple never counts as the one asked before
            return lambda args, result: self.note_repeat(name, args[0])
        if name == "zlinalg.smith_normal_form":
            return self._note_transforms(lambda r: (r[0], r[2]))
        if name == "zlinalg.group_from_presentation":
            return self._note_transforms(lambda r: (r[1], r[2]))
        return None

    def _note_transforms(self, pick):
        def after(args, result):
            self.transform_bits_max = max(self.transform_bits_max, _bits(pick(result)))
        return after

    def install(self):
        """Wrap every target in place; ``uninstall`` puts the originals back."""
        import specseq  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "specseq" or k.startswith("specseq.")]
        for layer, targets in TARGETS.items():
            home = sys.modules["specseq." + layer]
            for where, attr in targets:
                name = "%s.%s" % (layer, attr if where is None else where + "." + attr)
                if where is None:
                    original = getattr(home, attr)
                    wrapped = self.span(name, original, self._after(name))
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patched.append((mod, key, original))
                                setattr(mod, key, wrapped)
                    continue
                cls = getattr(home, where)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.span(name, raw.__func__, self._after(name)))
                else:
                    wrapped = self.span(name, raw, self._after(name))
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, wrapped)

    def uninstall(self):
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched = []

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's, and their overhead."""
        start, end, overhead = self.start, self.end, self.overhead
        child = array.array("d", bytes(8 * len(start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += end[i] - start[i] + overhead[i]
        return array.array("d", (end[i] - start[i] - child[i] for i in range(len(start))))

    def summary(self):
        """Per-layer self time, span counts and inclusive times by name.

        The tracer's overhead inside the ops is the self time of layer ``trace``.
        """
        self_t = self.self_times()
        layer_self = Counter()
        count = Counter()
        incl = Counter()
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            layer_self[name.split(".", 1)[0]] += self_t[i]
            if self.parent[i] >= 0:
                layer_self["trace"] += self.overhead[i]
            count[name] += 1
            incl[name] += self.end[i] - self.start[i]
        return layer_self, count, incl

    def op_times(self):
        """Traced wall time of each op span, keyed by op id."""
        nid = self._name_id.get(OP_SPAN)
        return {self.op[i]: self.end[i] - self.start[i]
                for i in range(len(self.name)) if self.name[i] == nid}

    def write(self, base):
        """Write the spans to ``base.json`` (names, layout) and ``base.bin``."""
        columns = ("name", "parent", "op", "start", "end", "overhead")
        with open(base + ".bin", "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        with open(base + ".json", "w") as fh:
            json.dump({
                "spans": len(self.name),
                "names": self.names,
                "columns": [[col, getattr(self, col).typecode] for col in columns],
            }, fh)
