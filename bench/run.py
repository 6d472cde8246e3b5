"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload couple_analysis --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``.  With ``--trace 0`` the ops run
in a closed loop with one caller, in whole passes over the inputs until
their summed wall time reaches ``--seconds``; the run prints the end-to-end
metrics.  Their times are normalized to the machine's
speed, which a fixed loop timed between the ops follows (see
``reference``).  With ``--trace 1`` the run makes one untraced and one
traced pass and prints the per-layer metrics.  Every answer is checked
after the timed part: against the other ops on the same input, against
digests recorded at an earlier commit (``digests.json``), and against
sympy.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import gen
import tracer

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
# Time of one call of ``reference`` at the fastest speed seen on the machine
# the benchmark was made on (2-vCPU Intel Xeon VM, CPython 3.11.7).  Only
# the unit of the normalized times depends on it.
REF_NOMINAL_S = 0.00055
# A pass in progress stops at this wall time, to end well inside 180 s.
WALL_CAP_S = 140.0


def fail(message):
    print("bench: " + message, file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import ``specseq`` from this checkout's ``src``, and nothing else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "specseq", "__init__.py")):
        fail("no specseq source under %s" % src)
    sys.path[:0] = [HERE, src]
    import specseq

    if os.path.dirname(os.path.dirname(os.path.abspath(specseq.__file__))) != src:
        fail("imported specseq from %s, not from this checkout" % specseq.__file__)


def reference():
    """Fixed pure-Python work, independent of ``specseq``.

    On a shared machine the speed of a vCPU swings by up to a factor of two
    within seconds.  Each op's time is scaled by ``REF_NOMINAL_S`` over the
    mean time of the reference calls just before and just after it, so the
    timings read as at a steady machine speed and a slowdown of the program
    still shows in full.
    """
    acc = 0
    d = {}
    for i in range(3000):
        t = (i, i * 3 % 7)
        d[t[1]] = d.get(t[1], 0) + t[0]
        acc += (i * i) % 13
    return acc + len(d)


def timed_reference():
    gc.disable()
    t0 = time.perf_counter()
    reference()
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def normalized(seconds, ref_before, ref_after):
    return seconds * 2 * REF_NOMINAL_S / (ref_before + ref_after)


def deciles(values):
    """The 10th to 90th percentiles of ``values``."""
    return statistics.quantiles(values, n=10, method="inclusive")


def result_bits(run):
    """Geometric mean over the distinct inputs of the largest bit length in an answer.

    Each input counts once however many passes ran, so the value depends
    only on the inputs and the answers.
    """
    first = {}
    for idx, s in zip(run.index, run.summary):
        if s is not None:
            first.setdefault(idx, max(s.bits, 1))
    if not first:
        return 0.0
    return math.exp(statistics.fmean(math.log(b) for b in first.values()))


class Run:
    """Ops done, with their normalized and wall latencies and summarized answers."""

    def __init__(self):
        self.index = []
        self.latency = []
        self.wall = []
        self.reference = []
        self.summary = []
        self.error = []

    def __len__(self):
        return len(self.index)


def measure(wl, seconds, op=None, tracer=None, passes=None):
    """Whole passes of ops over ``wl.pool``, in order.

    With ``passes`` unset, passes follow each other until the summed wall
    time of the ops reaches ``seconds``, one pass at least; otherwise
    exactly ``passes`` passes.  Every input thus counts equally often, and
    the metrics of a run are averages over its whole pool.  A pass with a
    failed op ends the run.
    """
    op = op or wl.op
    done = Run()
    total = 0.0
    count = 0
    while True:
        gc.collect()
        ref_before = timed_reference()
        for idx, item in enumerate(wl.pool):
            if tracer is not None:
                tracer.begin_op(len(done))
            t0 = time.perf_counter()
            try:
                answer = op(item)
                error = None
            except Exception as ex:  # a raised theorem check is a failed op
                error = "%s: %s" % (type(ex).__name__, ex)
            latency = time.perf_counter() - t0
            total += latency
            if tracer is not None:
                tracer.end_op()
            ref_after = timed_reference()
            summary = None
            if error is None:
                try:
                    summary = wl.summarize(item, answer)
                except Exception as ex:
                    error = "summary: %s: %s" % (type(ex).__name__, ex)
            done.index.append(idx)
            done.latency.append(normalized(latency, ref_before, ref_after))
            done.wall.append(latency)
            done.reference.append(ref_after)
            ref_before = ref_after
            done.summary.append(summary)
            done.error.append(error)
            if time.perf_counter() - START > WALL_CAP_S:
                return done
        count += 1
        if (passes is not None and count >= passes) or (passes is None and total >= seconds):
            return done
        if any(e is not None for e in done.error):
            return done  # the run has failed; more passes add nothing


def check(wl, run):
    """Indices of failed ops, a message per failed input, and the inputs checked against a digest."""
    import workloads

    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh).get(wl.name, {})
    keys = wl.keys()
    first = {}
    bad = {}
    digested = 0
    for i, idx in enumerate(run.index):
        if run.error[i] is not None:
            bad.setdefault(idx, run.error[i])
            continue
        d = workloads.digest(run.summary[i].facts)
        if idx not in first:
            first[idx] = (i, d)
            if wl.name in workloads.RECORDED:
                want = recorded.get(keys[idx])
                if want is None:
                    bad.setdefault(idx, "no answer digest recorded for this input")
                elif want != d:
                    bad.setdefault(idx, "answer digest %s, recorded %s" % (d, want))
                else:
                    digested += 1
        elif first[idx][1] != d:
            bad.setdefault(idx, "answers differ between two ops on the same input")
    for idx, (i, _) in sorted(first.items()):
        if idx not in bad:
            message = wl.check(wl.pool[idx], run.summary[i].oracle)
            if message is not None:
                bad[idx] = message
    failed = [i for i, idx in enumerate(run.index) if idx in bad]
    return failed, bad, digested


def layer_metrics(wl, spans, plain, traced):
    """The per-layer metrics of a traced pass, with the untraced pass before it."""
    layer_self, count, incl = spans.summary()

    def calls(*names):
        return sum(count.get(n, 0) for n in names)

    def ratio(name):
        return spans.repeats[name] / count[name] if count.get(name) else 0.0

    both = min(len(plain), len(traced))
    m = {}
    for layer in tracer.LAYERS + ("trace",):
        m[layer + ".self_s"] = (layer_self.get(layer, 0.0), "s")
    m.update({
        "zlinalg.hom_init_calls": (calls("zlinalg.Hom.__init__"), "count"),
        "zlinalg.compose_calls": (calls("zlinalg.Hom.compose"), "count"),
        "zlinalg.snf_calls": (calls(*tracer.SNF_SPANS), "count"),
        "zlinalg.snf_s": (sum(incl.get(n, 0.0) for n in tracer.SNF_SPANS), "s"),
        "zlinalg.hnf_calls": (calls("zlinalg.hermite_column_form"), "count"),
        "zlinalg.hnf_s": (incl.get("zlinalg.hermite_column_form", 0.0), "s"),
        "zlinalg.transform_bits_max": (spans.transform_bits_max, "bits"),
        "zlinalg.contains_calls": (calls("zlinalg.Subgroup.contains"), "count"),
        "zlinalg.contains_s": (incl.get("zlinalg.Subgroup.contains", 0.0), "s"),
        "zdiagrams.composite_calls": (calls("zdiagrams.ZDiagram.composite"), "count"),
        "zdiagrams.composite_repeat_ratio": (ratio("zdiagrams.ZDiagram.composite"), "ratio"),
        "zdiagrams.image_towers_calls": (calls("zdiagrams.image_towers"), "count"),
        "zdiagrams.filtrations_calls": (calls("zdiagrams.filtrations"), "count"),
        "zdiagrams.filtrations_repeat_ratio": (ratio("zdiagrams.filtrations"), "ratio"),
        "zdiagrams.lim1_calls": (calls("zdiagrams.limit_and_lim1"), "count"),
        "spectral.advance_calls": (calls("spectral.SpectralSequence.advance"), "count"),
        "spectral.turn_page_calls": (calls("spectral.turn_page"), "count"),
        "spectral.e_infinity_calls": (calls("spectral.SpectralSequence.e_infinity"), "count"),
        "excouple.internal_ss_calls": (calls("excouple.ExactCouple.internal_spectral_sequence"), "count"),
        "excouple.internal_ss_repeat_ratio": (ratio("excouple.ExactCouple.internal_spectral_sequence"), "ratio"),
        "excouple.internal_page_calls": (calls("excouple.ExactCouple.internal_page"), "count"),
        "excouple.abutments_calls": (calls("excouple.ExactCouple.abutments"), "count"),
        "excouple.extension_report_calls": (calls("excouple.ExactCouple.extension_report"), "count"),
        "solvers.calls": (sum(c for n, c in count.items() if n.startswith("solvers.")), "count"),
        "cli.parse_s": (incl.get("excouple.couple_from_json", 0.0), "s"),
        "cli.report_bytes": (sum(s.report_bytes for s in traced.summary if s is not None),
                             "bytes"),
        "trace.overhead_ratio": (sum(traced.latency[:both]) / sum(plain.latency[:both]), "ratio"),
    })
    sizes = by_size(wl, plain)
    for n in gen.LADDER_SIZES:
        m["zlinalg.op_s.n%d" % n] = (statistics.median(sizes[n]) if n in sizes else 0.0, "s")
    return m


def by_size(wl, run):
    """Latencies of the ladder's ops, by matrix size."""
    sizes = {}
    for idx, lat in zip(run.index, run.latency):
        n = wl.pool[idx].get("n")
        if n is not None:
            sizes.setdefault(n, []).append(lat)
    return sizes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        fail("refusing to run under python -O: the library's checks are asserts")
    # zdiagrams.default_budget reads this; the benchmark runs the defaults
    os.environ.pop("SPECSEQ_BUDGET", None)
    load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    cls = workloads.WORKLOADS[args.workload]
    loaded = time.perf_counter() - START
    ref = statistics.median(timed_reference() for _ in range(3))
    loaded_s = normalized(loaded, ref, ref)

    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    setups = []
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        ref_before = timed_reference()
        t0 = time.perf_counter()
        wl = cls(args.seed, workdir)
        wl.op(wl.warmup_input)
        elapsed = time.perf_counter() - t0
        setup_walls.append(elapsed)
        setups.append(normalized(elapsed, ref_before, timed_reference()))
    setup_s = loaded_s + statistics.median(setups)

    if args.trace:
        plain = measure(wl, args.seconds, passes=1)
        spans = tracer.Tracer()
        spans.install()
        try:
            run = measure(wl, args.seconds, op=spans.span(tracer.OP_SPAN, wl.op),
                          tracer=spans, passes=1)
        finally:
            spans.uninstall()
        spans.write(os.path.join(ROOT, ".bench_work", "spans-" + args.workload))
        metrics = layer_metrics(wl, spans, plain, run)
    else:
        run = measure(wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "throughput_ops_s": (len(run) / sum(run.latency), "1/s"),
            "latency_p50_ms": (1000 * deciles(run.latency)[4], "ms"),
            "latency_p90_ms": (1000 * deciles(run.latency)[8], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "result_bits_gmean": (result_bits(run), "bits"),
        }

    failed, bad, digested = check(wl, run)
    for idx, message in sorted(bad.items()):
        print("FAILED input %d: %s" % (idx, message))
    shutil.rmtree(workdir, ignore_errors=True)
    print("python: %s %s, flags: optimize=%d dont_write_bytecode=%d, SPECSEQ_BUDGET unset"
          % (platform.python_implementation(), platform.python_version(),
             sys.flags.optimize, sys.flags.dont_write_bytecode))
    print("inputs: " + json.dumps(dict(wl.sizes(), ops=len(run),
                                       distinct_inputs=len(set(run.index)))))
    if wl.name in workloads.RECORDED:
        print("answer digests: %d of %d distinct inputs match a recorded digest"
              % (digested, len(set(run.index))))
    if not args.trace:
        p90 = deciles(run.latency)[8]
        beyond = sum(1 for x in run.latency if x > p90)
        print("samples: %d ops, %d beyond p90" % (len(run), beyond))
        wall = deciles(run.wall)
        print("wall clock, not normalized: %.4f ops/s, p50 %.3f ms, p90 %.3f ms, setup %.4f s"
              % (len(run) / sum(run.wall), 1000 * wall[4], 1000 * wall[8],
                 loaded + statistics.median(setup_walls)))
        print("reference: median %.6f s, p5 %.6f s, nominal %.6f s"
              % (statistics.median(run.reference), statistics.quantiles(run.reference, n=20)[0],
                 REF_NOMINAL_S))
        print("failed_ops_ratio: %.6f ratio" % (len(failed) / len(run)))
        for n, lats in sorted(by_size(wl, run).items()):
            print("n = %d: %d ops, median %.4f s, max %.4f s" % (n, len(lats), statistics.median(lats), max(lats)))
        print("result_bits_max: %d bits (largest over the run)"
              % max((s.bits for s in run.summary if s is not None), default=0))
    for name, (value, unit) in metrics.items():
        print("%-40s %s %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(run),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
