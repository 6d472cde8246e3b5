"""Record the answer digests that later runs compare against.

Usage, from the root of a checkout:

    python3 bench/record_digests.py

runs every input that ``couple_analysis`` and ``cli_session`` can be given
(the pools of seeds 0 to ``workloads.DIGEST_SEEDS - 1``; other seeds reuse
them) once, checks each answer against sympy, and writes the digest of its
mathematical content to ``bench/digests.json``, keyed by a digest of the
input.  Run it only at a commit whose answers are known to be right: a
later run fails any op whose answer differs from the recorded one.
"""

import json
import os
import shutil
import sys

import run


def main():
    run.load_library()
    import workloads

    table = {}
    workdir = os.path.join(run.ROOT, ".bench_work", "record")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in workloads.RECORDED:
            cls = workloads.WORKLOADS[name]
            table[name] = {}
            for seed in range(workloads.DIGEST_SEEDS):
                wl = cls(seed, workdir)
                for key, item in zip(wl.keys(), wl.pool):
                    summary = wl.summarize(item, wl.op(item))
                    message = wl.check(item, summary.oracle)
                    if message is not None:
                        sys.exit("seed %d, %s: %s" % (seed, name, message))
                    table[name][key] = workloads.digest(summary.facts)
                print("%s seed %d: %d digests" % (name, seed, len(table[name])), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
