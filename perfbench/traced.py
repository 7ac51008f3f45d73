"""Run one surgcurate command in-process, optionally recording spans.

Usage: python3 perfbench/traced.py --result FILE [--trace] -- ARGV...

ARGV is the command line that would follow `surgcurate`. With --trace,
the public functions each layer exposes are rebound, for this process
only, to wrappers that record a span (name, start, end, parent) and a few
counters. Spans stay in memory and are written to FILE, with the exit
code and the command's wall time, when the command has finished. Without
--trace the same command runs bare, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import time


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        """Wrap fn so every call records a span; `after(args, result)`
        returns counters to attach, computed once the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                span.update(after(args, result))
            return result

        return traced

    def install(self) -> None:
        from surgcurate import cli, clustering, curation, manifest
        from surgcurate.clustering import ClusterTree
        from surgcurate.curation import CuratedSet

        def rss(args, result):
            return {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "payload": result.data.nbytes}

        def capped(args, curated):
            # a leaf is capped when water-filling gave it every point it has
            quotas, sizes = curated.plan.quotas[0], args[0].reachable_counts(0)
            return {"capped_leaves": int(((quotas == sizes) & (sizes > 0)).sum())}

        for module, attr, name, after in (
            (cli, "ingest_raw_blobs", "store.ingest", None),
            (cli, "write_store", "store.write", None),
            (cli, "read_store", "store.read", rss),
            (cli, "l2_normalize", "store.normalize", rss),
            (cli, "build_hierarchy", "clustering.hierarchy", None),
            (clustering, "kmeans", "clustering.kmeans", lambda a, r: {"iters": r.iterations_run}),
            (clustering, "kmeanspp_init", "clustering.seed", None),
            (ClusterTree, "save", "clustering.save", None),
            (cli, "curate", "curation.curate", capped),
            (curation, "allocate_budget", "curation.allocate", None),
            (CuratedSet, "to_jsonl", "curation.write", None),
            (cli, "write_batch_manifest", "mixer.write", None),
            (cli, "read_corpus_manifest", "corpus.read", lambda a, r: {"records": len(r)}),
            (cli, "validate_corpus", "corpus.validate", None),
            (cli, "corpus_stats", "corpus.stats", None),
            (cli, "generate_split_manifest", "splits.generate", None),
            (cli, "verify_disjoint", "splits.verify", None),
            (manifest, "fingerprint_file", "manifest.fingerprint", lambda a, r: {"bytes": os.path.getsize(a[0])}),
        ):
            setattr(module, attr, self.span(name, getattr(module, attr), after))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from surgcurate import cli

    tracer = Tracer()
    if args.trace:
        tracer.install()
    start = time.perf_counter()
    try:
        cli.main.main(args=argv, prog_name="surgcurate", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - start
    doc = {"exit": code, "wall": wall, "spans": tracer.spans}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
