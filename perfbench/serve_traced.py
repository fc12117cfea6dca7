"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/serve_traced.py SPAN_DIR -- <repro serve args>``.

The wrappers are installed in the server process before its worker pool
exists, so the forked pool worker inherits them.  A pool worker has no
clean end of its own, so it appends each job's spans to
``SPAN_DIR/worker-<pid>.jsonl`` when the job returns, after the job's
spans have closed.
"""

import json
import multiprocessing
import os
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spans  # noqa: E402


def main(argv):
    span_dir = Path(argv[0])
    serve_args = argv[2:] if argv[1:2] == ["--"] else argv[1:]
    if multiprocessing.get_start_method() != "fork":
        raise SystemExit("traced serving needs fork-started pool workers")

    from repro import cli
    from repro.experiments import parallel

    tracer = spans.Tracer()
    original = parallel._worker

    def traced_worker(spec, context):
        try:
            return original(spec, context)
        finally:
            record = {
                "scene": spec.scene,
                "policy": spec.policy,
                "vtq": asdict(spec.vtq) if spec.vtq is not None else None,
                "spans": tracer.export(),
            }
            tracer.clear()
            path = span_dir / f"worker-{os.getpid()}.jsonl"
            with open(path, "a") as handle:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    with spans.installed(tracer):
        parallel._worker = traced_worker
        try:
            return cli.main(["serve"] + serve_args)
        finally:
            parallel._worker = original


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
