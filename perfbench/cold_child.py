"""One ``cold_case`` operation: a fresh interpreter runs one case.

Usage: ``python perfbench/cold_child.py CASE_ID TRACE(0|1) OUT_JSON``,
from the checkout root, with ``PYTHONPATH`` pointing at its ``src``.
Writes the case's output digest, its modelled counts, its timestamps
(``time.perf_counter``) and, when traced, its spans to ``OUT_JSON``.
"""

import json
import resource
import sys
import time
from pathlib import Path

from repro.experiments import runner  # noqa: E402  (the import being timed)
from repro.experiments.runner import ExperimentContext  # noqa: E402
from repro.gpusim.config import default_setup  # noqa: E402

IMPORTS_DONE = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import pools, spans  # noqa: E402
from perfbench.common import digest  # noqa: E402


def main(case_id: str, trace: bool, out_path: str) -> None:
    case = pools.Case.parse(case_id)
    context = ExperimentContext(
        setup=default_setup(), scene_list=pools.SCENES, use_disk_cache=False
    )
    tracer = spans.Tracer()
    vtq = pools.vtq_config(case.vtq, context)
    overrides = pools.gpu_overrides(case, context)
    if trace:
        with spans.installed(tracer):
            metrics = runner.run_case(case.scene, case.policy, context, vtq, overrides)
    else:
        metrics = runner.run_case(case.scene, case.policy, context, vtq, overrides)
    payload = {
        "digest": digest(metrics),
        "node_visits": metrics["node_visits"],
        "cycles": metrics["cycles"],
        "prefetch_unused_fraction": metrics["prefetch_unused_fraction"],
        "imports_done": IMPORTS_DONE,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.export() if trace else None,
    }
    payload["exit_start"] = time.perf_counter()
    with open(out_path, "w") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1", sys.argv[3])
