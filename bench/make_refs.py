"""Regenerate the benchmark's references in refs/.

Usage (from the repository root):

    PYTHONPATH=src python3 bench/make_refs.py [WORKLOAD ...]

For every variant of each workload (all workloads by default) this

- runs `graphflow run` on the generated config, as the benchmark does, and
  records the barrier and attainment counts and the steps per leg;
- runs `eps_continuation` on the same inputs with the explicit scheme to
  tol 1e-11 and stores that limit on the interior nodes as u_ref, in node
  order, in refs/<workload>.npz under the key v<variant>.

refs/reference.json also records the commit, the tree hash of src/ and the
Python, numpy and scipy versions used.  References are regenerated only when
the reference code itself is meant to change.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import workloads
from graphflow.cli import field_from_spec, main, parse_config
from graphflow.continuation import eps_continuation
from graphflow.grid import build_domain
from graphflow.manifold import chart_from_spec

REF_TOL = 1e-11
REFS = Path(__file__).resolve().parent / "refs"


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True,
                             check=True, cwd=REFS)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def reference_limit(raw: dict) -> np.ndarray:
    cfg = parse_config(raw, Path("."))
    domain = build_domain(chart_from_spec(cfg.chart), cfg.h, region=cfg.region)
    phi = field_from_spec(cfg.phi, domain)
    u0 = field_from_spec(cfg.u0, domain)
    report = eps_continuation(cfg.schedule, cfg.flow, phi, u0, tol=REF_TOL,
                              warm_start=cfg.warm_start)
    if not report.converged:
        raise RuntimeError(f"reference run did not converge for {raw}")
    return report.u_bar.values[domain.interior]


def run_counts(raw: dict, tmp: Path) -> dict:
    conf = tmp / "conf.json"
    conf.write_text(json.dumps(raw))
    out = tmp / "out"
    code = main(["run", str(conf), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"graphflow run exited {code} for {raw}")
    barrier = json.loads((out / "barrier.json").read_text())
    attain = json.loads((out / "attainment.json").read_text())
    cont = json.loads((out / "continuation.json").read_text())
    return {
        "barrier_points": len(barrier["points"]),
        "barrier_certified": sum(p["certified"] for p in barrier["points"]),
        "attained": attain["attained"],
        "detached": attain["detached"],
        "uncertified": attain["uncertified"],
        "steps": [leg["steps"] for leg in cont["legs"]],
    }


def main_refs(names) -> None:
    ref_path = REFS / "reference.json"
    reference = (json.loads(ref_path.read_text()) if ref_path.is_file()
                 else {"workloads": {}})
    reference["provenance"] = {
        "commit": _git("rev-parse", "HEAD"),
        "src_tree": _git("rev-parse", "HEAD:src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ref_tol": REF_TOL,
        "variants": workloads.VARIANTS,
    }
    for name in names:
        entries, arrays = [], {}
        for variant in range(workloads.VARIANTS):
            raw = workloads.config(name, variant)
            with tempfile.TemporaryDirectory() as tmp:
                counts = run_counts(raw, Path(tmp))
            u_ref = reference_limit(raw)
            arrays[f"v{variant}"] = u_ref
            entries.append({"variant": variant, "config": raw,
                            "interior_nodes": int(u_ref.size), **counts})
            print(name, variant, counts, flush=True)
        np.savez_compressed(REFS / f"{name}.npz", **arrays)
        reference["workloads"][name] = entries
    ref_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main_refs(sys.argv[1:] or list(workloads.NAMES))
