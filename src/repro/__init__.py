"""AutoDC — a from-scratch reproduction of *Data Curation with Deep
Learning* (Thirumuruganathan, Tang & Ouzzani, EDBT 2020).

The package is organised by the paper's roadmap:

* :mod:`repro.nn` — the deep-learning substrate (Section 2's architecture
  zoo on a numpy autograd engine);
* :mod:`repro.text` / :mod:`repro.embeddings` — distributed representations
  of words, cells, tuples, columns, tables (Sections 2.2, 3.1);
* :mod:`repro.data` — relations, FDs, the Figure-4 heterogeneous graph,
  synthetic benchmarks and BART-style error generation;
* :mod:`repro.er` — DeepER entity resolution with LSH blocking and the
  traditional baselines (Section 5.2, Figure 5);
* :mod:`repro.discovery` — EKG, coherent-group semantic matching, dataset
  search (Section 5.1);
* :mod:`repro.cleaning` — DAE imputation, outlier detection, FD repair,
  consolidation, fusion (Section 5.3);
* :mod:`repro.transform` — FlashFill-style program synthesis, semantic
  transformations, neural program induction (Section 4);
* :mod:`repro.weak` / :mod:`repro.augment` / :mod:`repro.synth` — the
  training-data tricks of Section 6.2;
* :mod:`repro.orchestration` — the Figure-1 pipeline, composed end to end;
* :mod:`repro.serve` — deterministic online serving (micro-batching,
  caching, admission control) for ER match queries on a simulated clock;
* :mod:`repro.kernels` — batched matrix-op scoring kernels, differentially
  proven against the per-pair loops;
* :mod:`repro.loop` — the continuous-curation loop: serving feedback →
  weak-supervision labels → background retrain → versioned registry →
  shadow scoring → deterministic promotion → hot swap;
* :mod:`repro.gateway` — the multi-tenant service front door: per-route
  admission, two-class priority scheduling, deficit-round-robin
  fairness and retrain backpressure, all on the simulated clock.

See ``examples/quickstart.py`` for a complete runnable tour.
"""

from repro import (
    augment,
    cleaning,
    data,
    discovery,
    embeddings,
    er,
    faults,
    gateway,
    kernels,
    lint,
    loop,
    nlq,
    nn,
    obs,
    orchestration,
    par,
    serve,
    synth,
    text,
    transform,
    utils,
    weak,
)

__version__ = "1.0.0"

__all__ = [
    "nn",
    "text",
    "data",
    "embeddings",
    "er",
    "discovery",
    "nlq",
    "cleaning",
    "transform",
    "weak",
    "augment",
    "synth",
    "orchestration",
    "serve",
    "obs",
    "par",
    "faults",
    "gateway",
    "kernels",
    "lint",
    "loop",
    "utils",
]
