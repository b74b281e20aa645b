"""Orion: the paper's contribution (Section III/IV).

Fine-grained parallel BLAST exploiting all three levels of Fig. 1 —
inter-query, intra-database *and intra-query* parallelism:

* :mod:`repro.core.overlap` — the analytical overlap model (paper Eq. 1);
* :mod:`repro.core.fragmenter` — equal-sized overlapping query fragments;
* :mod:`repro.core.boundary` — boundary-aware search options per fragment
  (partial flagging + speculative gapped extension, Section III-B1);
* :mod:`repro.core.aggregator` — the reduce phase: dedupe, cluster, re-search
  boundary clusters, E-filter (Section III-B / IV-C);
* :mod:`repro.core.calibrate` — fragment-length calibration sweeps
  (Section III-D / Fig. 11);
* :mod:`repro.core.results` — result types and :func:`replay_orion`, the
  Hadoop-cluster replay of measured results;
* :mod:`repro.core.orion` — :class:`OrionSearch`, the top-level API.
"""

from repro.core.overlap import overlap_length, shortest_significant_alignment
from repro.core.fragmenter import QueryFragment, fragment_query, suggest_fragment_length
from repro.core.boundary import options_for_fragment
from repro.core.results import FragmentAlignment, OrionResult, replay_orion
from repro.core.aggregator import aggregate_subject_alignments
from repro.core.calibrate import CalibrationResult, calibrate_fragment_length
from repro.core.orion import OrionSearch

__all__ = [
    "overlap_length",
    "shortest_significant_alignment",
    "QueryFragment",
    "fragment_query",
    "suggest_fragment_length",
    "options_for_fragment",
    "FragmentAlignment",
    "OrionResult",
    "replay_orion",
    "aggregate_subject_alignments",
    "CalibrationResult",
    "calibrate_fragment_length",
    "OrionSearch",
]
