"""Hardware models: cache degradation, scan cost and DP memory.

Published effects drive the paper's headline numbers but cannot emerge
natively from a 1000×-scaled-down pure-Python run (DESIGN.md §2), so they are
modelled explicitly. :class:`HardwareModel` bundles them with the scale map
and is the one place measured seconds become simulated seconds; every
system's replay goes through it:

* **CacheModel** — BLAST's lookup-table working set grows with query length;
  past the last-level cache it thrashes, which is the documented reason
  BLAST/mpiBLAST degrade superlinearly beyond ~1 Mbp queries (the paper's
  Fig. 3, citing the BLAST+ paper [6]). We model a multiplicative slowdown
  that is 1.0 below a working-set threshold and polynomial above it.
* **ScanCostModel** — the paper-scale database-scan term a scaled-down
  search under-represents.
* **DPMemoryModel** — gapped dynamic programming over a very long query and
  a long database sequence allocates Θ(m·n) cells; the paper reports
  mpiBLAST aborting with a request for ≈2178 GB past 96 Mbp queries. The
  model computes the worst-pair requirement and raises
  :class:`OutOfMemoryError` beyond the node's RAM. Orion never trips it
  because fragments keep ``m`` small — the same reason the real system
  survived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.validation import check_positive


class OutOfMemoryError(RuntimeError):
    """Raised when a modelled allocation exceeds node memory."""


@dataclass(frozen=True)
class CacheModel:
    """Multiplicative slowdown as a function of query length.

    ``factor(L) = 1`` for ``L ≤ threshold`` and
    ``(L / threshold) ** exponent`` beyond it.

    Defaults: ``threshold=1 Mbp`` (in paper units) with ``exponent=0.65``,
    calibrated against the paper's end-to-end factors — with it, a 71 Mbp
    query's work units run ≈16× slower than sub-knee ones, which combined
    with Orion's 1.6 Mbp fragments reproduces the paper's ≈23× win on that
    query, the ≈12× mixed-set average (Fig. 8) and the Fig. 3 blow-up of
    three orders of magnitude at 99 Mbp.
    """

    threshold: float = 1_000_000.0
    exponent: float = 0.65

    def __post_init__(self) -> None:
        check_positive("threshold", self.threshold)
        check_positive("exponent", self.exponent)

    def factor(self, query_length: float) -> float:
        """Slowdown multiplier for a work unit searching a query of this length."""
        check_positive("query_length", query_length)
        if query_length <= self.threshold:
            return 1.0
        return float((query_length / self.threshold) ** self.exponent)


@dataclass(frozen=True)
class ScanCostModel:
    """Paper-scale database-scan cost: seconds per (query Mbp × subject Mbp).

    At paper scale a work unit's duration is dominated by streaming the
    subject against the query's lookup table — time ∝ query·subject area.
    Our 1000×-scaled searches underweight that term relative to alignment
    processing (planted homologies are real-sized), so
    :meth:`HardwareModel.seconds` restores it (DESIGN.md §2).

    The default constant comes from the paper's own Table III: Orion map
    tasks average 2.10 s for a 1.6 Mbp fragment × (122.65/64 = 1.92) Mbp
    shard → ``2.10 / (1.6 · 1.92) ≈ 0.68 s/Mbp²``.
    """

    seconds_per_mbp2: float = 0.68

    def __post_init__(self) -> None:
        check_positive("seconds_per_mbp2", self.seconds_per_mbp2)

    def seconds(self, query_paper_bp: float, subject_paper_bp: float) -> float:
        """Scan seconds for one work unit, in paper base pairs."""
        check_positive("query_paper_bp", query_paper_bp)
        check_positive("subject_paper_bp", subject_paper_bp)
        return self.seconds_per_mbp2 * (query_paper_bp / 1e6) * (subject_paper_bp / 1e6)


@dataclass(frozen=True)
class DPMemoryModel:
    """Worst-pair dynamic-programming memory requirement.

    ``required_bytes = bytes_per_cell · query_length · longest_subject``.
    ``check`` raises with a message in the style of the paper's "required
    about 2178 Gb of memory for dynamic programming" error.

    ``bytes_per_cell`` is an *effective* per-cell constant folding in
    whatever banding/packing the real allocator used — the paper gives only
    the observables (71 Mbp queries ran; >96 Mbp aborted on 64 GB Gordon
    nodes against Drosophila, whose longest scaffold is ~25 Mbp), so the
    default is calibrated to put the ceiling at ≈96 Mbp for that pairing:
    ``64 GiB / (96e6 · 25e6) ≈ 2.86e-5`` bytes per cell.
    """

    node_memory_bytes: int = 64 * 1024**3  # Gordon: 64 GB per node
    bytes_per_cell: float = 2.86e-5  # effective (banded/packed) cell cost

    def __post_init__(self) -> None:
        check_positive("node_memory_bytes", self.node_memory_bytes)
        check_positive("bytes_per_cell", self.bytes_per_cell)

    def required_bytes(self, query_length: int, longest_subject: int) -> float:
        check_positive("query_length", query_length)
        check_positive("longest_subject", longest_subject)
        return self.bytes_per_cell * float(query_length) * float(longest_subject)

    def check(self, query_length: int, longest_subject: int) -> None:
        req = self.required_bytes(query_length, longest_subject)
        if req > self.node_memory_bytes:
            raise OutOfMemoryError(
                f"query of {query_length} bp against a {longest_subject} bp "
                f"subject requires about {req / 1024**3:.0f} Gb of memory for "
                f"dynamic programming (node has {self.node_memory_bytes / 1024**3:.0f} Gb)"
            )


@dataclass(frozen=True)
class HardwareModel:
    """Maps measured work-unit seconds to simulated seconds on paper hardware.

    ``query_scale`` and ``db_scale`` convert our bases to paper bases for
    the query and database sides (scaled experiments model a 71 kbp query as
    the paper's 71 Mbp contig, see :mod:`repro.bench.datasets`). ``memory``
    is read only by the mpiBLAST runner's DP-memory ceiling
    (:meth:`check_memory`). The default model is the identity: simulated
    seconds equal measured seconds.
    """

    cache: Optional[CacheModel] = None
    scan: Optional[ScanCostModel] = None
    memory: Optional[DPMemoryModel] = None
    query_scale: float = 1.0
    db_scale: float = 1.0

    def __post_init__(self) -> None:
        check_positive("query_scale", self.query_scale)
        check_positive("db_scale", self.db_scale)

    def seconds(self, measured: float, query_bases: int, subject_bases: int) -> float:
        """Simulated seconds of one work unit.

        ``measured · cache_factor`` without a scan model; with one,
        ``cache_factor · scan_seconds + measured`` — the paper-scale scan
        term plus the measured alignment-processing extras. The cache factor
        is evaluated at the unit's own query span, so fragments and chunks
        below the knee run at factor 1 while whole long queries do not.
        """
        factor = 1.0
        if self.cache is not None:
            factor = self.cache.factor(query_bases * self.query_scale)
        if self.scan is None:
            return measured * factor
        scan = self.scan.seconds(
            query_bases * self.query_scale, subject_bases * self.db_scale
        )
        return factor * scan + measured

    def check_memory(self, query_bases: int, longest_subject: int) -> None:
        """Raise :class:`OutOfMemoryError` when the modelled DP cannot fit."""
        if self.memory is None:
            return
        self.memory.check(
            int(query_bases * self.query_scale), int(longest_subject * self.db_scale)
        )
