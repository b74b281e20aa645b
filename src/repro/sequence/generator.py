"""Synthetic genome and workload generation with planted ground truth.

This is the substitute for the paper's NCBI data (DESIGN.md §2). Databases
are collections of random-background sequences, optionally salted with repeat
families (the repetitive structure real genomes have and that drives seed-hit
density). Queries are random backgrounds into which *donor* regions copied
from database sequences are spliced after being evolved by a
:class:`~repro.sequence.mutate.MutationModel` — each splice is recorded as a
:class:`PlantedHomology`, giving exact ground truth for accuracy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sequence.alphabet import random_bases
from repro.sequence.mutate import MutationModel, apply_mutations
from repro.sequence.records import Database, SequenceRecord
from repro.util.rng import derive_rng
from repro.util.validation import check_fraction, check_nonnegative, check_positive


@dataclass(frozen=True)
class GenomeSpec:
    """Parameters for one synthetic sequence.

    Attributes
    ----------
    length:
        Residue count.
    gc:
        GC fraction of the random background.
    repeat_family_count / repeat_length / repeat_copies:
        Each repeat family is one random template pasted ``repeat_copies``
        times at random positions (with light substitution noise), modelling
        genomic repeats that inflate seed-hit counts.
    """

    length: int
    gc: float = 0.45
    repeat_family_count: int = 0
    repeat_length: int = 200
    repeat_copies: int = 5

    def __post_init__(self) -> None:
        check_positive("length", self.length)
        check_fraction("gc", self.gc)
        check_nonnegative("repeat_family_count", self.repeat_family_count)
        check_positive("repeat_length", self.repeat_length)
        check_positive("repeat_copies", self.repeat_copies)


@dataclass(frozen=True)
class HomologySpec:
    """A request to plant one homologous region in a query.

    Attributes
    ----------
    length:
        Donor region length (in database coordinates).
    model:
        Mutation model applied to the donor copy before splicing.
    subject_id:
        Optional specific database sequence to borrow from; random otherwise.
    """

    length: int
    model: MutationModel = field(default_factory=MutationModel.close_homolog)
    subject_id: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive("length", self.length)


@dataclass(frozen=True)
class PlantedHomology:
    """Ground truth for one planted homologous region.

    Coordinates are half-open intervals. ``query_interval`` is where the
    evolved copy landed in the query; ``subject_interval`` is the donor region
    in database sequence ``subject_id``.
    """

    subject_id: str
    subject_interval: Tuple[int, int]
    query_interval: Tuple[int, int]
    model: MutationModel

    @property
    def query_length(self) -> int:
        return self.query_interval[1] - self.query_interval[0]


@dataclass(frozen=True)
class SyntheticGenome:
    """A generated sequence plus the spec that produced it."""

    record: SequenceRecord
    spec: GenomeSpec


def make_genome(seed, spec: GenomeSpec, seq_id: str = "synth") -> SyntheticGenome:
    """Generate one synthetic sequence according to ``spec``."""
    rng = derive_rng(seed, f"genome:{seq_id}")
    codes = random_bases(rng, spec.length, gc=spec.gc)
    for fam in range(spec.repeat_family_count):
        template = random_bases(rng, min(spec.repeat_length, spec.length), gc=spec.gc)
        for _copy in range(spec.repeat_copies):
            if spec.length <= template.size:
                break
            start = int(rng.integers(0, spec.length - template.size))
            noisy = apply_mutations(
                rng, template, MutationModel(substitution_rate=0.02)
            )
            take = min(noisy.size, spec.length - start)
            codes[start : start + take] = noisy[:take]
    record = SequenceRecord(seq_id=seq_id, codes=codes)
    return SyntheticGenome(record=record, spec=spec)


def make_database(
    seed,
    num_sequences: int,
    mean_length: int,
    name: str = "synthdb",
    gc: float = 0.45,
    length_cv: float = 0.5,
    min_length: int = 100,
    repeat_family_count: int = 0,
) -> Database:
    """Generate a database of ``num_sequences`` sequences.

    Lengths are lognormal around ``mean_length`` with coefficient of variation
    ``length_cv``, floored at ``min_length`` — real sequence databases have
    heavily skewed length distributions, which is exactly what stresses the
    mpiBLAST static-sharding load balance the paper criticises.
    """
    check_positive("num_sequences", num_sequences)
    check_positive("mean_length", mean_length)
    check_nonnegative("length_cv", length_cv)
    rng = derive_rng(seed, f"db:{name}")
    if length_cv == 0:
        lengths = np.full(num_sequences, mean_length, dtype=np.int64)
    else:
        sigma = float(np.sqrt(np.log1p(length_cv**2)))
        mu = float(np.log(mean_length)) - sigma**2 / 2.0
        lengths = np.maximum(
            min_length, rng.lognormal(mu, sigma, size=num_sequences).astype(np.int64)
        )
    records = []
    for i, length in enumerate(lengths):
        spec = GenomeSpec(
            length=int(length), gc=gc, repeat_family_count=repeat_family_count
        )
        records.append(make_genome(rng, spec, seq_id=f"{name}.seq{i:05d}").record)
    return Database(records, name=name)


def make_query_with_homologies(
    seed,
    length: int,
    database: Database,
    homologies: Sequence[HomologySpec],
    seq_id: str = "query",
    gc: float = 0.45,
) -> Tuple[SequenceRecord, List[PlantedHomology]]:
    """Generate a query of ``length`` bases with planted homologous regions.

    Homologies are spliced at evenly spaced, non-overlapping anchor slots (the
    even spacing guarantees reproducible geometry: homologies may straddle
    Orion fragment boundaries, which is the interesting case). Raises if the
    requested homologies cannot fit.
    """
    check_positive("length", length)
    rng = derive_rng(seed, f"query:{seq_id}")
    codes = random_bases(rng, length, gc=gc)
    if not homologies:
        return SequenceRecord(seq_id=seq_id, codes=codes), []

    total_requested = sum(h.length for h in homologies)
    if total_requested > length:
        raise ValueError(
            f"homologies need {total_requested} bases but query is only {length}"
        )

    # Evenly spaced slots; within each slot the insert position is jittered.
    slots = len(homologies)
    slot_width = length // slots
    planted: List[PlantedHomology] = []
    for i, spec in enumerate(homologies):
        if spec.subject_id is not None:
            donor_seq = database[spec.subject_id]
            if len(donor_seq) < spec.length:
                raise ValueError(
                    f"donor {donor_seq.seq_id} ({len(donor_seq)} bp) shorter than "
                    f"requested homology length {spec.length}"
                )
        else:
            eligible = [r for r in database.records if len(r) >= spec.length]
            if not eligible:
                raise ValueError(
                    f"no database sequence is long enough to donate a "
                    f"{spec.length} bp homology"
                )
            donor_seq = eligible[int(rng.integers(0, len(eligible)))]
        s_start = int(rng.integers(0, len(donor_seq) - spec.length + 1))
        donor = donor_seq.codes[s_start : s_start + spec.length]
        evolved = apply_mutations(rng, donor, spec.model)

        slot_lo = i * slot_width
        slot_hi = min((i + 1) * slot_width, length)
        room = slot_hi - slot_lo - evolved.size
        if room < 0:
            raise ValueError(
                f"homology {i} (evolved to {evolved.size} bp) does not fit its "
                f"slot of {slot_hi - slot_lo} bp; use fewer/shorter homologies"
            )
        q_start = slot_lo + int(rng.integers(0, room + 1))
        codes[q_start : q_start + evolved.size] = evolved
        planted.append(
            PlantedHomology(
                subject_id=donor_seq.seq_id,
                subject_interval=(s_start, s_start + spec.length),
                query_interval=(q_start, q_start + evolved.size),
                model=spec.model,
            )
        )
    return SequenceRecord(seq_id=seq_id, codes=codes), planted
