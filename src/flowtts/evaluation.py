"""Objective evaluation utilities: character error rate over normalized text,
speaker-similarity cosine scoring over ingested embeddings, and pairwise
human-judgment tally aggregation, plus their on-disk formats.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .fileio import open_input, read_tsv_rows, write_atomic
from .thai_text import NormalizationConfig, normalize

__all__ = [
    "levenshtein",
    "cer",
    "EvalPair",
    "score_pair",
    "cosine_sim",
    "PairwiseVote",
    "PairCounts",
    "TallyReport",
    "aggregate_tally",
    "read_votes_csv",
    "EMBEDDING_MAGIC",
    "EmbeddingFileError",
    "write_embedding",
    "read_embedding",
    "read_cer_batch",
    "evaluate_cer_rows",
]


def _shared_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix, by binary search over slice compares."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def levenshtein(a: str, b: str) -> int:
    """Edit distance over Unicode scalar values with unit costs.

    The shared prefix is dropped first, then the shared suffix of what
    remains; neither changes a unit-cost edit distance, and both are found
    by comparing slices.  This pays where the two sides agree at their ends,
    as a near-copy hypothesis does before its first edit and after its last;
    a pair with no shared end pays only the two binary searches.  What is
    left runs through Myers' bit-vector algorithm (1999) in Hyyrö's
    global-distance form (2001): one DP column
    over the shorter string is held as two Python-int bitsets of vertical
    +1/-1 deltas, and each character of the longer string advances the whole
    column with a fixed handful of word operations, so the cost is
    O(ceil(m/w) * n) machine-word operations rather than m * n interpreted
    cell updates.  The score is read once, from the last column: row 0 of
    the DP ends at len(a), and the column's deltas add the +1 bits of pv and
    subtract the -1 bits of mv.  The result is exact.
    """
    prefix = _shared_prefix_len(a, b)
    a, b = a[prefix:], b[prefix:]
    suffix = _shared_prefix_len(a[::-1], b[::-1])
    if suffix:
        a, b = a[:-suffix], b[:-suffix]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    masks: dict[str, int] = {}
    bit = 1
    for c in b:
        masks[c] = masks.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    pv, mv = mask, 0  # column 0 of the DP: every vertical delta is +1
    for c in a:
        eq = masks.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | ~(xh | pv)) << 1) | 1  # row 0 of the DP grows by 1 per column
        pv = (((pv & xh) << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return len(a) + pv.bit_count() - mv.bit_count()


def cer(reference: str, hypothesis: str) -> float:
    """Character error rate: edit distance divided by reference length.

    Both sides are expected to be already normalized; the reference must be
    nonempty.
    """
    if not reference:
        raise ValueError("cer: empty reference")
    return levenshtein(reference, hypothesis) / len(reference)


@dataclass(frozen=True)
class EvalPair:
    """A scored evaluation row: both sides normalized, CER attached."""

    reference: str
    hypothesis: str
    cer: float


def score_pair(raw_reference: str, raw_hypothesis: str,
               config: NormalizationConfig | None = None) -> EvalPair:
    """Normalize both sides and score them; the unit CER comparisons use."""
    reference = normalize(raw_reference, config)
    hypothesis = normalize(raw_hypothesis, config)
    return EvalPair(reference=reference, hypothesis=hypothesis,
                    cer=cer(reference, hypothesis))


def cosine_sim(a, b) -> float:
    """Cosine similarity of two embeddings, in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size == 0 or a.shape != b.shape:
        raise ValueError(f"cosine_sim: need equal nonzero lengths, got {a.size} and {b.size}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if not (0.0 < na < np.inf and 0.0 < nb < np.inf):  # also false for a NaN norm
        raise ValueError("cosine_sim: a vector has zero norm or a NaN or infinite value")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


# --------------------------------------------------------------------------
# Pairwise judgment tallies
# --------------------------------------------------------------------------

VOTE_OUTCOMES = ("A", "B", "TIE")


@dataclass(frozen=True)
class PairwiseVote:
    """One blind A/B judgment between two models."""

    model_a: str
    model_b: str
    outcome: str  # "A", "B", or "TIE"

    def __post_init__(self):
        if self.outcome not in VOTE_OUTCOMES:
            raise ValueError(f"vote outcome must be one of {VOTE_OUTCOMES}, got {self.outcome!r}")
        if self.model_a == self.model_b:
            raise ValueError(f"vote pairs a model with itself: {self.model_a!r}")


@dataclass
class PairCounts:
    wins: int = 0
    ties: int = 0
    losses: int = 0

    @property
    def total(self) -> int:
        return self.wins + self.ties + self.losses

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.wins, self.ties, self.losses)


@dataclass
class TallyReport:
    """Win/tie/loss counts from one model's perspective, per competitor."""

    ours: str
    per_competitor: dict[str, PairCounts]
    overall: PairCounts


def aggregate_tally(votes, ours: str) -> TallyReport:
    """Tally votes from ``ours``'s perspective; order-independent.

    Every vote must involve ``ours``; a row that does not is an error naming
    its position.
    """
    per: dict[str, PairCounts] = {}
    overall = PairCounts()
    for index, vote in enumerate(votes):
        if vote.model_a == ours:
            competitor, win_outcome, loss_outcome = vote.model_b, "A", "B"
        elif vote.model_b == ours:
            competitor, win_outcome, loss_outcome = vote.model_a, "B", "A"
        else:
            raise ValueError(
                f"vote {index} ({vote.model_a!r} vs {vote.model_b!r}) does not involve {ours!r}"
            )
        counts = per.setdefault(competitor, PairCounts())
        if vote.outcome == win_outcome:
            counts.wins += 1
            overall.wins += 1
        elif vote.outcome == loss_outcome:
            counts.losses += 1
            overall.losses += 1
        else:
            counts.ties += 1
            overall.ties += 1
    return TallyReport(ours=ours, per_competitor=per, overall=overall)


VOTES_HEADER = ("model_a", "model_b", "outcome")


def read_votes_csv(path) -> list[PairwiseVote]:
    """Read votes from UTF-8 CSV `model_a,model_b,outcome` (BOM allowed); header optional."""
    votes: list[PairwiseVote] = []
    lineno = 0
    with open_input(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if lineno == 1 and tuple(cell.strip() for cell in row) == VOTES_HEADER:
                    continue
                if len(row) != 3:
                    raise ValueError(f"votes row {lineno}: expected 3 fields, got {len(row)}")
                try:
                    votes.append(PairwiseVote(row[0].strip(), row[1].strip(), row[2].strip()))
                except ValueError as exc:
                    raise ValueError(f"votes row {lineno}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"votes row {lineno + 1}: {exc}") from None
    return votes


# --------------------------------------------------------------------------
# Embedding files
# --------------------------------------------------------------------------

EMBEDDING_MAGIC = b"JEMB"


class EmbeddingFileError(Exception):
    """Malformed speaker-embedding file."""


def write_embedding(path, vector) -> None:
    """Write an embedding: magic "JEMB", dim u32 LE, f32 LE values."""
    arr = np.asarray(vector, dtype="<f4").reshape(-1)
    write_atomic(path, EMBEDDING_MAGIC + struct.pack("<I", arr.size) + arr.tobytes())


def read_embedding(path) -> np.ndarray:
    with open_input(path) as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != EMBEDDING_MAGIC:
        raise EmbeddingFileError(f"bad magic in {path}")
    (dim,) = struct.unpack("<I", blob[4:8])
    expected = 8 + 4 * dim
    if len(blob) != expected:
        raise EmbeddingFileError(f"embedding file {path}: expected {expected} bytes, got {len(blob)}")
    return np.frombuffer(blob[8:], dtype="<f4").copy()


# --------------------------------------------------------------------------
# Batched CER evaluation
# --------------------------------------------------------------------------

def read_cer_batch(path) -> list[tuple[str, str, str]]:
    """Read `id<TAB>reference<TAB>hypothesis` rows from a UTF-8 TSV file (BOM
    allowed; rows as ``read_tsv_rows`` splits them)."""
    rows: list[tuple[str, str, str]] = []
    for lineno, fields in read_tsv_rows(path):
        if len(fields) != 3:
            raise ValueError(f"cer batch row {lineno}: expected 3 tab-separated fields")
        rows.append(tuple(fields))
    return rows


def evaluate_cer_rows(rows, config: NormalizationConfig | None = None
                      ) -> tuple[list[tuple[str, float]], float]:
    """Normalize both sides of each row and score; returns per-row CERs and the mean."""
    results: list[tuple[str, float]] = []
    for row_id, reference, hypothesis in rows:
        try:
            pair = score_pair(reference, hypothesis, config)
        except ValueError as exc:
            raise ValueError(f"cer row {row_id!r}: {exc}") from None
        results.append((row_id, pair.cer))
    mean = sum(v for _, v in results) / len(results) if results else 0.0
    return results, mean
