"""Split protocols: intra-session, inter-session and inter-subject.

Intra-session holdout works in the time domain, per session: the timeline is
partitioned into 12 s blocks, one 3 s period is sampled uniformly from each
block, and the shuffled periods go half to validation and half to test.  The
remaining timeline is training territory.  Assignment is window-level: a
window counts as validation/test only when it lies entirely inside a single
held-out period, and it is *excluded* (not trained on) when it merely
overlaps one, so no training window shares rows with held-out data.

Inter-session folds group all (subject, session) pairs round-robin into five
session-disjoint partitions; fold k tests on partition k and carves
validation periods out of the remaining sessions with the same block
mechanism.  Inter-subject folds hold out one subject entirely.  Domain
labels for adversarial adaptation index the training sessions (inter-session)
or training subjects (inter-subject); test-domain samples get label -1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .datapipe import WindowSet
from .errors import ConfigError, DataError
from .numerics import derive_rng

__all__ = [
    "TRAIN", "VALIDATION", "TEST", "EXCLUDED",
    "SplitPlan",
    "intra_session_split",
    "inter_session_split",
    "inter_subject_split",
    "make_split",
    "canonical_protocol", "PROTOCOLS",
    "BLOCK_SECONDS", "PERIOD_SECONDS", "SESSION_FOLDS",
]

# accepted protocol names -> the canonical name a SplitPlan carries
PROTOCOLS = {"intra": "intra-session", "intra-session": "intra-session",
             "inter-session": "inter-session", "inter-subject": "inter-subject"}

TRAIN, VALIDATION, TEST, EXCLUDED = 0, 1, 2, 3
ASSIGNMENT_NAMES = {TRAIN: "train", VALIDATION: "validation", TEST: "test",
                    EXCLUDED: "excluded"}

BLOCK_SECONDS = 12.0
PERIOD_SECONDS = 3.0
SESSION_FOLDS = 5   # session-disjoint groups of the inter-session protocol
# slack for nominal-duration sessions whose aligned span is a frame or two
# short of an exact block multiple
_BLOCK_TOL_MS = 100.0


@dataclass
class SplitPlan:
    protocol: str
    fold_index: int
    seed: int
    assignment: np.ndarray            # (N,) int8 codes
    domain_labels: np.ndarray         # (N,) int32, -1 where undefined
    num_domains: int = 0
    periods: dict = field(default_factory=dict)  # (subject, session) -> list of (t0, t1, code)

    def indices(self, which: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == which)

    def counts(self) -> dict:
        return {name: int((self.assignment == code).sum())
                for code, name in ASSIGNMENT_NAMES.items()}

    def to_csv(self, path, window_set: WindowSet) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sample_id", "protocol", "fold", "subject", "session",
                        "start_ts", "end_ts", "assignment", "domain_label"])
            for i in range(len(window_set)):
                w.writerow([i, self.protocol, self.fold_index,
                            window_set.subject_ids[i], window_set.session_ids[i],
                            f"{window_set.start_ts[i]:.3f}",
                            f"{window_set.end_ts[i]:.3f}",
                            ASSIGNMENT_NAMES[int(self.assignment[i])],
                            int(self.domain_labels[i])])


# ---------------------------------------------------------------------------
# period machinery
# ---------------------------------------------------------------------------

def carve_periods(t_start: float, t_end: float, rng: np.random.Generator) -> list:
    """Sample one period per block of a session timeline; times in ms.

    A final partial block takes part when it is still long enough to host a
    period; a session shorter than one block is an error.
    """
    block_ms = BLOCK_SECONDS * 1000.0
    period_ms = PERIOD_SECONDS * 1000.0
    span = t_end - t_start
    if span + _BLOCK_TOL_MS < block_ms:
        raise DataError(f"session spans {span / 1000.0:.1f} s; need at least one "
                        f"{BLOCK_SECONDS:.0f} s block")
    n_full = int((span + _BLOCK_TOL_MS) // block_ms)
    remainder = span - n_full * block_ms
    periods = []
    for k in range(n_full):
        b0 = t_start + k * block_ms
        b1 = min(b0 + block_ms, t_end)
        p0 = rng.uniform(b0, b1 - period_ms)
        periods.append((p0, p0 + period_ms))
    if remainder >= period_ms:
        b0 = t_start + n_full * block_ms
        p0 = rng.uniform(b0, t_end - period_ms)
        periods.append((p0, p0 + period_ms))
    return periods


def _split_periods(periods: list, rng: np.random.Generator):
    """Shuffle then cut into validation/test halves; a coin decides which
    half gets the odd period."""
    order = rng.permutation(len(periods))
    shuffled = [periods[i] for i in order]
    n_val = len(periods) // 2
    if len(periods) % 2 == 1 and rng.uniform() < 0.5:
        n_val += 1
    return shuffled[:n_val], shuffled[n_val:]


def _assign_windows_to_periods(assignment: np.ndarray, mask: np.ndarray,
                               w0: np.ndarray, w1: np.ndarray,
                               val_periods: list, test_periods: list) -> None:
    """Window-level assignment against held-out periods, in place.

    inside a validation period  -> VALIDATION
    inside a test period        -> TEST
    overlaps any period         -> EXCLUDED
    otherwise                   -> stays TRAIN
    """
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return
    a, b = w0[idx], w1[idx]
    overlap = np.zeros(len(idx), dtype=bool)
    for code, periods in ((VALIDATION, val_periods), (TEST, test_periods)):
        for p0, p1 in periods:
            inside = (a >= p0) & (b < p1)
            assignment[idx[inside]] = code
            overlap |= (a < p1) & (b >= p0) & ~inside
    hanging = overlap & (assignment[idx] == TRAIN)
    assignment[idx[hanging]] = EXCLUDED


def _packed_keys(subjects, sessions) -> np.ndarray:
    """One int64 per (subject, session) pair of int32 ids."""
    return (np.asarray(subjects, dtype=np.int64) << 32
            | np.asarray(sessions, dtype=np.int64) & 0xFFFFFFFF)


def _session_keys(window_set: WindowSet, sessions: list) -> list:
    """The session table's (subject, session) keys, sorted; a window of a
    session the table misses is a DataError."""
    known = sorted({(s["subject"], s["session"]) for s in sessions})
    present = np.unique(_packed_keys(window_set.subject_ids, window_set.session_ids))
    if not np.isin(present, _packed_keys([k[0] for k in known],
                                         [k[1] for k in known])).all():
        raise DataError("window set contains sessions missing from the session table")
    return known


def _session_bounds(sessions: list) -> dict:
    return {(s["subject"], s["session"]): (s["t_start"], s["t_end"]) for s in sessions}


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

def intra_session_split(window_set: WindowSet, sessions: list, seed: int) -> SplitPlan:
    """Hold out randomly placed 3 s periods from every 12 s block of every
    session; half go to validation, half to test."""
    n = len(window_set)
    assignment = np.zeros(n, dtype=np.int8)
    keys = _session_keys(window_set, sessions)
    bounds = _session_bounds(sessions)
    plan_periods = {}
    for subject, session in keys:
        rng = derive_rng(seed, "intra", subject, session)
        t0, t1 = bounds[(subject, session)]
        periods = carve_periods(t0, t1, rng)
        val_p, test_p = _split_periods(periods, rng)
        mask = (window_set.subject_ids == subject) & (window_set.session_ids == session)
        _assign_windows_to_periods(assignment, mask, window_set.start_ts,
                                   window_set.end_ts, val_p, test_p)
        plan_periods[(subject, session)] = ([(p0, p1, VALIDATION) for p0, p1 in val_p]
                                            + [(p0, p1, TEST) for p0, p1 in test_p])
    domain = np.full(n, -1, dtype=np.int32)
    return SplitPlan(protocol="intra-session", fold_index=0, seed=seed,
                     assignment=assignment, domain_labels=domain,
                     num_domains=0, periods=plan_periods)


def _holdout_split(window_set: WindowSet, sessions: list, seed: int, fold: int,
                   protocol: str, test_keys: set, domain_of: dict,
                   num_domains: int) -> SplitPlan:
    """Common machinery: test on ``test_keys`` sessions, carve validation
    periods from the remaining sessions."""
    n = len(window_set)
    assignment = np.zeros(n, dtype=np.int8)
    domain = np.full(n, -1, dtype=np.int32)
    keys = _session_keys(window_set, sessions)
    bounds = _session_bounds(sessions)
    plan_periods = {}
    for subject, session in keys:
        mask = (window_set.subject_ids == subject) & (window_set.session_ids == session)
        if (subject, session) in test_keys:
            assignment[mask] = TEST
            continue
        rng = derive_rng(seed, protocol, fold, subject, session)
        t0, t1 = bounds[(subject, session)]
        val_p = carve_periods(t0, t1, rng)
        _assign_windows_to_periods(assignment, mask, window_set.start_ts,
                                   window_set.end_ts, val_p, [])
        plan_periods[(subject, session)] = [(p0, p1, VALIDATION) for p0, p1 in val_p]
        domain[mask] = domain_of[(subject, session)]
    # only trained-on samples carry a domain label
    domain[assignment != TRAIN] = -1
    return SplitPlan(protocol=protocol, fold_index=fold, seed=seed,
                     assignment=assignment, domain_labels=domain,
                     num_domains=num_domains, periods=plan_periods)


def inter_session_split(window_set: WindowSet, sessions: list, fold: int,
                        seed: int) -> SplitPlan:
    """Round-robin sessions into ``SESSION_FOLDS`` session-disjoint groups;
    fold k tests on group k and trains/validates on the rest."""
    keys = _session_keys(window_set, sessions)
    if len(keys) < SESSION_FOLDS:
        raise DataError(f"inter-session split needs >= {SESSION_FOLDS} sessions, "
                        f"have {len(keys)}")
    if not 0 <= fold < SESSION_FOLDS:
        raise ConfigError(f"fold must lie in [0, {SESSION_FOLDS}), got {fold}")
    test_keys = {k for i, k in enumerate(keys) if i % SESSION_FOLDS == fold}
    train_keys = [k for k in keys if k not in test_keys]
    domain_of = {k: i for i, k in enumerate(train_keys)}
    return _holdout_split(window_set, sessions, seed, fold, "inter-session",
                          test_keys, domain_of, num_domains=len(train_keys))


def inter_subject_split(window_set: WindowSet, sessions: list, fold: int,
                        seed: int) -> SplitPlan:
    """Fold k tests on subject k's entire data; domains index the remaining
    training subjects."""
    keys = _session_keys(window_set, sessions)
    subjects = sorted({s for s, _ in keys})
    if len(subjects) < 2:
        raise DataError("inter-subject split needs at least 2 subjects")
    if not 0 <= fold < len(subjects):
        raise ConfigError(f"fold must lie in [0, {len(subjects)}), got {fold}")
    test_subject = subjects[fold]
    train_subjects = [s for s in subjects if s != test_subject]
    subject_domain = {s: i for i, s in enumerate(train_subjects)}
    test_keys = {k for k in keys if k[0] == test_subject}
    domain_of = {k: subject_domain[k[0]] for k in keys if k[0] != test_subject}
    return _holdout_split(window_set, sessions, seed, fold, "inter-subject",
                          test_keys, domain_of, num_domains=len(train_subjects))


def canonical_protocol(name: str) -> str:
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ConfigError(f"unknown protocol {name!r}") from None


def make_split(protocol: str, window_set: WindowSet, sessions: list,
               fold: int, seed: int) -> SplitPlan:
    protocol = canonical_protocol(protocol)
    if protocol == "intra-session":
        if fold != 0:
            raise ConfigError(f"intra-session has one fold (0), got {fold}")
        return intra_session_split(window_set, sessions, seed)
    if protocol == "inter-session":
        return inter_session_split(window_set, sessions, fold, seed)
    return inter_subject_split(window_set, sessions, fold, seed)
