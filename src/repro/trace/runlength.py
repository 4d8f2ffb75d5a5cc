"""Run-length analysis of home-core sequences (Figure 2).

Given a thread's per-access home-core sequence, a *run* is a maximal
stretch of consecutive accesses homed at the same core. Figure 2 bins
accesses to memory cached at **non-native** cores by the length of the
run they belong to, and plots, per run length, the number of memory
accesses contributed (run length × number of such runs).

The paper's observation: roughly half of those accesses sit in runs of
length 1 (migrate, touch one word, migrate away) — the motivation for
remote access (§3).
"""

from __future__ import annotations

import numpy as np

from repro.sim.stats import Histogram


def run_lengths(home_seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode a home-core sequence.

    Returns ``(cores, lengths)`` where ``cores[i]`` is the home core of
    run ``i`` and ``lengths[i]`` its length. Empty input yields two
    empty arrays.
    """
    home_seq = np.asarray(home_seq)
    if home_seq.size == 0:
        return np.zeros(0, dtype=home_seq.dtype), np.zeros(0, dtype=np.int64)
    change = np.flatnonzero(home_seq[1:] != home_seq[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [home_seq.size]))
    return home_seq[starts], (ends - starts).astype(np.int64)


def home_runs(
    home_seq: np.ndarray, writes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`run_lengths` plus the number of writes in each run.

    Returns ``(cores, lengths, n_writes)``, one entry per run.
    """
    cores, lengths = run_lengths(home_seq)
    if not lengths.size:
        return cores, lengths, lengths
    starts = np.cumsum(lengths) - lengths
    return cores, lengths, np.add.reduceat(np.asarray(writes, dtype=np.int64), starts)


def run_length_histogram(
    home_seq: np.ndarray,
    native_core: int,
    max_bin: int = 4096,
    weight_by_accesses: bool = True,
) -> Histogram:
    """Figure 2 statistic for one thread.

    Only runs at non-native cores are counted (accesses at the native
    core never migrated). With ``weight_by_accesses=True`` (the
    figure's y-axis), each run of length L contributes L to bin L;
    otherwise it contributes 1 (run-count histogram).
    """
    cores, lengths = run_lengths(home_seq)
    return runs_histogram(
        cores.tolist(), lengths.tolist(), native_core, max_bin, weight_by_accesses
    )


def runs_histogram(
    cores: list[int],
    lengths: list[int],
    native_core: int,
    max_bin: int = 4096,
    weight_by_accesses: bool = True,
) -> Histogram:
    """:func:`run_length_histogram` of a thread already cut into runs."""
    hist = Histogram(max_bin=max_bin)
    for core, ln in zip(cores, lengths):
        if core != native_core:
            hist.add(ln, weight=ln if weight_by_accesses else 1)
    return hist


def merge_histograms(hists: list[Histogram], max_bin: int = 4096) -> Histogram:
    """Combine per-thread histograms into the figure's aggregate."""
    out = Histogram(max_bin=max_bin)
    for h in hists:
        for v, c in h.bins().items():
            out.add(v, weight=c)
        if h.overflow:
            out.add(max_bin + 1, weight=h.overflow)
    return out


def fraction_single_access_runs(hist: Histogram) -> float:
    """Fraction of non-native accesses that sit in runs of length 1.

    This is the paper's headline number for Figure 2 ("about half").
    Assumes the histogram is access-weighted.
    """
    return hist.fraction_at(1)
