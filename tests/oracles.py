"""Independent reference implementations used to cross-check the library.

Everything in here recomputes from scratch on every iteration and keeps its
own bookkeeping (plain dicts and Counters, no shared code with the package
beyond numpy itself).  Deliberately slow and deliberately simple.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def pairwise_mean_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over rows of the cosine between corresponding token rows."""
    na = np.sqrt(np.sum(a * a, axis=1))
    nb = np.sqrt(np.sum(b * b, axis=1))
    if np.any(na < 1e-12) or np.any(nb < 1e-12):
        raise ValueError("zero-norm token in oracle input")
    dots = np.sum(a * b, axis=1)
    cos = np.clip(dots / (na * nb), -1.0, 1.0)
    return float(cos.mean())


def prov_counter(intervals) -> Counter:
    """Expand interval runs into a multiset of source indices."""
    out: Counter = Counter()
    for start, stop, count in intervals:
        for i in range(start, stop):
            out[i] += count
    return out


class Entry:
    """One oracle memory slot: tokens, a scalar weight, a source multiset."""

    def __init__(self, tokens, weight, sources, context=False):
        self.tokens = np.array(tokens, dtype=np.float64)
        self.weight = int(weight)
        self.sources = Counter(sources)
        self.context = bool(context)


def entry_from_frame(frame) -> Entry:
    return Entry(
        frame.tokens,
        frame.weight,
        prov_counter(frame.provenance),
        frame.context_flag,
    )


def merge_entries(a: Entry, b: Entry) -> Entry:
    total = a.weight + b.weight
    tokens = (a.weight * a.tokens + b.weight * b.tokens) / total
    return Entry(tokens, total, a.sources + b.sources, a.context and b.context)


def first_argmax(values) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def naive_greedy_merge(frames, target):
    """From-scratch reduction loop.

    Every iteration recomputes the full adjacent-similarity list, picks the
    first maximum, merges, and starts over.  Returns the surviving entries
    plus a (step, merged_index, similarity) trace.
    """
    entries = [entry_from_frame(f) for f in frames]
    trace = []
    step = 0
    while len(entries) > target:
        sims = [
            pairwise_mean_cosine(entries[i].tokens, entries[i + 1].tokens)
            for i in range(len(entries) - 1)
        ]
        best = first_argmax(sims)
        trace.append((step, best, sims[best]))
        merged = merge_entries(entries[best], entries[best + 1])
        entries[best : best + 2] = [merged]
        step += 1
    return entries, trace


def naive_compact(entries, capacity):
    """Same reduction applied to long-term slots, tracking position ids.

    Takes (Entry, position_id) pairs, returns the surviving pairs.  A merged
    pair keeps the smaller of the two ids.
    """
    slots = list(entries)
    while len(slots) > capacity:
        sims = [
            pairwise_mean_cosine(slots[i][0].tokens, slots[i + 1][0].tokens)
            for i in range(len(slots) - 1)
        ]
        best = first_argmax(sims)
        (ea, ia), (eb, ib) = slots[best], slots[best + 1]
        slots[best : best + 2] = [(merge_entries(ea, eb), min(ia, ib))]
    return slots


def weighted_source_mean(entry: Entry, originals) -> np.ndarray:
    """Mean of the original token matrices weighted by the source multiset."""
    total = sum(entry.sources.values())
    acc = np.zeros_like(originals[0], dtype=np.float64)
    for idx, count in entry.sources.items():
        acc += count * np.asarray(originals[idx], dtype=np.float64)
    return acc / total


def naive_extended_position(base: np.ndarray, k: int, blend: float) -> np.ndarray:
    n = base.shape[0]
    if k < n:
        return base[k]
    i, j = divmod(k, n)
    return blend * base[i] + (1.0 - blend) * base[j]


def naive_pipeline(frames, question, capacity, base_target, alpha, sigma, ltm_capacity):
    """From-scratch streaming run with re-seeding off (reinit_mode "none").

    Each run of ``capacity`` frames is one fill; the last run, full or not,
    is the end-of-stream residue.  A fill is relevant when the plain mean of
    its frames' descriptor cosines with the question is above ``sigma``;
    otherwise its budget is ``alpha * base_target`` rounded half up, at
    least 1.  The residue takes ``ceil(target * len / capacity)`` slots.
    Each fill's survivors are appended with the next position ids, then the
    store is compacted to ``ltm_capacity``.  Returns (Entry, position_id)
    pairs.
    """
    frames = [np.array(f, dtype=np.float64) for f in frames]
    q = None if question is None else np.array(question, dtype=np.float64)
    store = []
    next_id = 0
    for start in range(0, len(frames), capacity):
        fill = frames[start : start + capacity]
        target = base_target
        if q is not None:
            scores = []
            for tokens in fill:
                d = tokens.mean(axis=0)
                d = d / np.sqrt(np.sum(d * d))
                scores.append(np.sum(d * q) / np.sqrt(np.sum(q * q)))
            if not np.mean(scores) > sigma:
                weak = int(np.floor(alpha * base_target + 0.5))
                target = min(max(weak, 1), base_target)
        if start + capacity >= len(frames):
            target = (target * len(fill) + capacity - 1) // capacity
            target = min(max(target, 1), len(fill))
        # a fill merges down to its budget by the same greedy rule
        slots = [(Entry(t, 1, {start + i: 1}), i) for i, t in enumerate(fill)]
        for entry, _ in naive_compact(slots, target):
            store.append((entry, next_id))
            next_id += 1
        store = naive_compact(store, ltm_capacity)
    return store
