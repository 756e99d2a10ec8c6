"""Output checks on a flushed pipeline's long-term store.

For every long-term entry:
- its provenance mass (interval length times count, summed) equals its weight;
- its tokens equal the weighted mean of its provenance sources, counting
  multiplicity, with the sources rebuilt from the seeded generator;
and every pushed frame index appears in some entry's provenance.

The weighted means come from one (entries x frames) count matrix applied to
the stream chunk by chunk, so the whole stream is never held at once.
"""

from __future__ import annotations

import numpy as np


def check_store(pipe, stream, tol: float) -> list[str]:
    """Problems found in ``pipe.long``; an empty list means it passed.

    ``tol`` bounds the token error relative to the largest expected value.
    """
    problems = []
    entries = pipe.long.entries
    t = stream.frame_count
    if pipe.frames_pushed != t:
        problems.append(f"frames_pushed {pipe.frames_pushed} != stream length {t}")
    if not entries:
        return problems + ["long-term store is empty"]
    counts = np.zeros((len(entries), t))
    for e, entry in enumerate(entries):
        mass = 0
        for start, stop, count in entry.provenance:
            if not 0 <= start < stop <= t:
                problems.append(f"entry {e} names frames [{start}, {stop}) outside the stream")
                return problems
            counts[e, start:stop] += count
            mass += (stop - start) * count
        if mass != entry.weight:
            problems.append(f"entry {e} provenance mass {mass} != weight {entry.weight}")
    missing = np.flatnonzero(counts.sum(axis=0) == 0)
    if missing.size:
        problems.append(f"{missing.size} pushed frames in no provenance, first {missing[0]}")

    expected = np.zeros((len(entries), stream.n_tokens * stream.dims))
    for c in range(stream.n_chunks):
        start, stop = stream.chunk_range(c)
        block = stream.chunk(c).reshape(stop - start, -1).astype(np.float64)
        expected += counts[:, start:stop] @ block
    expected /= np.array([entry.weight for entry in entries], dtype=np.float64)[:, None]
    actual = np.stack([entry.tokens.reshape(-1) for entry in entries])
    error = np.abs(actual - expected).max(axis=1)
    limit = tol * np.abs(expected).max()
    for e in np.flatnonzero(error > limit)[:5]:
        problems.append(f"entry {e} tokens are off the weighted source mean by {error[e]:.3e}")
    return problems


def same_store(a, b) -> list[str]:
    """Problems found comparing two pipelines' long-term stores exactly."""
    ea, eb = a.long.entries, b.long.entries
    if len(ea) != len(eb):
        return [f"store sizes differ: {len(ea)} vs {len(eb)}"]
    if a.long.position_ids != b.long.position_ids:
        return ["position ids differ"]
    if a.frames_pushed != b.frames_pushed:
        return [f"frames_pushed differs: {a.frames_pushed} vs {b.frames_pushed}"]
    for i, (x, y) in enumerate(zip(ea, eb)):
        if x.weight != y.weight or x.provenance != y.provenance:
            return [f"entry {i} weight or provenance differs"]
        if not np.array_equal(x.tokens, y.tokens):
            return [f"entry {i} tokens differ"]
    return []
