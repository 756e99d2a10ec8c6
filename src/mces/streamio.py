"""Binary container for embedding streams, plus a synthetic stream generator.

Container layout (version 1, all integers little-endian):

    offset  size  field
    0       4     magic "MCES"
    4       2     format version (u16), currently 1
    6       4     frame count T (u32, >= 1)
    10      2     tokens per frame N (u16, >= 1)
    12      2     embedding dims D (u16, >= 1)
    14      2     flags (u16), bit 0: question vector present
    16      4     reserved, must be zero

After the 20-byte header: the optional question vector (D float32 values,
little-endian), then T frames of N*D float32 values each, row-major, frame
order. Values are stored at 32-bit precision; readers reject NaN and
infinity outright.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    BadMagic,
    InvalidSpec,
    IoFailure,
    NonFiniteValue,
    ShapeMismatch,
    StreamFormatError,
    Truncated,
    UnsupportedVersion,
    checked,
)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "StreamHeader",
    "write_stream",
    "read_stream",
    "iter_stream",
    "SyntheticSpec",
    "iter_synthetic",
    "generate_synthetic",
]

MAGIC = b"MCES"
FORMAT_VERSION = 1
HEADER_SIZE = 20
_HEADER_STRUCT = struct.Struct("<4sHIHHH4s")
_FLAG_QUESTION = 1
_F32 = np.dtype("<f4")
_OUT_OF_RANGE = f"outside the container's float32 range (+-{np.finfo(_F32).max:.7e})"


@dataclass(frozen=True)
class StreamHeader:
    frame_count: int
    n_tokens: int
    dims: int
    has_question: bool

    def __post_init__(self):
        for name, top in (("frame_count", 0xFFFFFFFF), ("n_tokens", 0xFFFF), ("dims", 0xFFFF)):
            value = checked(name, int, getattr(self, name))
            if not 1 <= value <= top:
                raise InvalidSpec(f"{name} out of range: {value}")
            object.__setattr__(self, name, value)

    def frame_bytes(self) -> int:
        return self.n_tokens * self.dims * 4

    def total_bytes(self) -> int:
        q = self.dims * 4 if self.has_question else 0
        return HEADER_SIZE + q + self.frame_count * self.frame_bytes()

    def pack(self) -> bytes:
        flags = _FLAG_QUESTION if self.has_question else 0
        return _HEADER_STRUCT.pack(
            MAGIC, FORMAT_VERSION, self.frame_count, self.n_tokens, self.dims,
            flags, b"\x00\x00\x00\x00")


def _unpack_header(raw: bytes) -> StreamHeader:
    magic, version, t, n, d, flags, reserved = _HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"unsupported container version {version}")
    if reserved != b"\x00\x00\x00\x00":
        raise StreamFormatError("reserved header bytes are not zero")
    if t < 1 or n < 1 or d < 1:
        raise StreamFormatError(f"illegal header counts T={t} N={n} D={d}")
    return StreamHeader(frame_count=t, n_tokens=n, dims=d,
                        has_question=bool(flags & _FLAG_QUESTION))


def _finite(frames: np.ndarray, first: int, source=None) -> np.ndarray:
    # (T', N, D) frames, the first of which is frame ``first``, if every value
    # is finite; else NonFiniteValue naming the first by absolute frame and
    # token, and the float32 range if it is finite in ``source``, before a cast
    finite = np.isfinite(frames)
    if not finite.all():
        fi, token, col = (int(i) for i in np.unravel_index(np.argmin(finite), frames.shape))
        what = "not finite"
        if source is not None and np.isfinite(source[fi, token, col]):
            what = _OUT_OF_RANGE
        raise NonFiniteValue(f"frame {first + fi} token {token} is {what}",
                             frame_index=first + fi, token_index=token)
    return frames


@contextlib.contextmanager
def _replacing(sink, mode="wb"):
    # ``sink`` to write: an open file object as it is, or a path through
    # <path>.tmp, which replaces the path once the block exits cleanly and is
    # removed on a raise. The one place an OSError becomes IoFailure.
    own = isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")
    tmp = os.fsdecode(sink) + ".tmp" if own else None
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) if own else contextlib.nullcontext(sink) as fh:
            yield fh
        if own:
            os.replace(tmp, sink)
    except BaseException as exc:
        if own:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {sink!r}: {exc}") from exc
        raise


def write_stream(sink, frames, question=None, *, frame_count=None) -> int:
    """Write a stream to ``sink`` (path or binary file object).

    ``frames`` is an iterable of (N, D) frames, written one at a time, so
    arbitrarily long streams never materialize; it needs ``frame_count``
    unless it is a (T, N, D) array, whose length is the default. The first
    frame sets (N, D). Returns the byte count written. Every value is
    checked finite, as float32, before it hits the file. A path is written
    through ``<path>.tmp``, replaced into place on success: a refused write
    leaves the path as it was.
    """
    if isinstance(frames, np.ndarray):
        if frames.ndim != 3:
            raise ShapeMismatch(f"expected a (T, N, D) array, got shape {frames.shape}")
        frame_count = len(frames) if frame_count is None else frame_count
    if frame_count is None:
        raise InvalidSpec("frame_count is required when frames is an iterable")
    frames = iter(frames)
    try:
        first = np.asarray(next(frames))
    except StopIteration:
        raise InvalidSpec("empty frame iterable") from None
    if first.ndim != 2:
        raise ShapeMismatch(f"expected (N, D) frames, got shape {first.shape}")
    t, (n, d) = frame_count, first.shape
    header = StreamHeader(frame_count=t, n_tokens=n, dims=d,
                          has_question=question is not None)
    q32 = None
    if question is not None:
        q = np.asarray(question)
        if q.shape != (d,):
            raise ShapeMismatch(f"question has shape {q.shape}, expected ({d},)")
        with np.errstate(over="ignore"):  # refused below, by name
            q32 = np.ascontiguousarray(q, dtype=_F32)
        if not np.isfinite(q32).all():
            what = _OUT_OF_RANGE if np.isfinite(q.astype(np.float64)).all() else "not finite"
            raise NonFiniteValue(f"question vector is {what}")

    with _replacing(sink) as fh:
        written = fh.write(header.pack())
        if q32 is not None:
            written += fh.write(q32.tobytes())
        for i, frame in enumerate(itertools.chain([first], frames)):
            if i >= t:
                raise ShapeMismatch(f"iterable yielded more than {t} frames")
            a = np.asarray(frame)
            if a.shape != (n, d):
                raise ShapeMismatch(
                    f"frame {i} has shape {a.shape}, header says ({n}, {d})")
            # a value the cast makes infinite is refused below, by name
            with np.errstate(over="ignore"):
                a32 = np.ascontiguousarray(a, dtype=_F32)
            written += fh.write(_finite(a32[None], i, a[None]).tobytes())
        if i + 1 != t:  # the loop ran at least once, for the first frame
            raise ShapeMismatch(f"iterable yielded {i + 1} frames, expected {t}")
    return written


def _read_exact(fh, size: int, what: str) -> bytearray:
    # read into one writable buffer, so the caller can view it without a copy
    buf = bytearray(size)
    try:
        got = fh.readinto(buf) or 0
    except OSError as exc:
        raise IoFailure(f"read failed: {exc}") from exc
    if got < size:
        raise Truncated(f"stream ends inside {what}: wanted {size} bytes, got {got}")
    return buf


def _open(source):
    # (file object, whether we opened it) for a path or a binary file object
    own = isinstance(source, str) or hasattr(source, "__fspath__")
    try:
        return (open(source, "rb") if own else source), own
    except OSError as exc:
        raise IoFailure(f"cannot open {source!r}: {exc}") from exc


def _read_head(fh):
    # the header and the optional question vector, leaving fh at the payload
    header = _unpack_header(_read_exact(fh, HEADER_SIZE, "header"))
    question = None
    if header.has_question:
        raw = _read_exact(fh, header.dims * 4, "question vector")
        question = np.frombuffer(raw, dtype=_F32)
        if not np.isfinite(question).all():
            raise NonFiniteValue("question vector is not finite")
    return header, question


def _payload(raw, header: StreamHeader, first: int) -> np.ndarray:
    # raw bytes as checked (T', N, D) frames, the first of which is frame ``first``
    return _finite(np.frombuffer(raw, dtype=_F32).reshape(-1, header.n_tokens, header.dims),
                   first)


def read_stream(source):
    """Read a stream from a path, bytes, or binary file object.

    Returns ``(header, frames, question)`` where frames is a (T, N, D)
    float32 array and question is a (D,) float32 array or None. Raises
    BadMagic, UnsupportedVersion, Truncated, or NonFiniteValue for malformed
    containers.
    """
    if isinstance(source, (bytes, bytearray)):
        return read_stream(io.BytesIO(source))
    fh, own = _open(source)
    try:
        header, question = _read_head(fh)
        payload = _read_exact(fh, header.frame_count * header.frame_bytes(), "frame payload")
        return header, _payload(payload, header, 0), question
    finally:
        if own:
            fh.close()


# bytes read per chunk by iter_stream
_CHUNK_BYTES = 1 << 18


def iter_stream(path):
    """Read the stream file at ``path`` one chunk of frames at a time.

    Returns ``(header, question, frames)`` where frames is a lazy iterator
    of (N, D) float32 frames from chunks of 256 KiB (one frame at least):
    views, except the last frame of each chunk, which is a copy so that a
    reader still holding it does not keep its chunk alive while the next
    chunk is read. What a reader holds does not grow with the stream's
    length; a snapshot's sidecar is read the same way on resume. The
    header, the question and the file's length are checked before this
    returns (a short payload raises Truncated as :func:`read_stream` does);
    each chunk is checked finite as it is read. The file closes when the
    iterator is exhausted, closed or collected.
    """
    fh, _ = _open(path)
    try:
        header, question = _read_head(fh)
        wanted = header.frame_count * header.frame_bytes()
        got = max(0, os.fstat(fh.fileno()).st_size - fh.tell())
        if got < wanted:
            raise Truncated(
                f"stream ends inside frame payload: wanted {wanted} bytes, got {got}")
    except BaseException:
        fh.close()
        raise
    frames = _chunks(fh, header)
    next(frames)  # enter the body, so that closing the iterator closes fh
    return header, question, frames


def _chunks(fh, header: StreamHeader) -> Iterator[np.ndarray]:
    per_chunk = max(1, _CHUNK_BYTES // header.frame_bytes())
    with fh:
        yield None
        for first in range(0, header.frame_count, per_chunk):
            count = min(per_chunk, header.frame_count - first)
            chunk = _payload(
                _read_exact(fh, count * header.frame_bytes(), "frame payload"),
                header, first)
            yield from chunk[:-1]
            # the last frame goes out as a copy, so the chunk is freed once
            # the consumer moves on to it, before the next chunk is read
            last = chunk[-1].copy()
            del chunk
            yield last


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic stream.

    ``segments`` is a tuple of (start, stop, rho) with half-open frame ranges.
    Frames inside a segment point toward the question direction with cosine
    exactly rho; background frames are orthogonal to it. ``noise_scale``
    controls per-token jitter, which is centered within each frame so the
    frame descriptor is unaffected by it.
    """

    frame_count: int
    n_tokens: int
    dims: int
    segments: tuple[tuple[int, int, float], ...] = ()
    noise_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # every field by errors.checked; dims >= 2 leaves room for a
        # background direction orthogonal to the question
        for name, kind, minimum in (("frame_count", int, 1), ("n_tokens", int, 1),
                                    ("dims", int, 2), ("noise_scale", float, 0),
                                    ("seed", int, 0)):
            value = checked(name, kind, getattr(self, name))
            if value < minimum:
                raise InvalidSpec(f"{name} must be >= {minimum}, got {value}")
            object.__setattr__(self, name, value)
        if not isinstance(self.segments, (tuple, list)):
            raise InvalidSpec(f"segments must be a sequence of triples, got {self.segments!r}")
        for seg in self.segments:
            if not isinstance(seg, (tuple, list)) or len(seg) != 3:
                raise InvalidSpec(f"segment {seg!r} is not a (start, stop, rho) triple")
        segs = tuple((checked("segment start", int, s), checked("segment stop", int, e),
                      checked("segment rho", float, r)) for s, e, r in self.segments)
        prev = 0
        for start, stop, rho in segs:
            if not (0 <= start < stop <= self.frame_count):
                raise InvalidSpec(f"segment ({start}, {stop}) outside [0, {self.frame_count})")
            if start < prev:
                raise InvalidSpec("segments overlap or are out of order")
            if not -1.0 <= rho <= 1.0:
                raise InvalidSpec(f"segment rho must be in [-1, 1], got {rho}")
            prev = stop
        object.__setattr__(self, "segments", segs)

    def rho_at(self, t: int):
        """Planted rho for frame t, or None outside every segment."""
        for start, stop, rho in self.segments:
            if start <= t < stop:
                return rho
        return None


def _orthogonal_unit(rng, q: np.ndarray) -> np.ndarray:
    # rejection is all but unreachable for D >= 2; the loop keeps the draw
    # sequence deterministic either way
    while True:
        u = rng.standard_normal(q.shape[0])
        u = u - (u @ q) * q
        norm = float(np.linalg.norm(u))
        if norm > 1e-9:
            return u / norm


def iter_synthetic(spec: SyntheticSpec):
    """Per-frame generator form of :func:`generate_synthetic`.

    Returns ``(question, frames)`` where frames is a lazy iterator of (N, D)
    float32 arrays. Batch and lazy generation consume the RNG identically, so
    both produce bitwise-identical values for the same spec.
    """
    rng = np.random.default_rng(spec.seed)
    q = rng.standard_normal(spec.dims)
    q = q / np.linalg.norm(q)

    def frames() -> Iterator[np.ndarray]:
        for t in range(spec.frame_count):
            rho = spec.rho_at(t)
            u = _orthogonal_unit(rng, q)
            if rho is None:
                direction = u
            else:
                direction = rho * q + np.sqrt(max(0.0, 1.0 - rho * rho)) * u
            jitter = rng.standard_normal((spec.n_tokens, spec.dims))
            jitter = jitter - jitter.mean(axis=0)
            yield (direction + spec.noise_scale * jitter).astype(_F32)

    return q.astype(_F32), frames()


def generate_synthetic(spec: SyntheticSpec):
    """Materialize a synthetic stream.

    Returns ``(frames, question)`` with frames of shape (T, N, D) float32.
    Deterministic: the same spec yields bitwise-identical output.
    """
    question, lazy = iter_synthetic(spec)
    frames = np.stack(list(lazy), axis=0)
    return frames, question
