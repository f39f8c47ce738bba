"""Pixel statistics feeding the adaptive threshold and artifact machinery.

Images are grayscale rasters normalized to [0,1]. All statistics use
population (not sample) variances so constant and single-element cases stay
total, and the SSIM here is the global-statistics variant: one set of
means/variances over the whole image, no sliding window.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    ImageTooSmall,
    TooFewFrames,
    TruncatedFile,
    UnsupportedFormat,
)

MAX_PIXELS = 1 << 26

SSIM_C1 = (0.01 * 1.0) ** 2
SSIM_C2 = (0.03 * 1.0) ** 2


@dataclass(frozen=True)
class GrayImage:
    """Immutable grayscale raster with pixel values in [0,1].

    Its mean and population variance are computed on first use and cached,
    since the pixels cannot change.
    """

    width: int
    height: int
    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DimensionOverflow(f"bad dimensions {self.width}x{self.height}")
        arr = np.asarray(self.pixels, dtype=np.float64).reshape(self.height, self.width)
        # written so that NaN, which fails every comparison, is rejected too
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError("pixel values must lie in [0,1]")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @classmethod
    def from_flat(cls, width: int, height: int, values) -> "GrayImage":
        values = np.asarray(values, dtype=np.float64)
        if values.size != width * height:
            raise ValueError(f"expected {width * height} pixels, got {values.size}")
        return cls(width, height, values)

    def same_shape(self, other: "GrayImage") -> bool:
        return self.width == other.width and self.height == other.height

    @cached_property
    def mean(self) -> float:
        """Arithmetic mean of all pixels."""
        return float(np.mean(self.pixels.ravel()))

    @cached_property
    def var(self) -> float:
        """Population variance."""
        return float(np.mean((self.pixels.ravel() - self.mean) ** 2))


@dataclass(frozen=True)
class Clip:
    """Ordered frames sharing one resolution. Only their order matters:
    temporal statistics compare consecutive frames, whatever the frame rate."""

    frames: tuple[GrayImage, ...]

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("clip needs at least one frame")
        first = frames[0]
        for f in frames[1:]:
            if not f.same_shape(first):
                raise DimensionMismatch(
                    f"frame {f.width}x{f.height} != {first.width}x{first.height}"
                )
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)


_TOKEN = re.compile(rb"\S+")


def _pgm_tokens(data: bytes):
    """Header tokens, skipping '#' comments; yields (token, end_offset)."""
    pos = 0
    while True:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            nl = data.find(b"\n", pos)
            if nl == -1:
                return
            pos = nl + 1
            continue
        m = _TOKEN.match(data, pos)
        if m is None:
            return
        yield m.group(0), m.end()
        pos = m.end()


# The bytes a P2 raster may hold: ASCII digits and the six ASCII whitespace
# bytes (space, \t, \n, \v, \f, \r). Every one of them but the digits is <= 0x20.
_P2_RASTER_BYTES = np.zeros(256, dtype=bool)
_P2_RASTER_BYTES[list(b"0123456789 \t\n\v\f\r")] = True


def _p2_samples(path: str, body: bytes, n: int) -> np.ndarray:
    """The first ``n`` samples of the P2 raster ``body``, as int64."""
    view = np.frombuffer(body, dtype=np.uint8)
    if not _P2_RASTER_BYTES[view].all():
        raise UnsupportedFormat(f"{path}: non-numeric sample data")
    digit = view > 0x20
    # one sample per run of digits; body starts with the whitespace that ends
    # the maxval token, so every run starts where a digit follows a non-digit
    count = int(np.count_nonzero(digit[1:] > digit[:-1]))
    # fromstring must not be asked for more samples than there are: it would
    # pad with uninitialised values (and read a blank body as [0]) silently
    if count < n:
        raise TruncatedFile(f"{path}: {count} samples, expected {n}")
    # a token too long for int64 saturates, and so fails the maxval check
    return np.fromstring(body, dtype=np.int64, sep=" ", count=n)


def load_pgm(path: str) -> GrayImage:
    """Load a P2 (ASCII) or P5 (binary) PGM, normalizing pixels by maxval.

    ``#`` comments may appear between header tokens only. A P2 raster is
    decimal non-negative integers separated by ASCII whitespace and nothing
    else: no signs, decimal points or comments. Samples after the
    ``width * height``-th are ignored.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise UnsupportedFormat(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormat(f"{path}: magic {magic!r} is not P2/P5")

    header: list[int] = []
    header_end = 0
    for tok, end in tokens:
        try:
            header.append(int(tok))
        except ValueError:
            raise UnsupportedFormat(f"{path}: non-numeric header token {tok!r}") from None
        header_end = end
        if len(header) == 3:
            break
    if len(header) < 3:
        raise TruncatedFile(f"{path}: incomplete header")
    width, height, maxval = header
    if width <= 0 or height <= 0 or width * height > MAX_PIXELS:
        raise DimensionOverflow(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise UnsupportedFormat(f"{path}: maxval {maxval} outside 1..65535")

    n = width * height
    if magic == b"P2":
        values = _p2_samples(path, data[header_end:], n)
    else:
        # single whitespace byte separates maxval from raw samples
        body = data[header_end + 1 :]
        itemsize = 1 if maxval < 256 else 2
        if len(body) < n * itemsize:
            raise TruncatedFile(
                f"{path}: {len(body)} data bytes, expected {n * itemsize}"
            )
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        values = np.frombuffer(body[: n * itemsize], dtype=dtype).astype(np.float64)

    if values.max(initial=0) > maxval:
        raise UnsupportedFormat(f"{path}: sample exceeds maxval {maxval}")
    return GrayImage.from_flat(width, height, values / maxval)


def laplacian_variance(img: GrayImage) -> float:
    """Population variance of valid-mode 5-point Laplacian responses.

    The kernel sums to zero so the result is invariant to constant offsets;
    it grows with local structure, making it a sharpness proxy (low values
    mean blur).
    """
    if img.width < 3 or img.height < 3:
        raise ImageTooSmall(f"need >= 3x3, got {img.width}x{img.height}")
    responses = kernels.laplacian_responses(img.pixels)
    return float(np.var(responses))


def mean_intensity(img: GrayImage) -> float:
    """Arithmetic mean of all pixels (lighting proxy in [0,1])."""
    return img.mean


def ssim(a: GrayImage, b: GrayImage) -> float:
    """Global-statistics structural similarity of two images.

    Uses population (co)variances over the full frame with the standard
    stabilizers C1=(0.01)^2, C2=(0.03)^2 on a unit dynamic range. Symmetric
    in its arguments and exactly 1.0 when a == b. Each image's mean and
    variance are cached on the immutable :class:`GrayImage`, so a frame
    shared by several pairs pays for them once; a pair computes only its
    covariance.
    """
    if not a.same_shape(b):
        raise DimensionMismatch(
            f"{a.width}x{a.height} vs {b.width}x{b.height}"
        )
    mu_a, mu_b = a.mean, b.mean
    var_a, var_b = a.var, b.var
    cov = float(np.mean((a.pixels.ravel() - mu_a) * (b.pixels.ravel() - mu_b)))
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return num / den


def require_pairs(n_frames: int) -> None:
    """Raise TooFewFrames unless ``n_frames`` frames hold a consecutive pair."""
    if n_frames < 2:
        raise TooFewFrames(f"need >= 2 frames, got {n_frames}")


def inconsistency(pair_ssims: Sequence[float]) -> float:
    """1 minus the mean of a clip's consecutive-pair SSIMs, clamped to [0,1].

    ``pair_ssims[i]`` is ``ssim(frame_i, frame_i+1)``; a caller that reads
    frames one at a time folds them here without holding the clip.
    """
    require_pairs(len(pair_ssims) + 1)
    value = 1.0 - float(np.mean(pair_ssims))
    return min(1.0, max(0.0, value))


def temporal_inconsistency(clip: Clip) -> float:
    """1 minus the mean SSIM of consecutive frame pairs, clamped to [0,1].

    Static clips score 0; frame-to-frame structural churn pushes the score
    toward 1.
    """
    frames = clip.frames
    return inconsistency([ssim(a, b) for a, b in zip(frames, frames[1:])])
