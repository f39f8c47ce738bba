from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import laplacian_variance_oracle, ssim_oracle
from srgate.errors import (
    DimensionMismatch,
    DimensionOverflow,
    ImageTooSmall,
    TooFewFrames,
    TruncatedFile,
    UnsupportedFormat,
)
from srgate.quality import (
    SSIM_C1,
    SSIM_C2,
    Clip,
    GrayImage,
    laplacian_variance,
    load_pgm,
    mean_intensity,
    ssim,
    temporal_inconsistency,
)


def img_from(rows) -> GrayImage:
    arr = np.asarray(rows, dtype=np.float64)
    return GrayImage(arr.shape[1], arr.shape[0], arr)


def random_image(rng, h=8, w=8) -> GrayImage:
    return GrayImage(w, h, rng.random((h, w)))


# --- PGM loading -------------------------------------------------------------

def test_load_p2_normalizes_by_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n2 2\n255\n0 255\n255 0\n")
    img = load_pgm(str(path))
    assert (img.width, img.height) == (2, 2)
    assert img.pixels.ravel().tolist() == [0.0, 1.0, 1.0, 0.0]


def test_load_p2_with_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2 # magic\n# size next\n2 1\n# maxval\n100\n50 100\n")
    img = load_pgm(str(path))
    assert img.pixels.ravel().tolist() == [0.5, 1.0]


def test_load_p5_binary(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = load_pgm(str(path))
    assert img.pixels.ravel().tolist() == [0.0, 128 / 255, 1.0, 64 / 255]


def test_load_p5_sixteen_bit_big_endian(tmp_path):
    path = tmp_path / "a.pgm"
    samples = struct.pack(">4H", 0, 32768, 65535, 1)
    path.write_bytes(b"P5\n2 2\n65535\n" + samples)
    img = load_pgm(str(path))
    assert img.pixels.ravel().tolist() == pytest.approx(
        [0.0, 32768 / 65535, 1.0, 1 / 65535], abs=1e-15
    )


def test_load_p5_truncated(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(TruncatedFile):
        load_pgm(str(path))


def test_load_p2_truncated_samples(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(TruncatedFile):
        load_pgm(str(path))


def test_load_color_ppm_rejected(tmp_path):
    path = tmp_path / "a.ppm"
    path.write_text("P3\n1 1\n255\n255 0 0\n")
    with pytest.raises(UnsupportedFormat):
        load_pgm(str(path))


def test_load_rejects_bad_maxval_and_dims(tmp_path):
    big = tmp_path / "big.pgm"
    big.write_text("P2\n1 1\n70000\n1\n")
    with pytest.raises(UnsupportedFormat):
        load_pgm(str(big))
    zero = tmp_path / "zero.pgm"
    zero.write_text("P2\n0 4\n255\n")
    with pytest.raises(DimensionOverflow):
        load_pgm(str(zero))


def test_load_rejects_sample_above_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n1 1\n100\n101\n")
    with pytest.raises(UnsupportedFormat):
        load_pgm(str(path))



P2_HEADER = b"P2\n2 2\n255"


@pytest.mark.parametrize(
    "raster,cls,reason",
    [
        (b"", TruncatedFile, "0 samples, expected 4"),
        (b"\n", TruncatedFile, "0 samples, expected 4"),
        (b" \t\n\x0b\x0c\r \n", TruncatedFile, "0 samples, expected 4"),
        (b"\n1 2 3\n", TruncatedFile, "3 samples, expected 4"),
        (b"\n1 2 3 256\n", UnsupportedFormat, "sample exceeds maxval 255"),
        (b"\n1 2\n# comment\n3 4\n", UnsupportedFormat, "non-numeric sample data"),
        (b"\n1 2 3 " + b"9" * 25 + b"\n", UnsupportedFormat, "sample exceeds maxval 255"),
        (b"\n1 2 3 4 junk\n", UnsupportedFormat, "non-numeric sample data"),
        (b"\n1 -2 3 4\n", UnsupportedFormat, "non-numeric sample data"),
        (b"\n1 +2 3 4\n", UnsupportedFormat, "non-numeric sample data"),
        (b"\n1 2 3\xa04\n", UnsupportedFormat, "non-numeric sample data"),
    ],
    ids=[
        "header-only", "empty", "whitespace-only", "one-short", "above-maxval", "comment",
        "25-digit-token", "junk-after-last-sample", "minus-sign", "plus-sign",
        "non-ascii-space",
    ],
)
def test_load_p2_raster_errors(tmp_path, raster, cls, reason):
    path = tmp_path / "a.pgm"
    path.write_bytes(P2_HEADER + raster)
    with pytest.raises(cls) as info:
        load_pgm(str(path))
    assert str(info.value) == f"{path}: {reason}"


@pytest.mark.parametrize(
    "raster,want",
    [
        (b"\n0000255 0 0255 00\n", [1.0, 0.0, 1.0, 0.0]),
        (b"\n\n  51\t102\x0b153\x0c\r204", [0.2, 0.4, 0.6, 0.8]),
        (b"\n0 255 0 255 7 8 9\n", [0.0, 1.0, 0.0, 1.0]),
    ],
    ids=["leading-zeros", "mixed-whitespace-no-newline-at-end", "extra-samples-ignored"],
)
def test_load_p2_raster_accepted(tmp_path, raster, want):
    path = tmp_path / "a.pgm"
    path.write_bytes(P2_HEADER + raster)
    assert load_pgm(str(path)).pixels.ravel().tolist() == want


@pytest.mark.parametrize(
    "header,raster,cls,reason",
    [
        (b"P5\n2 2\n255\n", b"", TruncatedFile, "0 data bytes, expected 4"),
        (b"P5\n2 2\n255\n", b" \t\n", TruncatedFile, "3 data bytes, expected 4"),
        (b"P5\n2 2\n255\n", bytes([1, 2, 3]), TruncatedFile, "3 data bytes, expected 4"),
        (b"P5\n2 2\n65535\n", struct.pack(">3H", 1, 2, 3), TruncatedFile,
         "6 data bytes, expected 8"),
        (b"P5\n2 2\n100\n", bytes([1, 2, 3, 101]), UnsupportedFormat,
         "sample exceeds maxval 100"),
        (b"P5\n2 2\n1000\n", struct.pack(">4H", 1, 2, 3, 1001), UnsupportedFormat,
         "sample exceeds maxval 1000"),
    ],
    ids=[
        "empty", "whitespace-only-short", "one-short", "one-short-16bit",
        "above-maxval", "above-maxval-16bit",
    ],
)
def test_load_p5_raster_errors(tmp_path, header, raster, cls, reason):
    path = tmp_path / "a.pgm"
    path.write_bytes(header + raster)
    with pytest.raises(cls) as info:
        load_pgm(str(path))
    assert str(info.value) == f"{path}: {reason}"


def test_load_p5_reads_whitespace_bytes_as_samples_and_ignores_extra(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + b" \t\n\r" + b"extra")
    assert load_pgm(str(path)).pixels.ravel().tolist() == [
        32 / 255, 9 / 255, 10 / 255, 13 / 255
    ]


@pytest.mark.parametrize("maxval", [255, 65535])
def test_p2_with_mixed_whitespace_loads_equal_to_p5(tmp_path, maxval):
    rng = np.random.default_rng(maxval)
    whitespace = [b" ", b"\t", b"\n", b"\x0b", b"\x0c", b"\r", b"  \n", b"\r\n"]
    for trial in range(5):
        h, w = rng.integers(1, 12, size=2)
        dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
        raster = rng.integers(0, maxval, size=(h, w), endpoint=True).astype(dtype)
        seps = rng.integers(0, len(whitespace), size=raster.size + 1)
        body = b"".join(
            whitespace[k] + str(v).encode() for k, v in zip(seps, raster.ravel().tolist())
        )
        p2 = tmp_path / f"{trial}.p2.pgm"
        p2.write_bytes(b"P2\n%d %d\n%d" % (w, h, maxval) + body + whitespace[seps[-1]])
        p5 = tmp_path / f"{trial}.p5.pgm"
        p5.write_bytes(b"P5\n%d %d\n%d\n" % (w, h, maxval) + raster.tobytes())
        a, b = load_pgm(str(p2)), load_pgm(str(p5))
        assert (a.width, a.height) == (b.width, b.height) == (w, h)
        assert np.array_equal(a.pixels, b.pixels)


# --- Laplacian variance -------------------------------------------------------

def test_laplacian_constant_image_is_zero():
    img = img_from(np.full((5, 7), 0.3))
    assert laplacian_variance(img) == 0.0


def test_laplacian_single_interior_response():
    # center 1 in a 3x3 zero image: one response of -4, variance of one value
    rows = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert laplacian_variance(img_from(rows)) == 0.0


def test_laplacian_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        img = random_image(rng)
        want = laplacian_variance_oracle(img.pixels.tolist())
        assert laplacian_variance(img) == pytest.approx(want, abs=1e-12)


def test_laplacian_constant_offset_invariance():
    rng = np.random.default_rng(4)
    base = rng.random((6, 6)) * 0.5
    img = GrayImage(6, 6, base)
    shifted = GrayImage(6, 6, base + 0.4)
    assert laplacian_variance(img) == pytest.approx(
        laplacian_variance(shifted), abs=1e-12
    )


def test_laplacian_needs_3x3():
    with pytest.raises(ImageTooSmall):
        laplacian_variance(img_from([[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]]))


# --- mean intensity --------------------------------------------------------------

def test_mean_intensity_constant_128():
    img = img_from(np.full((4, 4), 128 / 255))
    assert mean_intensity(img) == pytest.approx(128 / 255, abs=1e-15)


def test_mean_intensity_half_half():
    img = img_from([[0.0, 1.0], [1.0, 0.0]])
    assert mean_intensity(img) == 0.5


def test_mean_intensity_matches_sum_oracle():
    rng = np.random.default_rng(5)
    img = random_image(rng, 9, 5)
    want = math.fsum(img.pixels.ravel().tolist()) / img.pixels.size
    assert mean_intensity(img) == pytest.approx(want, abs=1e-12)


def test_mean_intensity_linearity():
    rng = np.random.default_rng(6)
    a = random_image(rng, 6, 6)
    b = random_image(rng, 6, 6)
    avg = GrayImage(6, 6, (a.pixels + b.pixels) / 2.0)
    assert mean_intensity(avg) == pytest.approx(
        (mean_intensity(a) + mean_intensity(b)) / 2.0, abs=1e-12
    )


# --- SSIM -------------------------------------------------------------------------

def test_ssim_identity_is_exactly_one():
    rng = np.random.default_rng(7)
    img = random_image(rng)
    assert ssim(img, img) == 1.0


def test_ssim_constant_zero_vs_one():
    zeros = img_from(np.zeros((4, 4)))
    ones = img_from(np.ones((4, 4)))
    want = 1e-4 / 1.0001
    assert ssim(zeros, ones) == pytest.approx(want, abs=1e-9)


def test_ssim_matches_direct_formula_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = random_image(rng)
        b = random_image(rng)
        want = ssim_oracle(a.pixels.ravel().tolist(), b.pixels.ravel().tolist())
        assert ssim(a, b) == pytest.approx(want, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ssim_symmetry_exact(seed):
    rng = np.random.default_rng(seed)
    a = random_image(rng, 5, 5)
    b = random_image(rng, 5, 5)
    assert ssim(a, b) == ssim(b, a)


def test_ssim_and_mean_match_uncached_statistics_bit_for_bit():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = random_image(rng, 7, 9)
        b = random_image(rng, 7, 9)
        pa, pb = a.pixels.ravel(), b.pixels.ravel()
        mu_a, mu_b = float(np.mean(pa)), float(np.mean(pb))
        var_a = float(np.mean((pa - mu_a) ** 2))
        var_b = float(np.mean((pb - mu_b) ** 2))
        cov = float(np.mean((pa - mu_a) * (pb - mu_b)))
        want = ((2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)) / (
            (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
        )
        assert ssim(a, b).hex() == want.hex()
        # again, now that both images hold their statistics
        assert ssim(a, b).hex() == want.hex()
        assert (a.mean, a.var) == (mu_a, var_a)
        assert mean_intensity(a) == float(np.mean(a.pixels))


def test_ssim_range_and_dimension_mismatch():
    rng = np.random.default_rng(9)
    a = random_image(rng, 4, 4)
    b = random_image(rng, 4, 4)
    assert -1.0 <= ssim(a, b) <= 1.0
    with pytest.raises(DimensionMismatch):
        ssim(a, random_image(rng, 4, 5))


# --- temporal inconsistency ----------------------------------------------------------

def test_temporal_identical_frames_is_zero():
    rng = np.random.default_rng(10)
    frame = random_image(rng)
    clip = Clip((frame, frame, frame))
    assert temporal_inconsistency(clip) == 0.0


def test_temporal_matches_ssim_composition():
    rng = np.random.default_rng(11)
    f0 = random_image(rng)
    f2 = f0
    noisy = np.clip(f0.pixels + rng.normal(0, 0.2, f0.pixels.shape), 0, 1)
    f1 = GrayImage(f0.width, f0.height, noisy)
    clip = Clip((f0, f1, f2))
    want = 1.0 - (ssim(f0, f1) + ssim(f1, f2)) / 2.0
    want = min(1.0, max(0.0, want))
    assert temporal_inconsistency(clip) == pytest.approx(want, abs=1e-12)


def test_temporal_single_frame_rejected():
    rng = np.random.default_rng(12)
    clip = Clip((random_image(rng),))
    with pytest.raises(TooFewFrames):
        temporal_inconsistency(clip)


def test_clip_rejects_mixed_dimensions_and_empty():
    rng = np.random.default_rng(13)
    with pytest.raises(DimensionMismatch):
        Clip((random_image(rng, 4, 4), random_image(rng, 4, 5)))
    with pytest.raises(ValueError):
        Clip(())


def test_gray_image_rejects_out_of_range_pixels():
    with pytest.raises(ValueError):
        img_from([[0.0, 1.5], [0.2, 0.3]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gray_image_rejects_non_finite_pixels(bad):
    with pytest.raises(ValueError, match=r"pixel values must lie in \[0,1\]"):
        GrayImage.from_flat(3, 3, [bad] * 9)
    with pytest.raises(ValueError, match=r"pixel values must lie in \[0,1\]"):
        GrayImage.from_flat(3, 3, [0.5] * 4 + [bad] + [0.5] * 4)
