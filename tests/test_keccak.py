"""keccak-256 vectors, cross-backend equivalence and backend selection."""

import random
import sys
import types

import pytest

import sealedbid._core
from sealedbid import crypto
from sealedbid._core import _purepy

# original-padding keccak-256, not SHA3-256
VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (b"testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"),
    (b"The quick brown fox jumps over the lazy dog",
     "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"),
]


def test_known_vectors(backend):
    for message, digest in VECTORS:
        assert backend.keccak_256(message).hex() == digest


def test_digest_is_32_bytes(backend):
    assert len(backend.keccak_256(b"x" * 500)) == 32


@pytest.mark.parametrize("length", [0, 1, 7, 135, 136, 137, 271, 272, 273, 1000])
def test_padding_boundaries_cross_backend(length, compiled_kernel):
    rng = random.Random(length)
    data = rng.randbytes(length)
    assert _purepy.keccak_256(data) == compiled_kernel.keccak_256(data)


def test_accepts_bytearray(backend):
    assert backend.keccak_256(bytearray(b"abc")) == backend.keccak_256(b"abc")


def test_random_equivalence(compiled_kernel):
    rng = random.Random(1234)
    for _ in range(300):
        data = rng.randbytes(rng.randrange(0, 600))
        assert _purepy.keccak_256(data) == compiled_kernel.keccak_256(data)


def test_backend_selection(monkeypatch):
    kernel = types.ModuleType("sealedbid._core._speedups")
    monkeypatch.delattr(sealedbid._core, "_speedups", raising=False)
    monkeypatch.setitem(sys.modules, kernel.__name__, kernel)
    assert crypto._load_backend() is kernel
    monkeypatch.setitem(sys.modules, kernel.__name__, None)  # not built
    assert crypto._load_backend() is _purepy
