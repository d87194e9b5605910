"""Named parameter storage, Adam updates, and the checkpoint file format.

Checkpoint layout (all integers little-endian):
    bytes 0..3   magic b"DFCK"
    bytes 4..7   format version (uint32)
    bytes 8..11  JSON header length in bytes (uint32)
    header       UTF-8 JSON: {"config": {...}, "arrays": [{name, shape, dtype}]}
    payload      raw array data in header order, little-endian, C-contiguous
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor

CHECKPOINT_MAGIC = b"DFCK"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ParamStore:
    """Named parameter tensors with paired gradients and Adam moments."""

    def __init__(self, dtype, seed: int):
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0
        self.init_rng = np.random.default_rng(seed)

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor = Tensor(np.ascontiguousarray(data, dtype=self.dtype),
                        requires_grad=True)
        self.params[name] = tensor
        self.moment1[name] = np.zeros_like(tensor.data)
        self.moment2[name] = np.zeros_like(tensor.data)
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def grad_norm(self) -> float:
        total = 0.0
        for t in self.params.values():
            if t.grad is not None:
                total += float((t.grad.astype(np.float64) ** 2).sum())
        return float(np.sqrt(total))

    def clip_grad_norm(self, max_norm: float) -> float:
        norm = self.grad_norm()
        if norm > max_norm > 0:
            scale = max_norm / norm
            for t in self.params.values():
                if t.grad is not None:
                    t.grad = t.grad * scale  # rebound: a grad may be shared
        return norm

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray], source="arrays"):
        """Replace every parameter's data. Names that differ from the
        store's raise a ValueError naming `source`, the file read."""
        if set(arrays) != set(self.params):
            missing = sorted(set(self.params) - set(arrays))
            extra = sorted(set(arrays) - set(self.params))
            raise ValueError(f"{source}: parameters do not match the network: "
                             f"missing {missing}, unexpected {extra}")
        for name, data in arrays.items():
            tensor = self.params[name]
            if tensor.data.shape != data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{tensor.data.shape} vs {data.shape}")
            tensor.data = np.ascontiguousarray(data, dtype=self.dtype)

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(
                self.params[name].data, dtype="<f8").tobytes())
        return digest.hexdigest()


def adam_step(store: ParamStore, lr: float):
    """One Adam update over every parameter whose gradient is populated.

    Parameters with no gradient this step keep their moments untouched.
    """
    store.step_count += 1
    t = store.step_count
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    for name, tensor in store.params.items():
        grad = tensor.grad
        if grad is None:
            continue
        m = store.moment1[name]
        v = store.moment2[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        tensor.data = tensor.data - (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(
            tensor.data.dtype)


def orthogonal_init(rng: np.random.Generator, shape: tuple[int, ...]
                    ) -> np.ndarray:
    """Orthogonal weight matrix (rows or columns orthonormal)."""
    a = rng.standard_normal(shape)
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    return u if u.shape == shape else vt


def save_checkpoint(path: str | Path, store: ParamStore, config: dict):
    """Serialize parameters plus an arbitrary JSON-safe config blob."""
    save_arrays(path, store.state_arrays(), config)


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], config: dict):
    """Write named arrays and a JSON-safe config blob in the checkpoint
    format, arrays sorted by name."""
    names = sorted(arrays)
    header = {
        "config": config,
        "arrays": [
            {
                "name": name,
                "shape": list(arrays[name].shape),
                "dtype": str(arrays[name].dtype),
            }
            for name in names
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            data = arrays[name]
            fh.write(np.ascontiguousarray(
                data, dtype=data.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back into named arrays and its config blob. A
    corrupt file (a cut or unreadable header, a malformed array entry, a
    payload shorter or longer than its header says) raises a ValueError
    naming the file."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file: bad magic {magic!r}")
        try:
            version, header_len = struct.unpack("<II", fh.read(8))
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            header = json.loads(fh.read(header_len).decode("utf-8"))
            metas, config = header["arrays"], header["config"]
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: unreadable checkpoint header: "
                             f"{exc!r}") from exc
        arrays = {}
        for i, meta in enumerate(metas):
            try:
                dtype = np.dtype(meta["dtype"]).newbyteorder("<")
                count = int(np.prod(meta["shape"])) if meta["shape"] else 1
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed array entry {i} "
                                 f"{meta!r}: {exc!r}") from exc
            buffer = fh.read(count * dtype.itemsize)
            if len(buffer) != count * dtype.itemsize:
                raise ValueError(f"{path}: truncated checkpoint: array "
                                 f"{meta['name']!r} has {len(buffer)} of "
                                 f"{count * dtype.itemsize} bytes")
            arrays[meta["name"]] = np.frombuffer(
                buffer, dtype=dtype).reshape(meta["shape"]).astype(meta["dtype"])
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    return arrays, config


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
