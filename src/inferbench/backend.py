"""Model contract and the ToyBackend reference implementation.

ToyBackend is a mean-pooled bag-of-tokens model small enough to
gradient-check yet rich enough to exercise every training objective:

    c(X)     = mean of embedding rows over input tokens (zero if empty)
    p(a_<j)  = mean of embedding rows over BOS + previous answer tokens
    s_j      = (c + p) / 2
    logits_j = U @ s_j + b, log-normalized
    embed(T) = mean of embedding rows over T, L2-normalized
               (the zero vector maps to itself)

Masked scoring drops the masked position and mean-pools the remaining
tokens of the conditioned window. The model contract is id-level: the
vocabulary ``vocab`` plus ``log_probs_ids``, ``masked_logits_ids``,
``embed_ids`` and ``generate``, which all take token ids; text becomes
ids only in :mod:`inferbench.objective`. All randomness flows through seeds
derived with :func:`derive_seed`, so identical seeds give bit-identical
parameters and samples.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAD, BOS, EOS, UNK, MASK = "<pad>", "<bos>", "<eos>", "<unk>", "<mask>"
SPECIALS = (PAD, BOS, EOS, UNK, MASK)


def derive_seed(seed: int, *parts) -> int:
    """Stable 63-bit stream seed from a root seed and context labels."""
    key = "|".join([str(seed), *map(str, parts)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


class Vocabulary:
    """Dense token -> id map with the five special tokens first."""

    def __init__(self, tokens: list[str]):
        self._tokens = list(SPECIALS)
        seen = set(SPECIALS)
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                self._tokens.append(tok)
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, self._ids[UNK])

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self._tokens[i] for i in ids]

    @property
    def pad_id(self) -> int:
        return self._ids[PAD]

    @property
    def bos_id(self) -> int:
        return self._ids[BOS]

    @property
    def eos_id(self) -> int:
        return self._ids[EOS]

    @property
    def unk_id(self) -> int:
        return self._ids[UNK]

    @property
    def mask_id(self) -> int:
        return self._ids[MASK]


@dataclass
class Gradients:
    """Per-parameter gradient container matching ToyBackend shapes."""

    E: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @classmethod
    def zeros_like(cls, backend: "ToyBackend") -> "Gradients":
        return cls(
            E=np.zeros_like(backend.E),
            U=np.zeros_like(backend.U),
            b=np.zeros_like(backend.b),
        )


@dataclass(frozen=True)
class GreedyDecode:
    max_len: int = 16


@dataclass(frozen=True)
class TopKDecode:
    k: int = 10
    seed: int = 0
    max_len: int = 16


class ToyBackend:
    """Trainable mean-pooled bag model over a fixed vocabulary."""

    def __init__(self, vocab: Vocabulary, d: int = 16, seed: int = 0):
        self.vocab = vocab
        self.d = d
        self.seed = seed
        rng = np.random.default_rng(derive_seed(seed, "init"))
        v = len(vocab)
        self.E = rng.uniform(-0.1, 0.1, size=(v, d))
        self.U = rng.uniform(-0.1, 0.1, size=(v, d))
        self.b = rng.uniform(-0.1, 0.1, size=v)

    # --- forward primitives ---

    def _mean_rows(self, ids: list[int] | np.ndarray) -> np.ndarray:
        if len(ids) == 0:
            return np.zeros(self.d)
        return self.E[ids].mean(axis=0)

    def _log_softmax(self, logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max()
        return shifted - np.log(np.exp(shifted).sum())

    def _state(self, input_ids: list[int], prefix_ids: list[int]) -> np.ndarray:
        c = self._mean_rows(input_ids)
        p = self._mean_rows([self.vocab.bos_id, *prefix_ids])
        return 0.5 * (c + p)

    def log_probs_ids(self, input_ids: list[int], prefix_ids: list[int]) -> np.ndarray:
        s = self._state(input_ids, prefix_ids)
        return self._log_softmax(self.U @ s + self.b)

    def embed_ids(self, ids: list[int]) -> np.ndarray:
        v = self._mean_rows(ids)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return v
        return v / norm

    def masked_logits_ids(
        self,
        token_ids: list[int],
        position: int,
        context_ids: list[int] | None = None,
    ) -> np.ndarray:
        if not 0 <= position < len(token_ids):
            raise IndexError(f"mask position {position} outside 0..{len(token_ids) - 1}")
        rest = [t for i, t in enumerate(token_ids) if i != position]
        window = rest if context_ids is None else [*context_ids, *rest]
        return self._log_softmax(self.U @ self._mean_rows(window) + self.b)

    def generate(
        self, input_ids: list[int] | np.ndarray, decode: GreedyDecode | TopKDecode
    ) -> list[str]:
        """Decode the tokens of an answer to the input ``input_ids``, until
        EOS or max_len; greedy breaks ties on lowest id.

        PAD/BOS/UNK/MASK are suppressed so generations stay plain text;
        EOS remains a candidate and stops the sequence. k is bounded by
        the number of decodable tokens.
        """
        if decode.max_len < 1:
            raise ValueError("max_len must be >= 1")
        suppressed = [
            self.vocab.pad_id, self.vocab.bos_id, self.vocab.unk_id, self.vocab.mask_id,
        ]
        n_decodable = len(self.vocab) - len(suppressed)
        if isinstance(decode, TopKDecode):
            if not 1 <= decode.k <= n_decodable:
                raise ValueError(f"k must be in 1..{n_decodable}")
            rng = np.random.default_rng(derive_seed(decode.seed, "topk"))
        out: list[int] = []
        for _ in range(decode.max_len):
            log_probs = self.log_probs_ids(input_ids, out).copy()
            log_probs[suppressed] = -np.inf
            if isinstance(decode, GreedyDecode):
                nxt = int(np.argmax(log_probs))
            else:
                # stable top-k: probability descending, id ascending
                order = np.lexsort((np.arange(len(log_probs)), -log_probs))
                top = order[: decode.k]
                weights = np.exp(log_probs[top] - log_probs[top].max())
                weights /= weights.sum()
                nxt = int(rng.choice(top, p=weights))
            if nxt == self.vocab.eos_id:
                break
            out.append(nxt)
        return self.vocab.decode(out)

    def apply_gradients(self, grads: Gradients, lr: float) -> "ToyBackend":
        """Plain SGD step in place: theta <- theta - lr * grad."""
        if grads.E.shape != self.E.shape or grads.U.shape != self.U.shape or (
            grads.b.shape != self.b.shape
        ):
            raise ValueError("gradient shapes do not match parameters")
        self.E -= lr * grads.E
        self.U -= lr * grads.U
        self.b -= lr * grads.b
        return self

    # --- parameter vector helpers (finite differences, checkpoints) ---

    def copy(self) -> "ToyBackend":
        clone = ToyBackend.__new__(ToyBackend)
        clone.vocab = self.vocab
        clone.d = self.d
        clone.seed = self.seed
        clone.E = self.E.copy()
        clone.U = self.U.copy()
        clone.b = self.b.copy()
        return clone

    def flat_parameters(self) -> np.ndarray:
        return np.concatenate([self.E.ravel(), self.U.ravel(), self.b])

    def set_flat_parameters(self, theta: np.ndarray) -> None:
        ne, nu = self.E.size, self.U.size
        self.E = theta[:ne].reshape(self.E.shape).copy()
        self.U = theta[ne : ne + nu].reshape(self.U.shape).copy()
        self.b = theta[ne + nu :].copy()

    def parameter_name(self, flat_index: int) -> str:
        ne, nu = self.E.size, self.U.size
        if flat_index < ne:
            r, c = divmod(flat_index, self.E.shape[1])
            return f"E[{r},{c}]"
        if flat_index < ne + nu:
            r, c = divmod(flat_index - ne, self.U.shape[1])
            return f"U[{r},{c}]"
        return f"b[{flat_index - ne - nu}]"


def save_checkpoint(
    backend: ToyBackend, path: str | Path, config_digest: str | None = None
) -> None:
    """JSON checkpoint; float repr round-trips parameters bit-exactly."""
    payload = {
        "format_version": 1,
        "vocab": backend.vocab.tokens,
        "d": backend.d,
        "seed": backend.seed,
        "E": backend.E.tolist(),
        "U": backend.U.tolist(),
        "b": backend.b.tolist(),
        "config_digest": config_digest,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str | Path) -> ToyBackend:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint version {payload.get('format_version')}")
    vocab = Vocabulary([t for t in payload["vocab"] if t not in SPECIALS])
    if vocab.tokens != payload["vocab"]:
        raise ValueError("checkpoint vocabulary is not in canonical order")
    backend = ToyBackend.__new__(ToyBackend)
    backend.vocab = vocab
    backend.d = int(payload["d"])
    backend.seed = int(payload["seed"])
    backend.E = np.array(payload["E"], dtype=float)
    backend.U = np.array(payload["U"], dtype=float)
    backend.b = np.array(payload["b"], dtype=float)
    if backend.d < 1:
        raise ValueError(f"checkpoint dimension d={backend.d} must be >= 1")
    v = len(vocab)
    for name, shape in (("E", (v, backend.d)), ("U", (v, backend.d)), ("b", (v,))):
        value = getattr(backend, name)
        if value.shape != shape:
            raise ValueError(f"checkpoint {name} has shape {value.shape}, expected {shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"checkpoint {name} holds non-finite values")
    return backend
