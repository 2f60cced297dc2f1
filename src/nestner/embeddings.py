"""Per-token input vectors: pretrained, trainable, POS one-hot, char BiGRU, contextual.

The token vector is the concatenation, in this order, of every enabled
source: frozen pretrained word vector, trainable form embedding, trainable
lemma embedding, POS one-hot, character-level BiGRU state, and a precomputed
contextual vector read from a sidecar file. The total width is fixed by
:class:`EmbeddingConfig` for a model's whole lifetime. A sentence's vectors
are assembled together: one lookup per table, and one packed char GRU call
per direction over the sentence's distinct forms.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Init, Tape, Var
from .core import NestnerError, Token
from .corpus import UNK, Vocabulary, text_blocks, vector_row


class PretrainedFormatError(NestnerError):
    """A pretrained vector file is malformed."""


@dataclass(frozen=True)
class EmbeddingConfig:
    """Widths of the token-vector sources; 0 disables a source.

    ``char_rnn_dim`` is per direction, so characters contribute
    ``2 * char_rnn_dim`` when enabled. ``pos_dim`` is resolved from the
    vocabulary when ``use_pos_onehot`` is set.
    """

    pretrained_dim: int = 0
    trainable_dim: int = 256
    lemma_dim: int = 0
    char_dim: int = 128
    char_rnn_dim: int = 128
    use_pos_onehot: bool = False
    pos_dim: int = 0
    contextual_dim: int = 0

    def __post_init__(self) -> None:
        for name in (
            "pretrained_dim",
            "trainable_dim",
            "lemma_dim",
            "char_dim",
            "char_rnn_dim",
            "pos_dim",
            "contextual_dim",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if bool(self.char_dim) != bool(self.char_rnn_dim):
            raise ValueError("char_dim and char_rnn_dim must be enabled together")
        sources = (
            "pretrained_dim", "trainable_dim", "lemma_dim", "char_dim", "use_pos_onehot",
            "contextual_dim",
        )
        if not any(getattr(self, name) for name in sources):
            raise ValueError(f"no token-vector source is enabled; set one of {', '.join(sources)}")

    @property
    def token_dim(self) -> int:
        dim = self.pretrained_dim + self.trainable_dim + self.lemma_dim + self.contextual_dim
        if self.use_pos_onehot:
            if self.pos_dim <= 0:
                raise ValueError("use_pos_onehot is set but pos_dim is unresolved")
            dim += self.pos_dim
        if self.char_dim:
            dim += 2 * self.char_rnn_dim
        return dim


class PretrainedTable:
    """Frozen pretrained word vectors; unknown forms map to a zero vector."""

    def __init__(self, index: dict[str, int], matrix: np.ndarray):
        self.index = index
        self.matrix = matrix
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @functools.cached_property
    def fingerprint(self) -> dict:
        """Row count and sha256 of the words in row order and the float32
        matrix; a checkpoint stores it to recognise the table it needs."""
        digest = hashlib.sha256()
        words = sorted(self.index, key=self.index.__getitem__)
        digest.update(json.dumps(words).encode("utf-8"))
        for start in range(0, len(self.matrix), 4096):  # bounded temporaries
            digest.update(self.matrix[start : start + 4096].astype("<f4").tobytes())
        return {"rows": len(self.matrix), "sha256": digest.hexdigest()}

    def __len__(self) -> int:
        return len(self.index)

    def vector(self, form: str) -> np.ndarray:
        """Row for ``form`` (exact match first, then lowercased); zeros if absent."""
        idx = self.index.get(form)
        if idx is None:
            idx = self.index.get(form.lower())
        if idx is None or form == UNK:
            return np.zeros(self.dim, dtype=self.matrix.dtype)
        return self.matrix[idx]


def load_pretrained(path: str | Path) -> PretrainedTable:
    """Read text-format vectors: an optional fastText ``count dim`` header
    (two unsigned decimals), then ``word v1 .. vd`` rows split at spaces;
    blank lines are skipped.

    The file sets its width: the header's ``dim`` on the first non-blank
    line, else the first row's (``corpus.vector_row`` checks every row). A
    file with neither has none, an error. Duplicates keep the first row.
    """
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    width = None
    for start, block in text_blocks(path, PretrainedFormatError):
        for lineno, raw in enumerate(block, start):
            fields = [f for f in raw.rstrip("\n").split(" ") if f]
            if not fields:
                continue
            if width is None and len(fields) == 2 and all(map(str.isdecimal, fields)):
                width = int(fields[1])
                if width < 1:
                    raise PretrainedFormatError(f"{path}:{lineno}: header declares width {width}")
                continue
            values = vector_row(fields[1:], width, path, lineno, PretrainedFormatError)
            width = len(values)
            if fields[0] not in index:
                index[fields[0]] = len(rows)
                rows.append(values)
    if width is None:
        raise PretrainedFormatError(f"{path}: no header and no rows, so no width")
    return PretrainedTable(index, np.array(rows, dtype=np.float64).reshape(len(rows), width))


class TokenEmbedder:
    """Declares the embedding parameters and assembles token vectors on a tape."""

    FORM_TABLE = "embed.form"
    LEMMA_TABLE = "embed.lemma"
    CHAR_TABLE = "embed.char"
    CHAR_FW = ("embed.char_fw.wx", "embed.char_fw.wh", "embed.char_fw.b")
    CHAR_BW = ("embed.char_bw.wx", "embed.char_bw.wh", "embed.char_bw.b")

    def __init__(
        self,
        config: EmbeddingConfig,
        vocab: Vocabulary,
        pretrained: PretrainedTable | None = None,
    ):
        if config.pretrained_dim and pretrained is None:
            raise ValueError("config enables pretrained vectors but no table was given")
        if pretrained is not None and config.pretrained_dim not in (0, pretrained.dim):
            raise ValueError(
                f"pretrained table has dimension {pretrained.dim}, "
                f"config says {config.pretrained_dim}"
            )
        if config.use_pos_onehot and config.pos_dim != vocab.n_pos:
            raise ValueError(
                f"pos one-hot width {config.pos_dim} does not match "
                f"{vocab.n_pos} POS tags in the vocabulary"
            )
        self.config = config
        self.vocab = vocab
        self.pretrained = pretrained

    def parameter_table(self) -> dict[str, Init]:
        """The embedding entries of the model's parameter table, in order."""
        cfg, vocab, table = self.config, self.vocab, {}
        if cfg.trainable_dim:
            table[self.FORM_TABLE] = Init((vocab.n_forms, cfg.trainable_dim), cfg.trainable_dim)
        if cfg.lemma_dim:
            table[self.LEMMA_TABLE] = Init((vocab.n_lemmas, cfg.lemma_dim), cfg.lemma_dim)
        if cfg.char_dim:
            c, r = cfg.char_dim, cfg.char_rnn_dim
            table[self.CHAR_TABLE] = Init((vocab.n_chars, c), c)
            for wx, wh, b in (self.CHAR_FW, self.CHAR_BW):
                table.update({wx: Init((c, 3 * r), c), wh: Init((r, 3 * r), r), b: Init((3 * r,))})
        return table

    def _char_states(self, tape: Tape, tokens: Sequence[Token]) -> list[Var]:
        """Final states of the forward and backward char GRUs, one
        (len(tokens), char_rnn_dim) matrix each. Every direction is one
        packed call over the characters of the distinct forms, and one
        gather takes each token's final state from its form's rows: the
        forward state at the last character, the backward at the first."""
        distinct: dict[str, int] = {}
        index = [distinct.setdefault(token.form, len(distinct)) for token in tokens]
        ids = [self.vocab.char_ids(form) for form in distinct]
        chars = tape.lookup(self.CHAR_TABLE, [c for form_ids in ids for c in form_ids])
        lengths = np.array([len(form_ids) for form_ids in ids])
        ends = np.cumsum(lengths)
        states = []
        for (wx, wh, b), reverse, finals in (
            (self.CHAR_FW, False, ends - 1), (self.CHAR_BW, True, ends - lengths)
        ):
            pre = tape.affine(chars, tape.param(wx), tape.param(b))
            hidden = tape.gru(pre, tape.param(wh), reverse=reverse, lengths=lengths)
            states.append(tape.gather(hidden, finals[index]))
        return states

    def token_vector(
        self,
        tape: Tape,
        tokens: Sequence[Token],
        lookup_forms: Sequence[str] | None = None,
        contextual: np.ndarray | None = None,
    ) -> Var:
        """The (T, token_dim) input vectors of a sentence of T tokens.

        ``lookup_forms``, one per token, replace the forms for the
        pretrained and trainable lookups (word dropout); characters always
        come from the raw forms. ``contextual`` is the sentence's checked
        (T, contextual_dim) matrix of precomputed vectors; without it the
        vectors end before the contextual columns. Each table is looked up
        once with every id, and the char BiGRU runs once per direction over
        the distinct forms.
        """
        cfg = self.config
        forms = [token.form for token in tokens] if lookup_forms is None else list(lookup_forms)
        assert len(forms) == len(tokens)
        parts: list[Var] = []
        if cfg.pretrained_dim:
            parts.append(tape.const(np.stack([self.pretrained.vector(f) for f in forms])))
        if cfg.trainable_dim:
            parts.append(tape.lookup(self.FORM_TABLE, [self.vocab.form_id(f) for f in forms]))
        if cfg.lemma_dim:
            lemma_ids = [self.vocab.lemma_id(token.lemma) for token in tokens]
            parts.append(tape.lookup(self.LEMMA_TABLE, lemma_ids))
        if cfg.use_pos_onehot:
            onehot = np.zeros((len(tokens), cfg.pos_dim))
            for i, token in enumerate(tokens):
                pos_i = self.vocab.pos_index(token.pos)
                if pos_i is not None:
                    onehot[i, pos_i] = 1.0
            parts.append(tape.const(onehot))
        if cfg.char_dim:
            parts.extend(self._char_states(tape, tokens))
        if contextual is not None:
            parts.append(tape.const(contextual))
        if not parts:  # contextual columns only, and none given
            return tape.const(np.zeros((len(tokens), 0)))
        return tape.concat(parts) if len(parts) > 1 else parts[0]
