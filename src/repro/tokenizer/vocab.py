"""Vocabulary: bidirectional token <-> id mapping with reserved specials."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class SpecialTokens:
    """Reserved control tokens.

    ``pad`` is used for batch padding (and is always id 0 so that padded
    positions can be masked by comparing against a constant), ``bos``/``eos``
    delimit documents, and ``unk`` absorbs out-of-vocabulary symbols.
    """

    pad: str = "<pad>"
    bos: str = "<bos>"
    eos: str = "<eos>"
    unk: str = "<unk>"

    def as_list(self) -> List[str]:
        return [self.pad, self.bos, self.eos, self.unk]


class Vocabulary:
    """Append-only token table.

    Tokens are assigned consecutive ids in insertion order; the four special
    tokens always occupy ids 0..3.  The table is append-only: removing or
    renumbering tokens would silently invalidate any trained model that
    embeds ids, so that operation simply does not exist.
    """

    def __init__(self, specials: Optional[SpecialTokens] = None) -> None:
        self.specials = specials or SpecialTokens()
        self._token_to_id: Dict[str, int] = {}
        self._id_to_token: List[str] = []
        for tok in self.specials.as_list():
            self.add(tok)

    # -- construction -----------------------------------------------------
    def add(self, token: str) -> int:
        """Add ``token`` if absent; return its id either way."""
        if token in self._token_to_id:
            return self._token_to_id[token]
        idx = len(self._id_to_token)
        self._token_to_id[token] = idx
        self._id_to_token.append(token)
        return idx

    # -- lookup -----------------------------------------------------------
    def id_of(self, token: str) -> int:
        """Return the id of ``token``, falling back to ``<unk>``."""
        return self._token_to_id.get(token, self.unk_id)

    def strict_id_of(self, token: str) -> int:
        """Return the id of ``token``; raise ``KeyError`` if unknown."""
        return self._token_to_id[token]

    def token_of(self, idx: int) -> str:
        return self._id_to_token[idx]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    # -- special ids --------------------------------------------------------
    @property
    def pad_id(self) -> int:
        return self._token_to_id[self.specials.pad]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[self.specials.bos]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[self.specials.eos]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[self.specials.unk]

    @property
    def special_ids(self) -> List[int]:
        return [self.pad_id, self.bos_id, self.eos_id, self.unk_id]
