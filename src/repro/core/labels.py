"""Label-sequence algebra for RLC queries (paper §III-A, §IV).

A label sequence is a tuple of label strings. The *minimum repeat* ``MR(L)``
is the shortest sequence ``L'`` with ``L = (L')^z`` for an integer ``z >= 1``
(paper Lemma 1: it is unique). We compute it with the KMP failure function
(the paper also uses KMP, §V-B): the smallest period ``p = n - fail[n]``
yields ``MR = L[:p]`` iff ``p`` divides ``n``, else ``L`` is primitive.

A sequence ``L`` has *kernel* ``L'`` and *tail* ``L''`` (Definition 3) iff
``L = (L')^h . L''`` with ``h >= 2``, ``MR(L') = L'`` and ``L''`` the empty
sequence or a proper prefix of ``L'``. Equivalently: the smallest period
``p`` of ``L`` satisfies ``n >= 2p``; then kernel ``L[:p]`` (which is always
primitive when ``p <= n/2``) and tail ``L[:n mod p]``. Lemma 2 (uniqueness)
is property-tested in ``tests/test_labels.py``.
"""
from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

Seq = tuple[str, ...]

#: Delimiter used when flattening a label sequence to one string column.
SEP = ","


def encode(seq: Sequence[str]) -> str:
    """Flatten a label sequence to a single delimited string (Spark-friendly).

    Raises ValueError for a label containing :data:`SEP`, whose string would
    merge with that of a different sequence (``("a,b",)`` vs ``("a", "b")``).
    """
    if any(SEP in label for label in seq):
        raise ValueError(f"label contains the MR delimiter {SEP!r}: {tuple(seq)!r}")
    return SEP.join(seq)


def decode(s: str) -> Seq:
    """Inverse of :func:`encode`; the empty string decodes to the empty sequence."""
    return tuple(s.split(SEP)) if s else ()


def failure(seq: Sequence[str]) -> list[int]:
    """KMP failure (prefix) function; ``fail[i]`` = length of the longest
    proper prefix of ``seq[:i]`` that is also a suffix of it."""
    n = len(seq)
    fail = [0] * (n + 1)
    j = 0
    for i in range(1, n):
        while j and seq[i] != seq[j]:
            j = fail[j]
        if seq[i] == seq[j]:
            j += 1
        fail[i + 1] = j
    return fail


def smallest_period(seq: Sequence[str]) -> int:
    """Smallest ``p`` with ``seq[i] == seq[i - p]`` for all ``i >= p``."""
    if not seq:
        return 0
    return len(seq) - failure(seq)[len(seq)]


def mr(seq: Sequence[str]) -> Seq:
    """Minimum repeat ``MR(seq)`` (paper Lemma 1; unique)."""
    seq = tuple(seq)
    n = len(seq)
    if n == 0:
        return ()
    p = smallest_period(seq)
    return seq[:p] if n % p == 0 else seq


def is_primitive(seq: Sequence[str]) -> bool:
    """True iff ``seq == MR(seq)`` (the paper's ``L = MR(L)`` requirement)."""
    return len(seq) > 0 and mr(seq) == tuple(seq)


def power_exponent(seq: Sequence[str]) -> tuple[Seq, int]:
    """Return ``(MR(seq), z)`` with ``seq == MR(seq) ** z``."""
    m = mr(seq)
    return m, (len(seq) // len(m) if m else 0)


def kernel_tail(seq: Sequence[str]) -> tuple[Seq, Seq] | None:
    """Kernel/tail decomposition of Definition 3, or None if no kernel exists.

    Exists iff the smallest period ``p`` satisfies ``len(seq) >= 2p``; the
    kernel ``seq[:p]`` is then automatically primitive and unique (Lemma 2).
    """
    seq = tuple(seq)
    n = len(seq)
    if n < 2:
        return None
    p = smallest_period(seq)
    if n < 2 * p:
        return None
    return seq[:p], seq[: n % p]


def satisfies(seq: Sequence[str], constraint: Sequence[str]) -> bool:
    """True iff ``seq`` satisfies the path constraint ``constraint+``, i.e.
    ``MR(seq) == constraint`` (paper §III-B; requires a primitive constraint)."""
    return mr(seq) == tuple(constraint)


def k_mr(seq: Sequence[str], k: int) -> Seq | None:
    """The k-MR of ``seq``: ``MR(seq)`` if its length is ``<= k``, else None."""
    m = mr(seq)
    return m if 0 < len(m) <= k else None


def all_mrs(labels: Iterable[str], k: int) -> list[Seq]:
    """Enumerate every primitive sequence of length ``<= k`` over ``labels``.

    Exponential in ``k``; used for test oracles, query generation and the
    Table V query workloads (``k <= 3`` everywhere in the paper).
    """
    labels = sorted(set(labels))
    out: list[Seq] = []
    for n in range(1, k + 1):
        out.extend(s for s in product(labels, repeat=n) if is_primitive(s))
    return out


def count_mrs(n_labels: int, k: int) -> int:
    """Closed-form count ``C`` of distinct minimum repeats of length <= k over
    an alphabet of ``n_labels`` labels (paper §V-C, index-size analysis):
    ``C = sum_{i<=k} F(i)`` with ``F(i) = n^i - sum_{j | i, j != i} F(j)``.
    """
    F: dict[int, int] = {}
    for i in range(1, k + 1):
        F[i] = n_labels**i - sum(F[j] for j in range(1, i) if i % j == 0)
    return sum(F.values())
