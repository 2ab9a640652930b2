"""Unit + property tests for the label-sequence algebra (paper §III-A, §IV)."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import labels as lab

LABELS = st.sampled_from(["a", "b", "c"])
SEQS = st.lists(LABELS, min_size=1, max_size=10).map(tuple)


def brute_mr(seq):
    """Reference MR: shortest aligned repeat whose power reconstructs seq."""
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and seq[:p] * (n // p) == seq:
            return seq[:p]
    raise AssertionError


def brute_kernels(seq):
    """All Definition 3 decompositions (kernel, tail) of seq."""
    n = len(seq)
    out = []
    for p in range(1, n // 2 + 1):
        cand = seq[:p]
        if lab.mr(cand) != cand:
            continue
        h, r = divmod(n, p)
        if h >= 2 and seq == cand * h + cand[:r]:
            out.append((cand, cand[:r]))
    return out


# ---- explicit examples ----------------------------------------------------

@pytest.mark.parametrize(
    "seq,expected",
    [
        (("a",), ("a",)),
        (("a", "a"), ("a",)),
        (("a", "b"), ("a", "b")),
        (("a", "b", "a", "b"), ("a", "b")),
        (("a", "b", "a"), ("a", "b", "a")),
        (("a", "a", "b"), ("a", "a", "b")),
        (("a", "b", "a", "b", "a", "b"), ("a", "b")),
        (("a", "b", "b", "a", "b", "b"), ("a", "b", "b")),
    ],
)
def test_mr_examples(seq, expected):
    assert lab.mr(seq) == expected


def test_mr_paper_example():
    # §III-A: MR of (knows, worksFor, knows, worksFor) is (knows, worksFor).
    seq = ("knows", "worksFor", "knows", "worksFor")
    assert lab.mr(seq) == ("knows", "worksFor")


def test_mr_same_for_different_powers():
    # §III-C: knows^4 and knows^3 share MR (knows).
    assert lab.mr(("knows",) * 4) == lab.mr(("knows",) * 3) == ("knows",)


def test_mr_empty():
    assert lab.mr(()) == ()


@pytest.mark.parametrize(
    "seq,kernel,tail",
    [
        (("a", "a"), ("a",), ()),
        (("a", "a", "a", "b"), None, None),
        (("a", "b", "a", "b"), ("a", "b"), ()),
        (("a", "b", "a", "b", "a"), ("a", "b"), ("a",)),
        (("a", "b", "a"), None, None),
        (("a", "a", "b", "a", "a", "b", "a"), ("a", "a", "b"), ("a",)),
        (("a",), None, None),
    ],
)
def test_kernel_tail_examples(seq, kernel, tail):
    kt = lab.kernel_tail(seq)
    if kernel is None:
        assert kt is None
    else:
        assert kt == (kernel, tail)


def test_kernel_paper_example():
    # §IV: (knows, knows, knows, knows) has kernel (knows) and tail ε.
    assert lab.kernel_tail(("knows",) * 4) == (("knows",), ())


# ---- encode/decode --------------------------------------------------------

@pytest.mark.parametrize("seq", [(), ("a",), ("a", "b"), ("knows", "worksFor")])
def test_encode_decode_roundtrip(seq):
    assert lab.decode(lab.encode(seq)) == seq


@pytest.mark.parametrize("seq", [("a,b",), ("a", "b,"), (",",)])
def test_encode_rejects_separator_in_label(seq):
    # ("a,b",) would encode like ("a", "b"): refuse rather than merge MRs.
    with pytest.raises(ValueError, match="delimiter"):
        lab.encode(seq)


# ---- satisfies / k_mr -----------------------------------------------------

def test_satisfies_requires_exact_power():
    assert lab.satisfies(("a", "b", "a", "b"), ("a", "b"))
    assert not lab.satisfies(("a", "b", "a"), ("a", "b"))
    assert not lab.satisfies(("a", "b"), ("a",))


def test_k_mr_bound():
    assert lab.k_mr(("a", "b", "a", "b"), 2) == ("a", "b")
    assert lab.k_mr(("a", "b", "c"), 2) is None
    assert lab.k_mr(("a", "b", "c"), 3) == ("a", "b", "c")


def test_power_exponent():
    assert lab.power_exponent(("a", "b", "a", "b")) == (("a", "b"), 2)
    assert lab.power_exponent(("a",)) == (("a",), 1)


# ---- enumeration vs closed form (paper §V-C) ------------------------------

@pytest.mark.parametrize("n_labels,k", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (8, 2)])
def test_count_mrs_matches_enumeration(n_labels, k):
    labels = [f"l{i}" for i in range(n_labels)]
    assert len(lab.all_mrs(labels, k)) == lab.count_mrs(n_labels, k)


def test_all_mrs_primitive_and_sorted_unique():
    mrs = lab.all_mrs(["a", "b"], 3)
    assert len(set(mrs)) == len(mrs)
    assert all(lab.is_primitive(s) for s in mrs)


# ---- hypothesis properties ------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(SEQS)
def test_mr_matches_brute_force(seq):
    assert lab.mr(seq) == brute_mr(seq)


@settings(max_examples=200, deadline=None)
@given(SEQS)
def test_mr_idempotent_and_reconstructs(seq):
    m = lab.mr(seq)
    assert lab.mr(m) == m  # MR of an MR is itself (primitivity)
    assert len(seq) % len(m) == 0
    assert m * (len(seq) // len(m)) == seq


@settings(max_examples=200, deadline=None)
@given(SEQS, st.integers(min_value=1, max_value=4))
def test_mr_of_power_is_mr(seq, z):
    # MR(L^z) == MR(L): powers never change the minimum repeat (Fine–Wilf).
    assert lab.mr(seq * z) == lab.mr(seq)


@settings(max_examples=300, deadline=None)
@given(SEQS)
def test_kernel_unique_lemma2(seq):
    kernels = brute_kernels(seq)
    assert len(kernels) <= 1  # Lemma 2
    kt = lab.kernel_tail(seq)
    assert kt == (kernels[0] if kernels else None)


@settings(max_examples=200, deadline=None)
@given(SEQS)
def test_kernel_is_primitive(seq):
    kt = lab.kernel_tail(seq)
    if kt is not None:
        kernel, tail = kt
        assert lab.is_primitive(kernel)
        assert tail == kernel[: len(tail)] and len(tail) < len(kernel)


@settings(max_examples=200, deadline=None)
@given(SEQS)
def test_smallest_period_is_period(seq):
    p = lab.smallest_period(seq)
    assert 1 <= p <= len(seq)
    assert all(seq[i] == seq[i - p] for i in range(p, len(seq)))


def theorem1_k_mr(seq, k):
    """The k-MR of a path's label sequence computed exactly as Theorem 1
    states it (by cases on |p| vs k and 2k), not via mr() directly."""
    n = len(seq)
    if n <= k:  # Case 1
        return lab.mr(seq)
    if n <= 2 * k:  # Case 2
        m = lab.mr(seq)
        return m if len(m) <= k else None
    # Case 3: split at the prefix of length 2k.
    prefix, rest = seq[: 2 * k], seq[2 * k :]
    kt = lab.kernel_tail(prefix)
    if kt is None:
        return None
    kernel, tail = kt
    return kernel if lab.mr(tail + rest) == kernel else None


@settings(max_examples=400, deadline=None)
@given(SEQS, st.integers(min_value=1, max_value=3))
def test_theorem1_cases_agree_with_k_mr(seq, k):
    # Theorem 1's case analysis must agree with the direct definition
    # (MR(seq) when its length is <= k, else no non-empty k-MR).
    assert theorem1_k_mr(seq, k) == lab.k_mr(seq, k)
