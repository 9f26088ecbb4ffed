"""Synthetic data shared by the test suite, and its allocation-peak helper.

The synthetic corpus generator plants one designated signal token per class
into random filler sequences, so the label is a pure function of the tokens
and the generator itself is the ground-truth oracle: a model that learns the
task must have recovered exactly that function.
"""
import contextlib
import tracemalloc
import types

from embfuse.corpus import EncodedExample, SentimentLabel, split_train_test
from embfuse.optim import SplitDataset
from embfuse.seeding import derive_rng

SIGNAL_TOKENS = {0: 2, 1: 3, 2: 4}
FILLER_START = 5


def token_determined_examples(n=600, max_len=12, vocab=30, seed=11):
    """Left-padded index sequences whose label is decided by a signal token.

    Class c is marked by token 2+c planted 1 to 3 times over fillers drawn
    from 5..vocab-1. Index 0 stays padding and index 1 stays unknown, the
    same layout encoded review data uses.
    """
    rng = derive_rng(seed, "synthetic")
    examples = []
    for i in range(n):
        label = i % 3
        signal = SIGNAL_TOKENS[label]
        length = int(rng.integers(5, max_len + 1))
        toks = rng.integers(FILLER_START, vocab, size=length).tolist()
        copies = int(rng.integers(1, 4))
        for pos in rng.choice(length, size=min(copies, length), replace=False):
            toks[int(pos)] = signal
        indices = [0] * (max_len - length) + [int(t) for t in toks]
        examples.append(EncodedExample(indices=indices, label=SentimentLabel(label)))
    return examples


def synthetic_dataset(n=600, max_len=12, vocab=30, seed=11, train_fraction=0.9):
    examples = token_determined_examples(n=n, max_len=max_len, vocab=vocab, seed=seed)
    train, test = split_train_test(examples, train_fraction, seed)
    return SplitDataset.from_examples(train, test)


def random_embedding(vocab=30, dim=10, scale=0.5, seed=11):
    """Frozen random embedding with a zero padding row."""
    emb = derive_rng(seed, "emb").normal(0.0, scale, size=(vocab, dim))
    emb[0] = 0.0
    return emb


@contextlib.contextmanager
def traced_peak():
    """Trace allocations while the block runs; the yielded record's ``bytes``
    is their peak, read when the block ends, also by an exception."""
    record = types.SimpleNamespace(bytes=None)
    tracemalloc.start()
    try:
        yield record
    finally:
        record.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
