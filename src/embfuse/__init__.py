"""embfuse: embedding fusion and a from-scratch recurrent sentiment classifier.

The package splits into six modules:

* :mod:`embfuse.embedding_io` - parse/write pretrained embedding files
* :mod:`embfuse.corpus`       - review CSV to encoded, split dataset
* :mod:`embfuse.fusion`       - mean-shift fusion of two embedding tables
* :mod:`embfuse.model`        - stacked BiLSTM/BiGRU classifier (NumPy only)
* :mod:`embfuse.optim`        - optimizers, training loop, LR search, sweep
* :mod:`embfuse.charts`       - deterministic SVG line charts

:mod:`embfuse.cli` ties them into the ``embfuse`` command.
"""
from .embedding_io import (
    EmbeddingTable,
    FORMATS,
    parse_embedding,
    parse_fasttext_text,
    parse_glove_text,
    parse_word2vec_binary,
    write_word2vec_binary,
)
from .corpus import (
    CorpusDictionaries,
    EncodedExample,
    PreparedDataset,
    ReviewRecord,
    SentimentLabel,
    build_dictionaries,
    encode_sequence,
    load_reviews_csv,
    prepare_corpus,
    read_dataset,
    split_train_test,
    tokenize,
    write_dataset,
)
from .fusion import (
    BranchCounts,
    FusedMatrix,
    build_fused_matrix,
    fuse_both,
    fuse_second_only,
)
from .model import (
    ModelConfig,
    ModelParameters,
    forward,
    gru_cell_step,
    init_parameters,
    load_checkpoint,
    loss_and_grad,
    lstm_cell_step,
    predict,
    save_checkpoint,
)
from .optim import (
    OPTIMIZER_KINDS,
    OptimizerSpec,
    SplitDataset,
    TrainingHistory,
    lr_range_search,
    make_optimizer,
    optimizer_sweep,
    train,
)
from .charts import AxesSpec, Series, emit_svg_linechart
from .errors import EmbfuseError, ValidationError
from .seeding import derive_rng

__version__ = "0.1.0"
