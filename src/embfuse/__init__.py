"""embfuse: embedding fusion and a from-scratch recurrent sentiment classifier.

The package splits into six modules:

* :mod:`embfuse.embedding_io` - parse/write pretrained embedding files
* :mod:`embfuse.corpus`       - review CSV to encoded, split dataset
* :mod:`embfuse.fusion`       - mean-shift fusion of two embedding tables
* :mod:`embfuse.model`        - stacked BiLSTM/BiGRU classifier (NumPy only)
* :mod:`embfuse.optim`        - optimizers, training loop, LR search, sweep
* :mod:`embfuse.charts`       - deterministic SVG line charts

:mod:`embfuse.cli` ties them into the ``embfuse`` command; :mod:`embfuse.errors`
and :mod:`embfuse.seeding` serve them all. ``import embfuse`` loads only
``__version__``: import the module a name lives in, as in
``from embfuse import fusion``.
"""

__version__ = "0.1.0"
