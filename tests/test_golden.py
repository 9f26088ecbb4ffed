"""Golden training histories: every optimizer, pinned to exact float reprs.

Each case trains the small model of ``test_optim`` on the tiny synthetic
corpus and compares the history with ``repr`` values and the trained
weights and checkpoint with SHA-256 digests. The pinned values were
produced by the dict-and-copy parameter plumbing that the flat parameter
buffer replaced, so any change to an update rule's floating-point
operation order, to the gradient, or to the checkpoint bytes shows here as
a mismatch.

The last bits of a GEMM depend on the BLAS build and its kernels, so the
pinned values hold only for the build they came from (``PINNED_BLAS``,
x86-64); elsewhere those tests are skipped. The cases of each (dropout,
train_embedding) group are also trained as one stack of runs, and every
run of the stack must match its pinned values. The update rules themselves are
checked on every platform against their out-of-place textbook formulas,
computed in the same process.
"""
import hashlib
import io
import platform

import numpy as np
import pytest

from embfuse.model import ModelConfig, save_checkpoint, to_flat
from embfuse.optim import (
    DEFAULT_LR, OPTIMIZER_KINDS, OptimizerSpec, make_optimizer, train, train_runs,
)
from embfuse.seeding import derive_rng

from synthetic import random_embedding, synthetic_dataset

PINNED_BLAS = ("scipy-openblas", "0.3.31.188.0", "x86_64")


def blas_build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("name"), blas.get("version"), platform.machine()


DROPOUT = dict(spatial_dropout_rate=0.2, dropout_rate=0.3)


def case_config(dropout, train_embedding):
    rates = DROPOUT if dropout else dict(spatial_dropout_rate=0.0, dropout_rate=0.0)
    return ModelConfig(max_len=12, emb_dim=10, lstm_units=4, gru_units=3, seed=3,
                       train_embedding=train_embedding, **rates)


TRAINING = dict(epochs=2, batch_size=16, seed=5)


def run_case(kind, lr, dropout=False, train_embedding=False):
    """Train one case and return its history, weights and checkpoint fingerprint."""
    config = case_config(dropout, train_embedding)
    params, hist = train(synthetic_dataset(n=120, seed=3), random_embedding(seed=3),
                         config, OptimizerSpec(kind=kind, learning_rate=lr), **TRAINING)
    return fingerprint(params, hist, config)


def fingerprint(params, hist, config):
    ckpt = io.BytesIO()
    save_checkpoint(ckpt, params, config)
    return {
        "train_loss": [repr(v) for v in hist.train_loss],
        "train_accuracy": [repr(v) for v in hist.train_accuracy],
        "test_loss": [repr(v) for v in hist.test_loss],
        "test_accuracy": [repr(v) for v in hist.test_accuracy],
        "diverged": (hist.diverged, hist.diverged_epoch),
        "weights": hashlib.sha256(to_flat(params, config).tobytes()).hexdigest(),
        "checkpoint": hashlib.sha256(ckpt.getvalue()).hexdigest(),
    }


# (kind, learning rate, dropout, train_embedding)
CASES = [(kind, DEFAULT_LR[kind], dropout, False)
         for dropout in (False, True) for kind in OPTIMIZER_KINDS]
DIVERGING = ("sgd", 1e307, False, False)  # overflows in the first batch
CASES += [("adam", 0.01, True, True), DIVERGING]

GOLDEN = {
    ('sgd', 0.1, False, False): {
        'train_loss': ['1.158459766916858', '1.1006951474090738'],
        'train_accuracy': ['0.28703703703703703', '0.3611111111111111'],
        'test_loss': ['1.1957383794836258', '1.1432685397966684'],
        'test_accuracy': ['0.08333333333333333', '0.25'],
        'diverged': (False, None),
        'weights': '66ed7ccc471bb016ec9778fde49495559a8bfe6c5c76fe659dac09681a69f0ae',
        'checkpoint': 'bf15877995c4a47e807dddca27d643f60116c46f0a42d255285069f1bbaf7003',
    },
    ('sgd_momentum', 0.05, False, False): {
        'train_loss': ['1.1509029751164648', '1.049935089393282'],
        'train_accuracy': ['0.26851851851851855', '0.48148148148148145'],
        'test_loss': ['1.1517747666195184', '1.0245036160153134'],
        'test_accuracy': ['0.16666666666666666', '0.5'],
        'diverged': (False, None),
        'weights': '8a15796816ae1d7fd082dafa4bdf094c2a1983f5daf909c70883e69ceee8d92c',
        'checkpoint': '062081a03355067b583a038fc9f1c43c977c8130692712506e2c999d72f3ed5d',
    },
    ('adagrad', 0.5, False, False): {
        'train_loss': ['1.4286091129119447', '0.43358014015063384'],
        'train_accuracy': ['0.3425925925925926', '0.8888888888888888'],
        'test_loss': ['0.8792402682313125', '0.36855160826779915'],
        'test_accuracy': ['0.6666666666666666', '0.9166666666666666'],
        'diverged': (False, None),
        'weights': 'fadcd1451122dad145d4602a0df4f3e3cf560ec53bd8ba0103482d4ede35baeb',
        'checkpoint': 'acb867b52be9d39c7bccbb5c5848536f6475e8c7ec8af62ea3e9f610649c9445',
    },
    ('adadelta', 1.0, False, False): {
        'train_loss': ['1.1564096262400132', '1.0960154556873907'],
        'train_accuracy': ['0.2777777777777778', '0.42592592592592593'],
        'test_loss': ['1.2014575615697984', '1.1480417780108374'],
        'test_accuracy': ['0.08333333333333333', '0.25'],
        'diverged': (False, None),
        'weights': 'c4a3e95a83ec0288d33a13b96d2eef82a944fb544669e6406eec350d3012c700',
        'checkpoint': 'd745e5b640132877d1e5badc085edc8bf96b72b9390f7c4bced57103b46cfcb4',
    },
    ('adam', 0.1, False, False): {
        'train_loss': ['0.8802201688667199', '0.20534551417335004'],
        'train_accuracy': ['0.5555555555555556', '0.9259259259259259'],
        'test_loss': ['0.3843532885208148', '0.12489667895455975'],
        'test_accuracy': ['0.9166666666666666', '0.9166666666666666'],
        'diverged': (False, None),
        'weights': '8ab68e3fdecc29d9295822d7e706bd4575486edac5f3955cee126bd0ae391374',
        'checkpoint': '25f14e4f1f92c6d22c5715275142136729e8c3b1766c4b7a9062a6f6d780e409',
    },
    ('sgd', 0.1, True, False): {
        'train_loss': ['1.1641342017801846', '1.0718812616793958'],
        'train_accuracy': ['0.3055555555555556', '0.3888888888888889'],
        'test_loss': ['1.1858276747909955', '1.1178909928721665'],
        'test_accuracy': ['0.08333333333333333', '0.4166666666666667'],
        'diverged': (False, None),
        'weights': '340d931bd75fbdbccfc28680c9a1825ad8a74413774d0af1b4467f21f06e9c17',
        'checkpoint': 'e9a4ba3c611b23a323787cc93e3336915dcfcd4629079293a11b0926a59bb7c2',
    },
    ('sgd_momentum', 0.05, True, False): {
        'train_loss': ['1.1556981117683225', '1.018947512406822'],
        'train_accuracy': ['0.28703703703703703', '0.5462962962962963'],
        'test_loss': ['1.135862952606987', '1.0077468890926082'],
        'test_accuracy': ['0.5', '0.4166666666666667'],
        'diverged': (False, None),
        'weights': '69f768294cd253b403deda87c493d5698f04d58a8308bfa2fc5f1f7ad2e59df8',
        'checkpoint': '7ecb1f58ec2a1a737a98ccf469fef71e77926e49f94e9f9a69ea845d97573c11',
    },
    ('adagrad', 0.5, True, False): {
        'train_loss': ['1.7751419815414018', '0.6135243319315447'],
        'train_accuracy': ['0.2962962962962963', '0.7407407407407407'],
        'test_loss': ['0.9677865207724193', '0.35372894702086977'],
        'test_accuracy': ['0.4166666666666667', '0.9166666666666666'],
        'diverged': (False, None),
        'weights': 'f91fc66cdeda256be922e1b7e83aa1fa52ae87ac4dc21b30d9e784bd0b165af5',
        'checkpoint': '12087f33bce8d0ec164f2332d201c0f96b6ddb6b903fb27bc279305c20d7d14f',
    },
    ('adadelta', 1.0, True, False): {
        'train_loss': ['1.1729538449124959', '1.0978046902263237'],
        'train_accuracy': ['0.2962962962962963', '0.3888888888888889'],
        'test_loss': ['1.2104461046830313', '1.1538306441025723'],
        'test_accuracy': ['0.08333333333333333', '0.25'],
        'diverged': (False, None),
        'weights': '5f3021b31f6412b3460b783dfbb6011d45ef583d0f3a355e2ca2f10834aa12c3',
        'checkpoint': '3890adc20eac4ff867ed47a2b43eff9c05d1aadcf1558bee0b32134245747d9f',
    },
    ('adam', 0.1, True, False): {
        'train_loss': ['1.050743929781813', '0.5292030995530559'],
        'train_accuracy': ['0.4537037037037037', '0.8240740740740741'],
        'test_loss': ['0.7994486594512594', '0.3730328429351983'],
        'test_accuracy': ['0.5', '0.9166666666666666'],
        'diverged': (False, None),
        'weights': '7050ab9d73d6fcd2badd6cd75916eb0d6ac71104cd2cc414a6bed6daec6565a1',
        'checkpoint': '286b63ee40021124138c33c2a796e8993d6cfa9a566352e93301f4586fb77cfb',
    },
    ('adam', 0.01, True, True): {
        'train_loss': ['1.1242698580556731', '0.9491441991572103'],
        'train_accuracy': ['0.3148148148148148', '0.6481481481481481'],
        'test_loss': ['1.0922706258454384', '0.9634412466127887'],
        'test_accuracy': ['0.4166666666666667', '0.6666666666666666'],
        'diverged': (False, None),
        'weights': '2ca9e42926d3e1aeaa0af26118b62ee0341a0b020342b32e9ba77b3157c1ef2b',
        'checkpoint': 'a09fd37c25290117a89213a5d1f52c15ad5a6a880e276fc41ddc6cc6c36959f5',
    },
    ('sgd', 1e+307, False, False): {
        'train_loss': [],
        'train_accuracy': [],
        'test_loss': [],
        'test_accuracy': [],
        'diverged': (True, 1),
        'weights': 'e4eeb64c50facdf125fec21f0980612bd868a8b7975bb866aa4da70f66cdb632',
        'checkpoint': '009c81294d412fc8b875ecd245949737449d1b28d375f00a1d8cea112363bb65',
    },
}


@pytest.mark.skipif(blas_build() != PINNED_BLAS,
                    reason="golden values pin one BLAS build's GEMM rounding")
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-lr{c[1]}-do{int(c[2])}-emb{int(c[3])}")
def test_history_weights_and_checkpoint_match_golden(case):
    assert run_case(*case) == GOLDEN[case]


@pytest.mark.skipif(blas_build() != PINNED_BLAS,
                    reason="golden values pin one BLAS build's GEMM rounding")
@pytest.mark.parametrize("group", sorted({case[2:] for case in CASES}),
                         ids=lambda g: f"do{int(g[0])}-emb{int(g[1])}")
def test_each_group_trained_as_one_stack_matches_golden(group):
    cases = [case for case in CASES if case[2:] == group]
    config = case_config(*group)
    params, histories = train_runs(
        synthetic_dataset(n=120, seed=3), random_embedding(seed=3), config,
        [OptimizerSpec(kind=kind, learning_rate=lr) for kind, lr, _, _ in cases], **TRAINING)
    for k, case in enumerate(cases):
        assert fingerprint(params.run(k), histories[k], config) == GOLDEN[case]


def textbook_rule(spec, n):
    """Each update rule as its formula reads, out of place, with fresh state arrays.

    The fixed hyperparameters are written as literals, so this reference pins
    their values as well as the operation order.
    """
    s = {"v": np.zeros(n), "acc": np.zeros(n), "sq_g": np.zeros(n), "sq_d": np.zeros(n),
         "m": np.zeros(n), "t": 0}
    lr = spec.learning_rate

    def step(w, g):
        if spec.kind == "sgd":
            return w - lr * g
        if spec.kind == "sgd_momentum":
            s["v"] = 0.9 * s["v"] + g
            return w - lr * s["v"]
        if spec.kind == "adagrad":
            s["acc"] = s["acc"] + g * g
            return w - lr * g / np.sqrt(s["acc"] + 1e-10)
        if spec.kind == "adadelta":
            rho, eps = 0.95, 1e-6
            s["sq_g"] = rho * s["sq_g"] + (1.0 - rho) * g * g
            delta = -np.sqrt(s["sq_d"] + eps) / np.sqrt(s["sq_g"] + eps) * g
            s["sq_d"] = rho * s["sq_d"] + (1.0 - rho) * delta * delta
            return w + lr * delta
        b1, b2 = 0.9, 0.999
        s["t"] += 1
        s["m"] = b1 * s["m"] + (1.0 - b1) * g
        s["v"] = b2 * s["v"] + (1.0 - b2) * g * g
        m_hat = s["m"] / (1.0 - b1 ** s["t"])
        v_hat = s["v"] / (1.0 - b2 ** s["t"])
        return w - lr * m_hat / (np.sqrt(v_hat) + 1e-8)

    return step


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_in_place_rules_equal_textbook_formulas(kind):
    spec = OptimizerSpec(kind=kind, learning_rate=DEFAULT_LR[kind])
    stepper, reference = make_optimizer(spec, 64), textbook_rule(spec, 64)
    rng = derive_rng(29, "textbook", kind)
    w = rng.normal(size=64)
    w_ref = w.copy()
    for _ in range(30):
        g = rng.normal(size=64) * rng.choice([1e-6, 1.0, 1e3])
        stepper.step(w, g)
        w_ref = reference(w_ref, g)
        assert np.array_equal(w, w_ref)
