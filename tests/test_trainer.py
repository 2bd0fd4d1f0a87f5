import csv

import numpy as np
import pytest

from lutc.data import gen_spirals, split_normalize
from lutc.model import NetworkSpec, init_model
from lutc.quantize import bn_identity
from lutc.trainer import (
    OptimizerState,
    TrainConfig,
    TrainingDiverged,
    adamw_step,
    backward,
    bce_logit,
    forward,
    sgdr_lr,
    softmax_ce,
    train,
    write_history_csv,
)


def make_model(layer_widths, fan_in, degree, input_count, beta=4, seed=0,
               identity_bn=True):
    spec = NetworkSpec(layer_widths=layer_widths, beta=beta, fan_in=fan_in,
                       degree=degree, input_count=input_count, seed=seed)
    model = init_model(spec)
    if identity_bn:
        for p in model.params:
            p.bn = bn_identity(p.weights.shape[0], eps=0.0)
    return model


# ---------------------------------------------------------------------------
# Schedule


def test_sgdr_endpoints():
    cfg = TrainConfig(restart_period=10, restart_mult=2, base_lr=0.1, min_lr=1e-4)
    assert sgdr_lr(0, cfg) == 0.1
    assert sgdr_lr(10, cfg) == 0.1  # restart resets to base


def test_sgdr_midpoint():
    cfg = TrainConfig(restart_period=10, restart_mult=2, base_lr=0.2, min_lr=1e-9)
    assert sgdr_lr(5, cfg) == pytest.approx(0.1, rel=1e-6)


def test_sgdr_period_growth():
    cfg = TrainConfig(restart_period=4, restart_mult=2, base_lr=0.1, min_lr=1e-4)
    # restarts at 4, then 4 + 8 = 12, then 12 + 16 = 28
    assert sgdr_lr(4, cfg) == 0.1
    assert sgdr_lr(12, cfg) == 0.1
    assert sgdr_lr(28, cfg) == 0.1
    assert sgdr_lr(11, cfg) < sgdr_lr(10, cfg)  # monotone within a period


def test_sgdr_never_below_min():
    cfg = TrainConfig(restart_period=7, restart_mult=3, base_lr=0.5, min_lr=0.01)
    vals = [sgdr_lr(t, cfg) for t in range(100)]
    assert min(vals) >= 0.01
    assert max(vals) <= 0.5


# ---------------------------------------------------------------------------
# Optimizer


def test_adamw_first_step_identity():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    adamw_step(params, grads, OptimizerState(), lr=0.1, weight_decay=0.0,
               decay_keys={"w"})
    # bias-corrected first step: w' = 1 - 0.1 * g / (sqrt(g^2) + eps)
    assert params["w"][0] == pytest.approx(0.9, abs=1e-3)


def test_adamw_zero_grad_no_motion():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.zeros(2)}
    adamw_step(params, grads, OptimizerState(), lr=0.1, weight_decay=0.0,
               decay_keys={"w"})
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adamw_decoupled_decay():
    params = {"w": np.array([1.0])}
    grads = {"w": np.zeros(1)}
    adamw_step(params, grads, OptimizerState(), lr=0.1, weight_decay=0.1,
               decay_keys={"w"})
    assert params["w"][0] == pytest.approx(0.99, abs=1e-12)


def test_adamw_exempt_keys_not_decayed():
    params = {"gamma0": np.array([1.0])}
    grads = {"gamma0": np.zeros(1)}
    adamw_step(params, grads, OptimizerState(), lr=0.1, weight_decay=0.1,
               decay_keys={"w0"})
    assert params["gamma0"][0] == 1.0


# ---------------------------------------------------------------------------
# Forward oracles


def test_forward_d1_matches_dense_affine_oracle():
    rng = np.random.default_rng(0)
    model = make_model([3], fan_in=2, degree=1, input_count=4)
    x = rng.normal(size=(8, 4))
    logits, _ = forward(model, x, training=False, quant_bypass=True)
    mask = model.masks[0]
    w = model.params[0].weights  # (3, 3): [bias, w1, w2] per neuron
    expected = np.empty((8, 3))
    for i in range(3):
        expected[:, i] = w[i, 0] + x[:, mask[i]] @ w[i, 1:]
    assert np.allclose(logits, expected, atol=1e-12)


def test_forward_product_neuron():
    model = make_model([1], fan_in=2, degree=2, input_count=2)
    # basis order (2,2): 1, x0, x1, x0^2, x0*x1, x1^2 -> pick the cross term
    model.params[0].weights[:] = 0.0
    model.params[0].weights[0, 4] = 1.0
    x = np.array([[2.0, 3.0], [0.5, -4.0], [0.0, 7.0]])
    logits, _ = forward(model, x, training=False, quant_bypass=True)
    assert np.allclose(logits[:, 0], x[:, 0] * x[:, 1], atol=1e-12)


def test_forward_rejects_bad_batch_shape():
    model = make_model([2], fan_in=2, degree=1, input_count=3)
    with pytest.raises(ValueError):
        forward(model, np.zeros((4, 5)))


def test_forward_nonfinite_names_layer():
    model = make_model([2], fan_in=2, degree=1, input_count=2)
    model.params[0].weights[:] = np.inf
    with pytest.raises(FloatingPointError, match="layer 0"):
        forward(model, np.ones((2, 2)), quant_bypass=True)


# ---------------------------------------------------------------------------
# Backward


def test_backward_zero_upstream():
    rng = np.random.default_rng(1)
    model = make_model([4, 2], fan_in=2, degree=2, input_count=3)
    x = rng.normal(size=(6, 3))
    _, caches = forward(model, x, training=True)
    grads = backward(model, caches, np.zeros((6, 2)))
    for g in grads.values():
        assert np.all(np.asarray(g) == 0.0)


def test_backward_shape_mismatch():
    model = make_model([2], fan_in=2, degree=1, input_count=2)
    x = np.array([[0.5, -0.5], [-0.25, 0.75], [1.0, 0.0]])  # batch variance > 0
    _, caches = forward(model, x)
    with pytest.raises(ValueError):
        backward(model, caches, np.zeros((3, 5)))


def test_forward_nonfinite_batch_norm_names_layer():
    # a constant batch has variance 0; with eps == 0 batch norm divides by 0
    model = make_model([2, 2], fan_in=2, degree=1, input_count=2)
    with pytest.raises(FloatingPointError, match="layer 0"):
        forward(model, np.zeros((3, 2)))


def test_backward_matches_logistic_regression():
    rng = np.random.default_rng(2)
    model = make_model([1], fan_in=2, degree=1, input_count=2)
    x = rng.normal(size=(16, 2))
    y = rng.integers(0, 2, 16)
    logits, caches = forward(model, x, training=False, quant_bypass=True)
    loss, dlogits = bce_logit(logits, y)
    grads = backward(model, caches, dlogits)
    # closed-form logistic gradient on the [1, x0, x1] design matrix
    mask = model.masks[0][0]
    design = np.column_stack([np.ones(16), x[:, mask]])
    sig = 1.0 / (1.0 + np.exp(-logits[:, 0]))
    oracle = design.T @ (sig - y) / 16.0
    assert np.allclose(grads["w0"][0], oracle, atol=1e-12)


def test_unmasked_inputs_do_not_leak():
    rng = np.random.default_rng(3)
    model = make_model([1], fan_in=2, degree=2, input_count=4)
    mask = set(model.masks[0][0].tolist())
    unmasked = [j for j in range(4) if j not in mask]
    assert unmasked  # fan 2 of 4 leaves spare features
    x = rng.normal(size=(8, 4))
    x2 = x.copy()
    x2[:, unmasked] += rng.normal(size=(8, len(unmasked)))

    def run(batch):
        logits, caches = forward(model, batch, training=False, quant_bypass=True)
        loss, d = bce_logit(logits, np.zeros(8, dtype=np.int64))
        return logits, backward(model, caches, d)

    la, ga = run(x)
    lb, gb = run(x2)
    assert np.array_equal(la, lb)
    assert np.array_equal(ga["w0"], gb["w0"])


# ---------------------------------------------------------------------------
# Losses


def test_softmax_ce_uniform_logits():
    loss, d = softmax_ce(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
    assert loss == pytest.approx(np.log(3.0))
    assert np.allclose(d.sum(axis=1), 0.0, atol=1e-12)


def test_bce_matches_softmax_structure():
    loss, d = bce_logit(np.zeros((2, 1)), np.array([0, 1]))
    assert loss == pytest.approx(np.log(2.0))
    assert d.shape == (2, 1)
    with pytest.raises(ValueError):
        bce_logit(np.zeros((2, 2)), np.array([0, 1]))


# ---------------------------------------------------------------------------
# Training loop


def spiral_problem(n=100, widths=(8, 2), seed=0):
    ds = gen_spirals(n, noise_sd=0.05, turns=1.5, seed=1)
    tr, te = split_normalize(ds, 0.8, seed=1)
    spec = NetworkSpec(layer_widths=list(widths), beta=4, fan_in=2, degree=3,
                       input_count=2, input_beta=6, seed=seed)
    return init_model(spec), tr, te


def test_train_descends():
    model, tr, te = spiral_problem()
    cfg = TrainConfig(epochs=15, batch_size=64, base_lr=2e-2, min_lr=1e-3,
                      restart_period=15, seed=0)
    trained, history = train(model, tr, te, cfg)
    assert history[-1]["train_loss"] < history[0]["train_loss"]
    assert len(history) == 15
    assert history[0]["lr"] == cfg.base_lr


def test_train_deterministic():
    model, tr, te = spiral_problem()
    cfg = TrainConfig(epochs=4, batch_size=64, seed=3)
    m1, h1 = train(model, tr, te, cfg)
    m2, h2 = train(model, tr, te, cfg)
    assert h1 == h2
    for p1, p2 in zip(m1.params, m2.params):
        assert np.array_equal(p1.weights, p2.weights)
        assert p1.quant_scale == p2.quant_scale
        assert np.array_equal(p1.bn.running_mean, p2.bn.running_mean)


def test_train_does_not_mutate_input_model():
    model, tr, te = spiral_problem()
    before = [p.weights.copy() for p in model.params]
    train(model, tr, te, TrainConfig(epochs=2, batch_size=64))
    for b, p in zip(before, model.params):
        assert np.array_equal(b, p.weights)


def test_d1_linear_reference_bitwise_short():
    # quick version of the strict-generalization check (5 epochs)
    ds = gen_spirals(60, noise_sd=0.05, turns=1.5, seed=1)
    tr, te = split_normalize(ds, 0.8, seed=1)
    spec = NetworkSpec(layer_widths=[6, 2], beta=4, fan_in=2, degree=1,
                       input_count=2, input_beta=6, seed=0)
    cfg = TrainConfig(epochs=5, batch_size=32, seed=0)
    _, h_poly = train(init_model(spec), tr, te, cfg, linear=False)
    _, h_lin = train(init_model(spec), tr, te, cfg, linear=True)
    assert [h["train_loss"] for h in h_poly] == [h["train_loss"] for h in h_lin]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.1, min_lr=0.2)
    with pytest.raises(ValueError):
        TrainConfig(loss_kind="hinge")


def test_training_diverged_carries_epoch():
    e = TrainingDiverged(7)
    assert e.epoch == 7
    assert "epoch 7" in str(e)


def test_history_csv_roundtrip(tmp_path):
    history = [dict(epoch=0, lr=0.02, train_loss=0.6931471805599453,
                    test_accuracy=0.5),
               dict(epoch=1, lr=0.0123456789012345, train_loss=0.25,
                    test_accuracy=0.875)]
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    # repr round-trips floats exactly
    assert float(rows[0]["train_loss"]) == history[0]["train_loss"]
    assert float(rows[1]["lr"]) == history[1]["lr"]
