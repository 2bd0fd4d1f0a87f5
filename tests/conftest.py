"""Shared fixtures.

linear_reference swaps the trainer's basis expansion for an explicit bias +
linear map: the linear neuron of LogicNets, which a degree-1 polynomial
neuron must reproduce bit for bit (acceptance criterion 2).

lifted_guard_checkpoint is a checkpoint whose tables would exceed the
enumeration guard.
"""

import contextlib

import numpy as np
import pytest

import lutc.trainer
from lutc.model import NetworkSpec, init_model, save_checkpoint


def _bias_and_inputs(xg, basis):
    """[1, x_0, ..., x_{F-1}] of xg (..., F), term-major like expand's
    result: a C-contiguous (F + 1, ...) array."""
    assert basis.degree == 1, "the linear reference is a degree-1 map"
    xg = np.asarray(xg, dtype=np.float64)
    terms = np.empty((xg.shape[-1] + 1,) + xg.shape[:-1])
    terms[0], terms[1:] = 1.0, np.moveaxis(xg, -1, 0)
    return terms


def _input_gradient(terms, w, dz, basis):
    """The gradient of the inputs of a bias + linear map: each input's
    own term gradient w.T * dz, the bias's dropped, on the last axis."""
    return np.moveaxis(w.T[1:, None, :] * dz, 0, -1)


@pytest.fixture
def linear_reference(monkeypatch):
    """A context manager that trains through the bias + linear map in
    place of lutc.trainer's expand and expand_vjp, yielding a dict that
    counts each stand-in's calls."""

    @contextlib.contextmanager
    def use():
        calls = dict(expand=0, expand_vjp=0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(lutc.trainer, "expand", counted("expand", _bias_and_inputs))
            patch.setattr(lutc.trainer, "expand_vjp",
                          counted("expand_vjp", _input_gradient))
            yield calls

    return use


@pytest.fixture
def lifted_guard_checkpoint(tmp_path):
    """A one-neuron checkpoint of 8-bit codes and fan-in 4, so 32 address
    bits, whose scalars carry a guard of 40 bits.  No valid spec has it, so
    a valid checkpoint's arrays are edited and written with np.savez."""
    path = tmp_path / "lifted_guard.npz"
    save_checkpoint(init_model(NetworkSpec(layer_widths=(1,), beta=2, fan_in=4, degree=1,
                                           input_count=4)), path)
    with np.load(path) as z:
        arrays = {k: z[k].copy() for k in z.files}
    arrays["scalars"][[0, 7]] = 8, 40  # beta, guard
    np.savez(path, **arrays)
    return path
