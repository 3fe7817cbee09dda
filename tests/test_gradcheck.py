"""The gradient audit's stacked probes: each slice is the 2-D probe, bit
for bit, and a planted gradient bug fails the audit."""

import numpy as np
import pytest

import tide.autodiff as ad
from tide.autodiff import check_gradients_params
from tide.gradcheck import audit_probe

H = 1e-5


@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_probe_forward_equals_each_2d_probe_bit_for_bit(seed):
    """For every parameter of the probe model, the forward on the stack
    of its probes (slice i moves entry i by +h, slice size + i by -h)
    gives, on every component and every slice, the bits of the 2-D
    forward with that one entry moved. The 2-D forward is the one that
    trains."""
    components, params = audit_probe(seed)
    with ad.no_grad():
        for name, p in params.items():
            orig = p.values
            flat = orig.reshape(-1)
            moved = [(i, flat[i] + step) for step in (H, -H)
                     for i in range(flat.size)]
            stack = np.repeat(orig[None], len(moved), axis=0)
            for k, (i, value) in enumerate(moved):
                stack[k].reshape(-1)[i] = value
            p.values = stack
            try:
                stacked = components(name)
            finally:
                p.values = orig
            # The fused total reads every parameter, so it is a stack.
            assert stacked["tide_total"].values.shape == (len(moved), 1, 1)
            for k, (i, value) in enumerate(moved):
                start = flat[i]
                flat[i] = value
                try:
                    plain = components(name)
                finally:
                    flat[i] = start
                for comp, t in plain.items():
                    got = stacked[comp].values
                    got = got[k] if got.ndim == 3 else got
                    assert got.tobytes() == t.values.tobytes(), (name, k, comp)


def _plant_weight_gradient_bug(monkeypatch, factor):
    """The weight gradient of ``matmul`` (the GCN layers and the joint
    and structure heads) and of ``linear`` (every affine layer), so of
    every weight in the model, scaled by ``factor`` on the tape; the
    forwards are untouched."""
    def planted(real):
        def op(x, W, *bias):
            out = real(x, W, *bias)
            if out.slot is not None and W.requires_grad:
                entry = ad._TAPE[-1]
                fns = list(entry.grad_fns)
                d_w = fns[1]
                fns[1] = lambda g: d_w(g) * factor
                entry.grad_fns = tuple(fns)
            return out
        return op

    for name in ("matmul", "linear"):
        monkeypatch.setattr(ad, name, planted(getattr(ad, name)))


@pytest.mark.parametrize("seed", range(4))
def test_audit_fails_a_planted_weight_gradient_bug(seed, monkeypatch):
    """A weight gradient 0.2% off shows on every component that reads
    the weight, at or above the audit's 1e-3 threshold, where the clean
    audit reads below it; so the stacked probes are paired with their
    entries. (At 0.1% off the error sits on the threshold itself, and
    some pairs read up to 2e-9 below it.)"""
    clean = check_gradients_params(*audit_probe(seed), h=H)
    _plant_weight_gradient_bug(monkeypatch, 1.0 + 2e-3)
    planted = check_gradients_params(*audit_probe(seed), h=H)
    # A component never reads a parameter exactly when its error is 0.
    read = [(comp, name) for comp, errs in clean.items()
            for name, err in errs.items() if name.endswith(".W") and err]
    assert {comp for comp, _ in read} == set(clean)
    assert ("club", "v_enc.mu.W") in read and ("recon", "recon.out.W") in read
    assert ("kl", "z_enc.gcn1.W") in read and ("tide_total", "q_head.W") in read
    for comp, name in read:
        assert clean[comp][name] < 1e-3 <= planted[comp][name], (comp, name)
    for comp, errs in planted.items():  # gradient_check_report's reading
        assert max(errs.values()) >= 1e-3
