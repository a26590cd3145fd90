import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitydescent import diffcore as dc
from densitydescent.errors import NumericError
from densitydescent.oracle import finite_diff_grad


def rand(shape, seed, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def worst_error(fn, wrt, h=1e-4):
    """The largest |g - g_fd| / max(1, |g_fd|) over every coordinate of every
    leaf: ``dc.grad`` of ``fn(*wrt)`` against ``oracle.finite_diff_grad``'s
    central differences, one leaf at a time, the others held."""
    worst = 0.0
    for i, g in enumerate(dc.grad(fn(*wrt), wrt)):
        g_fd = finite_diff_grad(lambda v: float(fn(*wrt[:i], dc.tensor(v), *wrt[i + 1:]).data),
                                wrt[i].data, h)
        worst = max(worst, float((np.abs(g - g_fd) / np.maximum(1.0, np.abs(g_fd))).max()))
    return worst


class TestBasics:
    def test_square_derivative(self):
        x = dc.tensor(3.0)
        g, = dc.grad(x * x, [x])
        assert g == pytest.approx(6.0)

    def test_sum_gradient_is_ones(self):
        x = dc.tensor(rand((4, 3), 0))
        g, = dc.grad(dc.sum(x), [x])
        np.testing.assert_array_equal(g, np.ones((4, 3)))

    def test_logsumexp_of_equal_logits(self):
        x = dc.tensor(np.zeros(2))
        g, = dc.grad(dc.logsumexp(x), [x])
        np.testing.assert_allclose(g, [0.5, 0.5])

    def test_accumulation_across_uses(self):
        x = dc.tensor(rand(5, 1))
        g_twice, = dc.grad(dc.sum(x + x), [x])
        g_once, = dc.grad(dc.sum(x), [x])
        np.testing.assert_array_equal(g_twice, 2.0 * g_once)

    def test_non_scalar_objective_rejected(self):
        x = dc.tensor(rand(3, 2))
        with pytest.raises(ValueError):
            dc.grad(x * x, [x])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_forward_raises(self):
        x = dc.tensor(np.array([1.0, -1.0]))
        with pytest.raises(NumericError):
            dc.grad(dc.sum(dc.log(x)), [x])

    def test_unreachable_leaf_gets_zeros(self):
        x, y = dc.tensor(rand(3, 3)), dc.tensor(rand(3, 4))
        g, = dc.grad(dc.sum(x * x), [y])
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_plain_array_in_wrt_rejected(self):
        # a plain array is never a graph node: its gradient would read as
        # zeros however the objective depends on its values
        w = rand(3, 2)
        x = dc.tensor(w)
        with pytest.raises(TypeError):
            dc.grad(dc.sum(x * x), [x, w])

    def test_determinism(self):
        def run():
            x = dc.tensor(rand((6, 4), 7))
            w = dc.tensor(rand((4, 3), 8))
            out = dc.sum(dc.tanh(dc.matmul(x, w)))
            return float(out.data), dc.grad(out, [x, w])

        v1, (gx1, gw1) = run()
        v2, (gx2, gw2) = run()
        assert v1 == v2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)


class TestFiniteCheck:
    def test_quadratic_is_nearly_exact(self):
        x = dc.tensor(rand(5, 3))
        err = worst_error(lambda t: dc.sum(t * t), [x], h=1e-4)
        assert err < 1e-6

    def test_constant_objective(self):
        x = dc.tensor(rand(4, 5))
        err = worst_error(lambda t: dc.sum(t * 0.0), [x], h=1e-4)
        assert err == 0.0

    def test_coupling_style_nll_objective(self):
        # two-layer conditioner feeding an exp/log chain, d=4
        rng = np.random.default_rng(2)
        w1 = dc.tensor(rng.standard_normal((2, 16)) * 0.5)
        w2 = dc.tensor(rng.standard_normal((16, 4)) * 0.3)
        v = dc.tensor(rng.standard_normal((3, 4)))

        def nll(v_, w1_, w2_):
            va = dc.take_cols(v_, np.arange(2))
            vb = dc.take_cols(v_, np.arange(2, 4))
            raw = dc.matmul(dc.tanh(dc.matmul(va, w1_)), w2_)
            s = dc.take_cols(raw, np.arange(2))
            t = dc.take_cols(raw, np.arange(2, 4))
            z = dc.concat_cols(va, vb * dc.exp(s) + t)
            return dc.sum(z * z) * 0.5 - dc.sum(s)

        assert worst_error(nll, [v, w1, w2], h=1e-4) < 1e-3

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="h must be positive"):
            finite_diff_grad(lambda v: float(v @ v), np.ones(2), h=0.0)


PRIMITIVES = {
    "add": lambda a, b: dc.sum(a + b),
    "sub": lambda a, b: dc.sum(a - b),
    "mul": lambda a, b: dc.sum(a * b),
    "matmul": lambda a, b: dc.sum(dc.matmul(a, b)),
    "tanh": lambda a, b: dc.sum(dc.tanh(a) * dc.tanh(b)),
    "exp": lambda a, b: dc.sum(dc.exp(a)) + dc.sum(dc.exp(b)),
    "log": lambda a, b: dc.sum(dc.log(a + 3.0)),
    "logsumexp_rows": lambda a, b: dc.sum(dc.logsumexp(a, axis=1)),
    "logsumexp_flat": lambda a, b: dc.logsumexp(a),
    "mean": lambda a, b: dc.mean(a) + dc.sum(dc.mean(b, axis=0)),
    "take_concat": lambda a, b: dc.sum(dc.concat_cols(
        dc.take_cols(a, np.array([3, 1])), dc.take_cols(a, np.array([0, 2])))),
}


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), name=st.sampled_from(sorted(PRIMITIVES)))
def test_primitive_gradients_match_central_differences(seed, name):
    a = dc.tensor(rand((4, 4), seed))
    b = dc.tensor(rand((4, 4), seed + 1))
    err = worst_error(PRIMITIVES[name], [a, b], h=1e-4)
    assert err < 1e-4


class TestSoftmaxCrossEntropy:
    def test_matches_manual_value(self):
        logits = dc.tensor(np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]]))
        labels = np.array([1, 2])
        ce = dc.softmax_cross_entropy(logits, labels)
        probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(ce.data, -np.log(probs[[0, 1], labels]))

    def test_gradient_is_softmax_minus_onehot(self):
        logits = dc.tensor(rand((5, 3), 3))
        labels = np.array([0, 2, 1, 1, 0])
        g, = dc.grad(dc.sum(dc.softmax_cross_entropy(logits, labels)), [logits])
        e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        soft[np.arange(5), labels] -= 1.0
        np.testing.assert_allclose(g, soft, atol=1e-12)

    def test_label_out_of_range(self):
        logits = dc.tensor(rand((2, 3), 0))
        with pytest.raises(ValueError):
            dc.softmax_cross_entropy(logits, np.array([0, 3]))


class TestMatmulShapes:
    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2))])
    def test_fd_agreement(self, sa, sb):
        a, b = dc.tensor(rand(sa, 1)), dc.tensor(rand(sb, 2))
        err = worst_error(lambda x, y: dc.sum(dc.matmul(x, y)), [a, b], h=1e-4)
        assert err < 1e-6

    @pytest.mark.parametrize("sa,sb", [((3, 4), (4,)), ((4,), (4, 2)), ((4,), (4,))])
    def test_rejects_1d(self, sa, sb):
        with pytest.raises(ValueError, match="2-D @ 2-D"):
            dc.matmul(dc.tensor(rand(sa, 1)), dc.tensor(rand(sb, 2)))

    def test_rejects_3d(self):
        a = dc.tensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            dc.matmul(a, a)


def test_tape_reverse_order_and_reuse():
    x = dc.tensor(2.0)
    y = x * x        # tid order: x < y
    z = y + x        # z last
    tape = dc.Tape.record(z)
    tids = [n.tid for n in tape.nodes]
    assert tids == sorted(tids)
    g, = dc.grad(z, [x])
    assert g == pytest.approx(5.0)  # 2x + 1
