import weakref

import numpy as np
import numpy.testing as npt
import pytest

from dropgraph import _conv
from dropgraph.backbones import ResidualBlock
from dropgraph.errors import ContractError, DimensionError
from dropgraph.gradcheck import grad_check, relu_margin
from dropgraph.nn import BN_EPS, batchnorm_train, conv2d
from dropgraph.rng import RngStream
from dropgraph.tensor import (
    Tensor,
    _relu_inputs,
    matmul,
    no_grad,
    relu,
    replace_spatial_vectors,
    softmax_rows,
    take_spatial_vectors,
)

RNG = np.random.default_rng(20240301)


def away_from_zero(shape, margin=0.2):
    x = RNG.normal(size=shape)
    return x + np.sign(x) * margin


# -- matmul ------------------------------------------------------------------


def test_matmul_identity():
    b = Tensor(RNG.normal(size=(2, 3)))
    out = matmul(Tensor(np.eye(2)), b)
    npt.assert_array_equal(out.data, b.data)


def test_matmul_zero():
    a = Tensor(RNG.normal(size=(3, 4)))
    out = matmul(a, Tensor(np.zeros((4, 2))))
    npt.assert_array_equal(out.data, np.zeros((3, 2)))


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    npt.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_brute_force_oracle():
    for _ in range(20):
        m, k, n = RNG.integers(1, 6, size=3)
        a = RNG.normal(size=(m, k))
        b = RNG.normal(size=(k, n))
        want = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                for l in range(k):
                    want[i, j] += a[i, l] * b[l, j]
        got = matmul(Tensor(a), Tensor(b)).data
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_linearity():
    a = RNG.normal(size=(4, 5))
    b = RNG.normal(size=(4, 5))
    c = RNG.normal(size=(5, 3))
    lhs = matmul(Tensor(a + b), Tensor(c)).data
    rhs = matmul(Tensor(a), Tensor(c)).data + matmul(Tensor(b), Tensor(c)).data
    npt.assert_allclose(lhs, rhs, rtol=1e-10)


# -- softmax ------------------------------------------------------------------


def test_softmax_symmetry():
    out = softmax_rows(Tensor([[0.0, 0.0]]))
    npt.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_constant_row():
    for c in (-3.0, 0.0, 7.5):
        out = softmax_rows(Tensor([[c, c, c]]))
        npt.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)


def test_softmax_frozen_values():
    # exp-normalize of [1,2,3] evaluated at 30 significant digits
    out = softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
    want = [0.090030573170380457998, 0.24472847105479765247, 0.66524095577482188953]
    npt.assert_allclose(out.data[0], want, rtol=1e-14)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    for _ in range(50):
        a = RNG.normal(size=(4, 6)) * 10
        y = softmax_rows(Tensor(a)).data
        npt.assert_allclose(y.sum(axis=1), np.ones(4), atol=1e-12)
        assert (y >= 0).all()
        shifted = softmax_rows(Tensor(a + RNG.normal() * np.ones((4, 6)))).data
        npt.assert_allclose(y, shifted, atol=1e-10)


def test_softmax_large_values_stay_finite():
    y = softmax_rows(Tensor([[1e4, -1e4, 0.0]])).data
    assert np.isfinite(y).all()


# -- backward -----------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.array([1.0, 5.0, -2.0]), requires_grad=True)
    x.sum().backward()
    npt.assert_array_equal(x.grad, np.ones(3))


def test_backward_square_sum():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (x * x).sum().backward()
    npt.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2).backward()


def test_backward_accumulates_without_reset():
    x = Tensor(np.array([3.0]), requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    npt.assert_array_equal(x.grad, 2 * first)


def _tape(root):
    """Every node reachable from ``root``'s node through tape parents."""
    seen, nodes, stack = set(), [], [root._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _backward_releasing(root):
    """Run ``root.backward()``; assert it released every interior node and return the leaf nodes."""
    nodes = _tape(root)
    interior = [n for n in nodes if n._op != "leaf"]
    assert interior and all(n._backward is not None for n in interior)
    root.backward()
    for n in interior:
        assert n.grad is None and n._parents == () and n._backward is None, n._op
    return [n for n in nodes if n._op == "leaf"]


def test_backward_keeps_grads_of_a_leaf_used_twice():
    w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    assert _backward_releasing(matmul(w, w).sum()) == [w._node]
    # d sum(W W) / dW = 1 W^T + W^T 1 with 1 the all-ones matrix.
    npt.assert_array_equal(w.grad, [[7.0, 11.0], [9.0, 13.0]])


def test_backward_releases_an_interior_node_used_twice():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    h = x * x
    assert _backward_releasing((h + h).sum()) == [x._node]
    npt.assert_array_equal(x.grad, [4.0, 8.0, 12.0])


def test_backward_through_a_residual_skip():
    block = ResidualBlock(4, 4, 1, RngStream(31))
    data = RNG.normal(size=(2, 4, 5, 5))
    x = Tensor(data, requires_grad=True)
    leaves = _backward_releasing(block(x, RngStream(32), None).sum())
    assert {id(n) for n in leaves} == {id(x._node)} | {id(p._node) for p in block.parameters()}
    skipped = x.grad
    params = [p.grad for p in block.parameters()]
    # The main branch alone: the identity skip adds exactly 1 to the input's gradient.
    block.zero_grad()
    x = Tensor(data, requires_grad=True)
    relu(block.conv2(relu(block.conv1(x)))).sum().backward()
    npt.assert_array_equal(skipped, x.grad + 1.0)
    for got, want in zip(params, [p.grad for p in block.parameters()]):
        npt.assert_array_equal(got, want)


def test_second_backward_through_a_consumed_node_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = x * x
    first, second = h.sum(), (h * 3.0).sum()
    first.backward()
    for root in (first, second):
        with pytest.raises(ContractError, match="already consumed by backward"):
            root.backward()
    npt.assert_array_equal(x.grad, [2.0, 4.0])  # the refused calls added nothing


def test_a_consumed_node_met_only_as_a_parent_raises_before_any_closure_runs():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = relu(x)
    h.sum().backward()
    later = (h * 3.0).sum()  # a live root over a live mul whose parent h is consumed
    live = [n for n in _tape(later) if n is not h._node and n._op != "leaf"]
    with pytest.raises(ContractError, match="'relu' node was already consumed"):
        later.backward()
    assert [n._op for n in live] == ["sum", "mul"]
    assert all(n._backward is not None and n.grad is None for n in live)
    npt.assert_array_equal(x.grad, [1.0, 1.0])


def test_backward_on_a_scalar_leaf_sets_its_gradient_to_one():
    x = Tensor(np.array(3.0), requires_grad=True)
    x.backward()
    assert x.grad.shape == () and x.grad == 1.0


# Three consumers of one node contribute 1e16, 1.0 and -1e16 to its gradient;
# the float64 sum is 1.0 only if 1.0 is added last.  The walk runs closures in
# the reverse of a depth-first post-order that enters a node's parents last one
# first: for ``(a + c) + b`` that is a, c, b, and for ``(b + a) + c`` b, a, c.
# Reverse creation order would give the other value in both.  The records
# contract (byte-identical run records) rests on this order.
@pytest.mark.parametrize("shape, want", [("(a + c) + b", 1.0), ("(b + a) + c", 0.0)])
@pytest.mark.parametrize("interior", [False, True], ids=["leaf", "interior"])
def test_backward_sums_a_node_s_consumers_in_walk_order(shape, want, interior):
    x = Tensor(np.array([2.0]), requires_grad=True)
    h = x * 1.0 if interior else x
    if shape == "(a + c) + b":
        a, b, c = h * 1e16, h * 1.0, h * -1e16
        out = (a + c) + b
    else:
        b, a, c = h * 1.0, h * 1e16, h * -1e16
        out = (b + a) + c
    out.sum().backward()
    npt.assert_array_equal(x.grad, [want])


def test_a_value_no_backward_reads_dies_while_the_tape_lives():
    rng = RngStream(41)
    xd, kd, bd = (rng.child(n).normal(size=s)
                  for n, s in (("x", (2, 3, 6, 6)), ("k", (4, 3, 3, 3)), ("b", (4,))))
    gd, betad = rng.child("gamma").normal(size=4) + 1.0, rng.child("beta").normal(size=4)
    x, kernel, bias, gamma, beta = (Tensor(a.copy(), requires_grad=True)
                                    for a in (xd, kd, bd, gd, betad))
    y = conv2d(x, kernel, bias, stride=1, padding=1)
    z = batchnorm_train(y, gamma, beta)[0]
    r = relu(z)
    out = r.sum()
    conv_out, bn_out, zd = weakref.ref(y.data), weakref.ref(z.data), z.data.copy()
    del y, z
    assert conv_out() is None  # batch norm keeps its centred input, not the conv output
    assert bn_out() is None  # relu keeps its output, not its input
    # Only the tape holds the conv input (read by dw) and relu's output.
    conv_in, relu_out = weakref.ref(x.data), weakref.ref(r.data)
    leaves = [t._node for t in (x, kernel, bias, gamma, beta)]
    del x, r
    assert conv_in() is not None and relu_out() is not None
    out.backward()

    # The same gradients, computed by the formulas the closures apply.
    yd = _conv.conv_forward(xd, kd, 1, 6, 6, 1)
    yd += bd[None, :, None, None]
    mean = np.einsum("ncp->c", yd.reshape(2, 4, -1)) / 72
    xc = yd - mean[:, None, None]
    xc3 = xc.reshape(2, 4, -1)
    inv = 1.0 / np.sqrt(np.einsum("ncp,ncp->c", xc3, xc3) / 72 + BN_EPS)
    scale = gd * inv
    g3 = (np.ones(zd.shape) * (np.maximum(zd, 0.0) > 0.0)).reshape(2, 4, -1)
    g_sum, gxc_sum = np.einsum("ncp->c", g3), np.einsum("ncp,ncp->c", g3, xc3)
    gy = xc * (-inv * inv * gxc_sum / 72)[:, None, None]
    gy += g3.reshape(zd.shape)
    gy *= scale[:, None, None]
    gy -= (scale * g_sum / 72)[:, None, None]
    want = [_conv.conv_dx_full(gy, kd, 1, 1, 6, 6),
            _conv.conv_dw(xd, gy, 1, 3, 1), gy.sum(axis=(0, 2, 3)), gxc_sum * inv, g_sum]
    for node, grad in zip(leaves, want):
        npt.assert_array_equal(node.grad, grad)


def test_grad_shapes_match_values():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    (relu(matmul(x, w)) * 2.0).mean().backward()
    assert x.grad.shape == x.data.shape
    assert w.grad.shape == w.data.shape
    assert np.isfinite(x.grad).all() and np.isfinite(w.grad).all()


# -- grad_check oracle ----------------------------------------------------------


def test_grad_check_linear_is_exact():
    # central differences of a linear map are exact; eps=1e-3 keeps the
    # difference quotient above float cancellation noise
    x = Tensor(RNG.normal(size=(5,)), requires_grad=True)
    assert grad_check(lambda t: t.sum(), x, eps=1e-3) <= 1e-12


def test_grad_check_relu_away_from_kink():
    x = Tensor(away_from_zero((7,)), requires_grad=True)
    assert grad_check(lambda t: relu(t).sum(), x, eps=1e-5) <= 1e-6


@pytest.mark.parametrize("layout", ["strided", "fortran"])
def test_grad_check_perturbs_a_non_contiguous_x_in_place(layout):
    base = RNG.normal(size=(4, 6))
    data = base[:, ::2] if layout == "strided" else np.asfortranarray(base[:, :3])
    assert not data.flags.c_contiguous

    def error(values):
        return grad_check(lambda t: (t * t).sum(), Tensor(values, requires_grad=True))

    assert error(data) < 1e-8
    assert abs(error(data) - error(np.ascontiguousarray(data))) < 1e-8


def test_grad_check_eps_bounds():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda t: t.sum(), x, eps=1e-2)


def test_grad_check_rejects_non_scalar():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda t: t * 2, x)


@pytest.mark.parametrize(
    "name,f",
    [
        ("add", lambda t: (t + t * 0.5 + 1.0).sum()),
        ("mul", lambda t: (t * t).mean()),
        ("div", lambda t: (t / 2.5).sum()),
        ("pow", lambda t: ((t * t + 1.0) ** 1.5).sum()),
        ("relu", lambda t: relu(t).sum()),
        ("mean_axis", lambda t: t.mean(axis=0).sum()),
        ("sum_keepdims", lambda t: (t.sum(axis=1, keepdims=True) * t).sum()),
        ("reshape", lambda t: (t.reshape(6) * np.arange(6.0)).sum()),
        ("transpose", lambda t: (t.transpose() * 1.5).sum()),
        ("softmax", lambda t: (softmax_rows(t) ** 2).sum()),
    ],
)
def test_primitive_gradients(name, f):
    for _ in range(20):
        x = Tensor(away_from_zero((2, 3)), requires_grad=True)
        assert grad_check(f, x) <= 1e-5, name


def test_gather_scatter_gradients():
    indices = np.array([[0, 2, 1], [1, 0, 3], [1, 3, 2]])
    x = Tensor(RNG.normal(size=(2, 3, 4, 4)), requires_grad=True)
    assert grad_check(lambda t: (take_spatial_vectors(t, indices) ** 2).sum(), x) <= 1e-5
    rows = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    base = Tensor(RNG.normal(size=(2, 3, 4, 4)), requires_grad=True)
    assert grad_check(
        lambda t: (replace_spatial_vectors(base, indices, t) ** 2).sum(), rows
    ) <= 1e-5
    assert grad_check(
        lambda t: (replace_spatial_vectors(t, indices, rows) ** 2).sum(), base
    ) <= 1e-5


def test_relu_margin_reports_the_smallest_nonzero_input():
    x = Tensor(np.array([0.5, -0.003, 2.0, 0.0]), requires_grad=True)
    out, margin = relu_margin(lambda t: relu(relu(t) * 2.0 - 0.9).sum(), x)
    # The second relu's inputs are 0.1, -0.9, 3.1, -0.9; the exact zero of the
    # first is ignored.
    assert margin == 0.003
    npt.assert_allclose(out.data, 3.2)


def test_relu_margin_is_inf_without_a_relu():
    out, margin = relu_margin(lambda t: (t * t).sum(), Tensor(np.arange(3.0)))
    assert margin == np.inf and out.data == 5.0
    assert relu_margin(lambda t: relu(t).sum(), Tensor(np.zeros(3)))[1] == np.inf


def test_relu_margin_restores_the_recorder_it_nests_in():
    def nested(inner_shift, outer_shift):
        def f(t):
            relu_margin(lambda u: relu(u - inner_shift), t)
            return relu(t - outer_shift).sum()  # after the nested call returns
        return relu_margin(f, Tensor(np.array([4.0, 8.0])))[1]

    assert nested(0.0, 3.875) == 0.125  # the outer recorder is back in place
    assert nested(3.875, 0.0) == 0.125  # and got what the nested one saw
    assert _relu_inputs == [None]


def test_no_grad_builds_no_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert not y.requires_grad and y._parents == ()
    y.backward()  # a scalar that needs no gradient: nothing to walk
    assert x.grad is None and y.grad is None


def test_only_a_tensor_that_requires_grad_holds_a_gradient():
    t = Tensor(np.ones(3))
    t.grad = None  # clearing is always allowed
    with pytest.raises(ContractError, match="only a tensor that requires grad"):
        t.grad = np.ones(3)
    assert t.grad is None


# -- rng streams ------------------------------------------------------------------


def test_rng_identical_path_identical_sequence():
    a = RngStream(123, ("layer", 4)).uniform(size=1000)
    b = RngStream(123, ("layer", 4)).uniform(size=1000)
    npt.assert_array_equal(a, b)


def test_rng_child_paths_differ():
    root = RngStream(123)
    a = root.child("mask").uniform(size=1000)
    b = root.child("vertices").uniform(size=1000)
    assert not np.array_equal(a, b)
    # crude independence: correlation of independent streams is near zero
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_rng_draw_sequence_is_stateful():
    s = RngStream(9, ("x",))
    first = s.uniform(size=10)
    second = s.uniform(size=10)
    assert not np.array_equal(first, second)
    replay = RngStream(9, ("x",))
    npt.assert_array_equal(first, replay.uniform(size=10))
    npt.assert_array_equal(second, replay.uniform(size=10))


@pytest.mark.parametrize("base, labels", [
    ((), ("mask",)),
    ((), (3,)),
    (("step", 4), (np.int64(7), "flip")),
    (("layer", np.int32(2)), ("vertices", 0, "x")),
])
def test_rng_child_draws_equal_the_full_path_draws(base, labels):
    child = RngStream(11, base).child(*labels)
    full = RngStream(11, base + labels)
    assert child.path == full.path
    npt.assert_array_equal(child.uniform(size=20), full.uniform(size=20))
    nested = RngStream(11, base).child(*labels[:1]).child(*labels[1:])
    npt.assert_array_equal(nested.normal(size=5), RngStream(11, base + labels).normal(size=5))


def test_rng_seed_must_be_non_negative():
    # SeedSequence refuses a negative seed only when the first draw builds the stream.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        RngStream(-1)
    assert RngStream(0).uniform(size=2).shape == (2,)


def test_rng_int_labels_must_fit_32_bits():
    # SeedSequence splits a larger int into 32-bit words: 2**32 + 5 would alias (5, 1).
    with pytest.raises(ValueError, match="2\\*\\*32"):
        RngStream(7, ("step", 2**32 + 5))
    with pytest.raises(ValueError):
        RngStream(7).child("step", np.uint64(2**32))
    with pytest.raises(ValueError):
        RngStream(7, ("step", -1))
    top = RngStream(7, ("step", 2**32 - 1))
    assert top.path[-1] == 2**32 - 1 and top.uniform(size=3).shape == (3,)
    npt.assert_array_equal(RngStream(7, ("step", np.int64(5))).uniform(size=4),
                           RngStream(7, ("step", 5)).uniform(size=4))


def test_rng_string_labels_stable():
    assert RngStream(1).child("mask").path == RngStream(1).child("mask").path


def test_operations_deterministic():
    def build(seed):
        r = RngStream(seed, ("w",))
        a = Tensor(r.normal(size=(8, 8)), requires_grad=True)
        out = (softmax_rows(matmul(a, a.transpose())) * 3.0).sum()
        out.backward()
        return out.data.copy(), a.grad.copy()

    o1, g1 = build(5)
    o2, g2 = build(5)
    npt.assert_array_equal(o1, o2)
    npt.assert_array_equal(g1, g2)


# -- stacked matmul and masked softmax ------------------------------------------


def test_matmul_stacks_match_the_per_matrix_products():
    a = RNG.normal(size=(3, 4, 5))
    b = RNG.normal(size=(3, 5, 2))
    w = RNG.normal(size=(5, 2))
    m = RNG.normal(size=(4, 4))
    npt.assert_allclose(matmul(Tensor(a), Tensor(b)).data,
                        np.stack([a[i] @ b[i] for i in range(3)]), rtol=1e-13)
    npt.assert_allclose(matmul(Tensor(a), Tensor(w)).data,
                        np.stack([a[i] @ w for i in range(3)]), rtol=1e-13)
    npt.assert_allclose(matmul(Tensor(m), Tensor(a)).data,
                        np.stack([m @ a[i] for i in range(3)]), rtol=1e-13)


def test_matmul_stack_gradients_sum_over_broadcast_dims():
    a = Tensor(RNG.normal(size=(3, 4, 5)))
    b = Tensor(RNG.normal(size=(3, 5, 2)))
    w = Tensor(RNG.normal(size=(5, 2)))
    m = Tensor(RNG.normal(size=(4, 4)))
    probe = RNG.normal(size=(3, 4, 2))
    assert grad_check(lambda t: (matmul(t, b) * probe).sum(), a) <= 1e-8
    assert grad_check(lambda t: (matmul(a, t) * probe).sum(), b) <= 1e-8
    # A 2-D weight shared by the stack: its gradient sums over the stack.
    assert grad_check(lambda t: (matmul(a, t) * probe).sum(), w) <= 1e-8
    assert grad_check(lambda t: (matmul(t, w) ** 2).sum(), a) <= 1e-6
    assert grad_check(lambda t: (matmul(t, a) ** 2).sum(), m) <= 1e-6
    assert grad_check(lambda t: (matmul(m, t) ** 2).sum(), a) <= 1e-6


def test_matmul_rejects_vectors():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_masked_softmax_pads_get_zero_probability_and_gradient():
    a = RNG.normal(size=(2, 3, 4)) * 3
    a[0, :, 3] = 1e6  # huge pad entries must not matter
    mask = np.ones((2, 3, 4), dtype=bool)
    mask[0, :, 3] = False
    mask[1, 2, :] = False  # a fully padded row
    t = Tensor(a, requires_grad=True)
    y = softmax_rows(t, mask)
    assert np.isfinite(y.data).all()
    npt.assert_array_equal(y.data[~mask], 0.0)
    npt.assert_allclose(y.data[0, :, :3], softmax_rows(Tensor(a[0, :, :3])).data, rtol=1e-14)
    npt.assert_allclose(y.data[1, :2], softmax_rows(Tensor(a[1, :2])).data, rtol=1e-14)
    probe = RNG.normal(size=a.shape)
    (y * probe).sum().backward()
    assert np.isfinite(t.grad).all()
    npt.assert_array_equal(t.grad[~mask], 0.0)
    assert grad_check(lambda u: ((softmax_rows(u, mask) * probe) ** 2).sum(),
                      Tensor(np.where(mask, a, 0.3))) <= 1e-6


def test_unmasked_softmax_is_unchanged_by_an_all_true_mask():
    a = RNG.normal(size=(3, 5))
    npt.assert_array_equal(softmax_rows(Tensor(a), np.ones((3, 5), dtype=bool)).data,
                           softmax_rows(Tensor(a)).data)


def test_gather_scatter_with_valid_entries():
    indices = np.array([[0, 2, 1], [1, 0, 3], [1, 3, 2]])
    valid = np.array([[True, False], [True, True]])  # slot (0, 1) is padding
    x = Tensor(RNG.normal(size=(2, 3, 4, 4)))
    rows = take_spatial_vectors(x, indices, valid=valid)
    npt.assert_array_equal(rows.data[0, 1], 0.0)
    npt.assert_array_equal(rows.data[1, 1], x.data[1, :, 3, 2])
    assert grad_check(lambda t: (take_spatial_vectors(t, indices, valid=valid) ** 2).sum(),
                      x) <= 1e-5
    new = Tensor(RNG.normal(size=(2, 2, 3)))
    out = replace_spatial_vectors(x, indices, new, valid=valid)
    npt.assert_array_equal(out.data[0, :, 0, 0], x.data[0, :, 0, 0])  # pad slot not written
    npt.assert_array_equal(out.data[1, :, 0, 3], new.data[1, 0])
    assert grad_check(lambda t: (replace_spatial_vectors(x, indices, t, valid=valid) ** 2)
                      .sum(), new) <= 1e-5
    assert grad_check(lambda t: (replace_spatial_vectors(t, indices, new, valid=valid) ** 2)
                      .sum(), x) <= 1e-5
