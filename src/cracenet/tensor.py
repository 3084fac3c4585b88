"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value in this package is carried by a :class:`Tensor`: a contiguous
row-major float64 array, an optional gradient of the same shape, and the
graph :class:`Node` of the operation that produced it.  A node holds its
parents' nodes and a backward rule, never a tensor's value: each rule
captures only the arrays, shapes and flags it reads (PyTorch's "saved
tensors", Paszke et al., 2017).  So an intermediate that no rule reads,
such as the result of a sum or a product whose operands are kept anyway,
is freed as soon as the forward code drops the tensor.  :func:`backward`
walks the node DAG exactly once in reverse topological order and
accumulates d(loss)/d(x) into the ``grad`` of every *leaf* that requires
gradients (a tensor made by the caller, not by an op, such as a
parameter).  Interior nodes pass their upstream gradient on and keep no
``grad``.  The walk consumes the graph, as PyTorch's autograd does by
default: each node's rule is dropped as the walk reaches it, so the arrays
it captured are freed during backward rather than when the caller lets go
of the loss, and a second walk of the same graph raises :class:`GraphError`.

Inference needs no graph.  Inside ``with no_grad():`` every op computes
its result as usual but records no node, so the result does not require
gradients and the intermediates are freed as soon as nothing refers to
them.  The block nests and restores the previous state on exit,
exceptions included.  The state lives in a
:class:`contextvars.ContextVar`, so it is per thread: a ``no_grad`` block
on one thread leaves graphs recorded on other threads untouched.

The op set is what the package uses: broadcasting arithmetic, ``relu``,
``sigmoid``, sums and means, channel concatenation, padding and cropping.
A composite with a closed-form gradient records one node of its own
through :func:`make_node` instead of a chain of these (batch norm, with or
without a following ReLU, and convolution in ``layers``; BCE and soft IoU
in ``losses``), so it keeps no intermediate arrays in the graph.  ReLU has
one in-place kernel, ``_relu_``, which ``relu`` and the batch-norm node
share.  Only ``sigmoid``'s backward departs from plain IEEE arithmetic: it
flushes subnormal results to zero.  A caller may mark a recorded result
whose data backward can recompute exactly from arrays the graph keeps
anyway (``Tensor._rebuild``, a ``layers._Rebuild``); the convolution or
pooled reduction that reads it then keeps that recipe, not the array.

Tensors are immutable after creation except for their ``grad`` field.  A
graph and its tensors are confined to one thread for the duration of a
forward/backward pass; independent graphs may live on separate threads.
All reductions use numpy's fixed deterministic order, so identical seeds
and op sequences reproduce bit-identical data and gradients.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GraphError",
    "Node",
    "ShapeError",
    "as_tensor",
    "backward",
    "concat_channels",
    "crop2d",
    "make_node",
    "no_grad",
    "pad_bottom_right",
    "relu",
    "sigmoid",
    "zero_grads",
]

# Smallest/largest values sigmoid may emit: the open interval (0, 1) is a
# hard contract even for saturating inputs.
_SIG_LO = np.finfo(np.float64).tiny
_SIG_HI = float(np.nextafter(1.0, 0.0))


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


class GraphError(RuntimeError):
    """The autodiff graph was used outside its contract."""


class Node:
    """One vertex of the autodiff graph: what ``backward`` needs, no values.

    ``parents`` has one entry per input of the recorded op: the input's
    node, or None for an input that needs no gradient.  ``backward_fn``
    maps the upstream gradient to one gradient per input and holds only
    the arrays, shapes and flags it reads; once :func:`backward` has
    walked the node, it is a sentinel that raises :class:`GraphError`,
    and those arrays are gone.  A leaf's node has no parents
    and no rule; ``leaf`` is a weak reference to the tensor whose ``grad``
    receives its gradient, and is None on every other node.  It is weak
    so that a leaf and its node form no reference cycle: a dropped model's
    parameters are freed at once, not at the next cyclic collection.
    """

    __slots__ = ("parents", "backward_fn", "leaf")

    def __init__(self, parents: tuple, backward_fn, leaf: weakref.ref | None = None):
        self.parents = parents
        self.backward_fn = backward_fn
        self.leaf = leaf


class Tensor:
    """N-dimensional float64 array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "_rebuild", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # The op that made this tensor, or a leaf's node once an op used it.
        self._node: Node | None = None
        # How backward rebuilds ``data`` instead of keeping it, on a recorded
        # result the caller marked (``layers._Rebuild``); None otherwise.
        self._rebuild = None

    @property
    def _backward(self):
        """The backward rule of the op that made this tensor (None on a
        leaf or an unrecorded result); assigning it replaces the rule."""
        return self._node.backward_fn if self._node is not None else None

    @_backward.setter
    def _backward(self, fn) -> None:
        if self._node is None or self._node.leaf is not None:
            raise GraphError("only a recorded op's tensor has a backward rule")
        self._node.backward_fn = fn

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.shape

        def bwd(g):
            return (np.ascontiguousarray(g).reshape(src),)

        return make_node(self.data.reshape(shape), (self,), bwd)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))

        def bwd(g):
            return (g.transpose(inv),)

        return make_node(self.data.transpose(axes), (self,), bwd)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


_recording: ContextVar[bool] = ContextVar("cracenet_recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block (see the module docstring)."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _node_of(t: Tensor) -> Node | None:
    """``t``'s graph node, made on first use for a leaf; None for a tensor
    that needs no gradient."""
    if not t.requires_grad:
        return None
    if t._node is None:
        t._node = Node((), None, weakref.ref(t))
    return t._node


def make_node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Wrap a forward result, recording its parents' nodes and a backward rule.

    ``backward_fn(upstream)`` must return one gradient array (or None) per
    parent.  Returned arrays may alias ``upstream``; the backward pass never
    mutates them in place.  The rule must capture the arrays, shapes and
    flags it reads and never a ``Tensor``: the graph keeps the parents'
    nodes, not their values.  Under :func:`no_grad` nothing is recorded.
    """
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = Node(tuple(_node_of(p) for p in parents), backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise binary ops --------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return make_node(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return make_node(a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    ad, bd = a.data, b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g * bd, sa), _unbroadcast(g * ad, sb)

    return make_node(ad * bd, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "div")
    ad, bd = a.data, b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (
            _unbroadcast(g / bd, sa),
            _unbroadcast(-g * ad / (bd * bd), sb),
        )

    return make_node(ad / bd, (a, b), bwd)


def power(a, p) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    ad = a.data

    def bwd(g):
        return (g * p * ad ** (p - 1.0),)

    return make_node(ad**p, (a,), bwd)


# -- elementwise unary ops ---------------------------------------------


def sigmoid(x) -> Tensor:
    """Numerically stable logistic; outputs are strictly inside (0, 1).

    The backward flushes results below ``finfo.tiny`` in magnitude to
    zero: a saturated output times a small upstream would otherwise feed
    subnormals, which are slow on most CPUs, to everything upstream."""
    x = as_tensor(x)
    xd = x.data
    # exp(-|x|) never overflows; the minimum keeps a NaN's sign bit.
    e = np.exp(np.minimum(xd, -xd))
    d = 1.0 + e
    y = np.where(xd >= 0, 1.0 / d, e / d)
    np.clip(y, _SIG_LO, _SIG_HI, out=y)

    def bwd(g):
        gx = g * y * (1.0 - y)
        gx *= np.abs(gx) >= _SIG_LO
        return (gx,)

    return make_node(y, (x,), bwd)


def _relu_(a: np.ndarray) -> np.ndarray:
    """ReLU of ``a`` in place: everything not > 0, NaN and -0.0 too, is +0.0.

    The package's one ReLU formula, byte-equal to ``np.where(a > 0, a, 0.0)``:
    ``fmax`` maps NaN and negatives to 0 and adding +0.0 turns -0.0 into +0.0.
    Its gradient mask is the output's ``> 0``."""
    np.fmax(a, 0.0, out=a)
    a += 0.0
    return a


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = _relu_(x.data.copy())

    def bwd(g):
        return (g * (out > 0),)

    return make_node(out, (x,), bwd)


# -- reductions ---------------------------------------------------------


def _restore_axes(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not keepdims:
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape)


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    shape = x.shape

    def bwd(g):
        return (_restore_axes(g, shape, axis, keepdims),)

    return make_node(x.data.sum(axis=axis, keepdims=keepdims), (x,), bwd)


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    shape = x.shape
    if axis is None:
        count = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= shape[ax]
    inv = 1.0 / count

    def bwd(g):
        return (_restore_axes(g * inv, shape, axis, keepdims),)

    return make_node(x.data.mean(axis=axis, keepdims=keepdims), (x,), bwd)


# -- concatenation and 2-D padding/cropping -----------------------------


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 4-D feature maps along the channel axis."""
    ts = [as_tensor(t) for t in tensors]
    if not ts or any(t.ndim != 4 for t in ts):
        raise ShapeError("concat_channels expects one or more (B, C, H, W) tensors")
    base = ts[0].shape
    for t in ts[1:]:
        if t.shape[:1] + t.shape[2:] != base[:1] + base[2:]:
            raise ShapeError(f"concat_channels: {base} and {t.shape} differ off the channel axis")
    offsets = np.cumsum([0] + [t.shape[1] for t in ts])

    def bwd(g):
        return tuple(g[:, a:b] for a, b in zip(offsets[:-1], offsets[1:]))

    return make_node(np.concatenate([t.data for t in ts], axis=1), tuple(ts), bwd)


def pad_bottom_right(x: Tensor, pad_h: int, pad_w: int) -> Tensor:
    """Zero-pad the bottom/right spatial edges of a (B, C, H, W) tensor."""
    x = as_tensor(x)
    if pad_h == 0 and pad_w == 0:
        return x
    B, C, H, W = x.shape

    def bwd(g):
        return (g[:, :, :H, :W],)

    data = np.zeros((B, C, H + pad_h, W + pad_w))
    data[:, :, :H, :W] = x.data
    return make_node(data, (x,), bwd)


def crop2d(x: Tensor, height: int, width: int) -> Tensor:
    """Keep the top-left height x width window of a (B, C, H, W) tensor."""
    x = as_tensor(x)
    B, C, H, W = x.shape
    if height == H and width == W:
        return x

    def bwd(g):
        out = np.zeros((B, C, H, W))
        out[:, :, :height, :width] = g
        return (out,)

    return make_node(np.ascontiguousarray(x.data[:, :, :height, :width]), (x,), bwd)


# -- backward pass -------------------------------------------------------


def zero_grads(tensors: Iterable[Tensor]) -> None:
    """Reset gradients to zero arrays.

    :func:`backward` then adds each leaf's gradient to its array as
    ``grad = grad + g``, a new array, never in place; a leaf whose ``grad``
    is None gets the gradient itself.  The trainer does not call this: it
    sets every parameter's ``grad`` to None before a step's forward, so no
    gradient lives through it, and gives zeros after ``backward`` to the
    parameters it did not reach."""
    for t in tensors:
        t.grad = np.zeros_like(t.data)


def _walked(upstream):
    """The rule of every node :func:`backward` has walked."""
    raise GraphError("graph already walked")


def backward(loss: Tensor) -> None:
    """Populate d(loss)/dx for every leaf reachable from ``loss``.

    ``loss`` must be a scalar (size 1).  Only leaves (tensors without a
    backward rule) receive ``grad``; interior nodes keep none.  Gradients
    add up across calls: a leaf that already holds a ``grad`` gets
    ``grad + g``, until :func:`zero_grads` or the caller resets it.

    A graph is walked once.  As each interior node is visited, its rule is
    replaced by a sentinel and its upstream array is dropped, so every
    array a rule captured is freed as soon as its last reader has run,
    even while the caller still holds ``loss``.  Calling ``backward`` again
    on a graph that shares any interior node with a walked one raises
    :class:`GraphError` before any ``grad`` changes; to differentiate
    again, run the forward again.  Leaves are not part of the walk and may
    feed any number of graphs.
    """
    if not isinstance(loss, Tensor):
        raise GraphError("backward expects a Tensor")
    if loss.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = _node_of(loss)
    if root is None:
        return

    # Iterative post-order DFS: parents land before children, so the
    # reversed order visits each node exactly once with its full upstream.
    order: list[Node] = []
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        if node.backward_fn is _walked:
            raise GraphError("graph already walked")
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p is not None and p not in seen:
                stack.append((p, False))

    upstream: dict[Node, np.ndarray] = {root: np.ones_like(loss.data)}
    # Nodes whose upstream array this loop allocated.  Only those are added
    # into in place: an array a backward rule returned may alias its own
    # upstream, another parent's entry or a captured value.
    owned: set[Node] = set()
    for node in reversed(order):
        g = upstream.pop(node, None)
        rule = node.backward_fn
        if rule is not None:
            node.backward_fn = _walked
        if g is None:
            continue
        fresh = node in owned
        owned.discard(node)
        if rule is None:
            leaf = node.leaf()
            if leaf is None:
                continue
            if leaf.grad is None:
                leaf.grad = g if fresh else g.copy()
            else:
                leaf.grad = leaf.grad + g
            continue
        for parent, pg in zip(node.parents, rule(g)):
            if pg is None or parent is None:
                continue
            if parent in owned:
                upstream[parent] += pg
            elif parent in upstream:
                upstream[parent] = upstream[parent] + pg
                owned.add(parent)
            else:
                upstream[parent] = pg
