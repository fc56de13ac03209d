"""Symbolic connectivity calculator for the dense fully-convolutional
segmentation network family.

Builds the layer graph of variants A, B and C and never touches a tensor.
Each node's output shape is worked out from its inputs' shapes as the node
is added, and each node carries its trainable parameter count. Variant A
uses concatenation skip joins and plain up-path dense blocks; B replaces
skips with projection + element-wise addition and adds residual shortcuts
around up-path dense blocks; C additionally opens with parallel 3x3/5x5/7x7
branches fused by concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np


class GraphBuildError(ValueError):
    """Incompatible shapes while building or tracing; names the node."""


@dataclass(frozen=True)
class NetConfig:
    variant: str = "C"
    k: int = 12                       # dense-block growth rate
    f: Optional[int] = None           # initial feature maps; None means 3*k
    poolings: int = 3
    db_layers_down: tuple = (4, 4, 4)
    db_layers_bottleneck: int = 4
    db_layers_up: tuple = (4, 4, 4)
    input_shape: tuple = (1, 128, 128)
    classes: int = 4
    inception_ratio: tuple = (2, 1, 1)  # 3x3 : 5x5 : 7x7 map split

    def __post_init__(self):
        if self.variant not in ("A", "B", "C"):
            raise ValueError(f"variant must be A, B or C, got {self.variant!r}")
        if self.k < 1 or self.poolings < 1 or self.classes < 1:
            raise ValueError("k, poolings and classes must be >= 1")
        if len(self.db_layers_down) != self.poolings or len(self.db_layers_up) != self.poolings:
            raise ValueError("need one dense-block depth per pooling level on each path")
        for name, values in (
            ("f", (self.initial_maps,)), ("db_layers_down", self.db_layers_down),
            ("db_layers_up", self.db_layers_up), ("input_shape", self.input_shape),
            ("db_layers_bottleneck", (self.db_layers_bottleneck,)),
        ):
            if min(values) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        shares = tuple(self.inception_ratio)
        if not (len(shares) == 3 and all(0 <= s < np.inf for s in shares) and sum(shares) > 0):
            raise ValueError("inception_ratio must be three finite shares >= 0 with a positive "
                             f"sum, got {self.inception_ratio!r}")

    @property
    def initial_maps(self) -> int:
        return self.f if self.f is not None else 3 * self.k


@dataclass
class Node:
    id: int
    kind: str            # input/conv/bn/elu/dropout/pool/tconv/concat/add/softmax
    name: str
    out_channels: int
    params: int = 0


@dataclass
class NetGraph:
    nodes: List[Node]
    edges: List[Tuple[int, int]]
    config: NetConfig
    shapes: Dict[int, tuple] = field(default_factory=dict)  # id -> (C, H, W)

    @property
    def total_params(self) -> int:
        return sum(n.params for n in self.nodes)

    def inputs_of(self, node_id: int) -> List[int]:
        return [s for s, d in self.edges if d == node_id]

    @property
    def output_node(self) -> Node:
        return self.nodes[-1]


class _Builder:
    """Appends nodes in topological order; each node's (C, H, W) is known
    as it is added, so the helpers read their input widths from it."""

    def __init__(self, cfg: NetConfig):
        self.cfg = cfg
        self.nodes: List[Node] = []
        self.edges: List[Tuple[int, int]] = []
        self.shapes: Dict[int, tuple] = {}

    def channels(self, node_id: int) -> int:
        return self.shapes[node_id][0]

    def add(self, kind, name, inputs=(), out_channels=None, params=0) -> int:
        """Append a node and its shape. Concat, add and pool derive their
        channels from the inputs; every other kind is given them."""
        srcs = [self.shapes[s] for s in inputs]
        if kind == "input":
            shape = tuple(self.cfg.input_shape)
        elif kind == "concat":
            hw = {s[1:] for s in srcs}
            if len(hw) != 1:
                raise GraphBuildError(f"node {name}: concat inputs differ in H,W: {hw}")
            shape = (sum(s[0] for s in srcs),) + srcs[0][1:]
        elif kind == "add":
            if len(set(srcs)) != 1:
                raise GraphBuildError(f"node {name}: add inputs differ: {srcs}")
            shape = srcs[0]
        elif kind == "pool":
            c, h, w = srcs[0]
            if h % 2 or w % 2:
                raise GraphBuildError(f"node {name}: cannot halve odd spatial dims {h}x{w}")
            shape = (c, h // 2, w // 2)
        elif kind == "tconv":
            shape = (out_channels, srcs[0][1] * 2, srcs[0][2] * 2)
        else:  # conv, bn, elu, dropout, softmax: spatial-preserving
            shape = (out_channels,) + srcs[0][1:]
        node = Node(id=len(self.nodes), kind=kind, name=name,
                    out_channels=shape[0], params=params)
        self.nodes.append(node)
        self.shapes[node.id] = shape
        for src in inputs:
            self.edges.append((src, node.id))
        return node.id

    def conv(self, name, src, c_out, kernel) -> int:
        params = kernel * kernel * self.channels(src) * c_out + c_out
        return self.add("conv", name, (src,), c_out, params)

    def composite_layer(self, name, src, c_out, kernel) -> int:
        """BN -> ELU -> conv(kernel) -> dropout; with kernel 1, the
        channel-matching projection."""
        c_in = self.channels(src)
        x = self.add("bn", f"{name}/bn", (src,), c_in, 2 * c_in)
        x = self.add("elu", f"{name}/elu", (x,), c_in)
        x = self.conv(f"{name}/conv{kernel}x{kernel}", x, c_out, kernel)
        return self.add("dropout", f"{name}/drop", (x,), c_out)

    def dense_block(self, name, src, n_layers) -> int:
        """Iteratively concatenating block; returns the n_layers*k output."""
        layer_outs: List[int] = []
        feed = src
        for i in range(n_layers):
            out = self.composite_layer(f"{name}/layer{i + 1}", feed, self.cfg.k, kernel=3)
            layer_outs.append(out)
            if i < n_layers - 1:
                feed = self.add("concat", f"{name}/cat_in{i + 2}", (feed, out))
        if len(layer_outs) == 1:
            return layer_outs[0]
        return self.add("concat", f"{name}/out", tuple(layer_outs))

    def transition_down(self, name, src) -> int:
        x = self.composite_layer(name, src, self.channels(src), kernel=1)
        return self.add("pool", f"{name}/maxpool2x2", (x,))

    def transition_up(self, name, src) -> int:
        c = self.channels(src)
        return self.add("tconv", f"{name}/tconv3x3s2", (src,), c, 3 * 3 * c * c + c)


def build_graph(cfg: NetConfig) -> NetGraph:
    """Assemble the symbolic graph of one variant with every node's shape."""
    b = _Builder(cfg)
    x = b.add("input", "input")

    if cfg.variant == "C":
        split = _split_by_ratio(cfg.initial_maps, cfg.inception_ratio)
        branches = [
            b.conv(f"stem/branch{kernel}x{kernel}", x, maps, kernel)
            for maps, kernel in zip(split, (3, 5, 7)) if maps > 0
        ]
        x = b.add("concat", "stem/fuse", tuple(branches))
    else:
        x = b.conv("stem/conv3x3", x, cfg.initial_maps, 3)

    skips: List[int] = []
    for level, n_layers in enumerate(cfg.db_layers_down, start=1):
        db = b.dense_block(f"down{level}/db", x, n_layers)
        skips.append(b.add("concat", f"down{level}/cat", (x, db)))
        x = b.transition_down(f"down{level}/td", skips[-1])

    db = b.dense_block("bottleneck/db", x, cfg.db_layers_bottleneck)
    if cfg.variant != "A":
        proj = b.composite_layer("bottleneck/shortcut_proj", x, b.channels(db), kernel=1)
        db = b.add("add", "bottleneck/add", (db, proj))
    x = db

    for level, n_layers in enumerate(cfg.db_layers_up, start=1):
        skip = skips[-level]
        x = b.transition_up(f"up{level}/tu", x)
        if cfg.variant == "A":
            x = b.add("concat", f"up{level}/skip_cat", (x, skip))
            x = b.dense_block(f"up{level}/db", x, n_layers)
        else:
            proj = b.composite_layer(f"up{level}/skip_proj", skip, b.channels(x), kernel=1)
            x = b.add("add", f"up{level}/skip_add", (x, proj))
            db = b.dense_block(f"up{level}/db", x, n_layers)
            shortcut = b.composite_layer(
                f"up{level}/shortcut_proj", x, b.channels(db), kernel=1
            )
            x = b.add("add", f"up{level}/residual_add", (db, shortcut))

    x = b.conv("head/conv1x1", x, cfg.classes, 1)
    b.add("softmax", "head/softmax", (x,), cfg.classes)
    return NetGraph(nodes=b.nodes, edges=b.edges, config=cfg, shapes=b.shapes)


def _split_by_ratio(total: int, ratio) -> List[int]:
    """Largest-remainder split of total maps by the branch ratio."""
    ratio = np.asarray(ratio, dtype=np.float64)
    exact = total * ratio / ratio.sum()
    base = np.floor(exact).astype(int)
    rem = total - base.sum()
    order = np.argsort(-(exact - base), kind="stable")
    for i in range(rem):
        base[order[i]] += 1
    return [int(v) for v in base]


def shape_trace(graph: NetGraph, input_shape) -> Dict[int, tuple]:
    """Every node's (C, H, W) for another input size; validates pooling.

    Node ids do not depend on H x W, so these are the shapes of the
    graph's config rebuilt at that size.
    """
    c0, h, w = input_shape
    if c0 != graph.config.input_shape[0]:
        raise GraphBuildError(
            f"input has {c0} channels but the graph was built for"
            f" {graph.config.input_shape[0]}"
        )
    return build_graph(replace(graph.config, input_shape=(c0, h, w))).shapes


def param_count(graph: NetGraph):
    """(total, per-node breakdown) of trainable parameters."""
    breakdown = [(n.name, n.kind, n.params) for n in graph.nodes if n.params > 0]
    return graph.total_params, breakdown


def growth_sweep(base_cfg: NetConfig, ks) -> List[Tuple[int, int]]:
    """Parameter totals for each growth rate.

    When the base config leaves ``f`` unset it tracks 3*k per sweep point.
    """
    table = []
    for k in ks:
        cfg = replace(base_cfg, k=int(k))
        table.append((int(k), build_graph(cfg).total_params))
    return table


def quadratic_fit_r2(table) -> float:
    """R^2 of a least-squares quadratic through a (k, params) table."""
    ks = np.array([t[0] for t in table], dtype=np.float64)
    ps = np.array([t[1] for t in table], dtype=np.float64)
    coeffs = np.polyfit(ks, ps, 2)
    resid = ps - np.polyval(coeffs, ks)
    ss_res = float((resid**2).sum())
    ss_tot = float(((ps - ps.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def to_dot(graph: NetGraph) -> str:
    """GraphViz DOT rendering with shapes and parameter counts."""
    lines = ["digraph net {", "  rankdir=TB;", "  node [shape=box, fontsize=10];"]
    for n in graph.nodes:
        shape = graph.shapes.get(n.id)
        extra = f"\\n{shape[0]}x{shape[1]}x{shape[2]}" if shape else ""
        if n.params:
            extra += f"\\n{n.params:,} params"
        lines.append(f'  n{n.id} [label="{n.name}{extra}"];')
    for s, d in graph.edges:
        lines.append(f"  n{s} -> n{d};")
    lines.append("}")
    return "\n".join(lines)


def summarize(graph: NetGraph) -> dict:
    """JSON-friendly report: config, per-node shapes/params, totals."""
    cfg = graph.config
    return {
        "variant": cfg.variant,
        "growth_rate": cfg.k,
        "initial_maps": cfg.initial_maps,
        "poolings": cfg.poolings,
        "classes": cfg.classes,
        "input_shape": list(cfg.input_shape),
        "output_shape": list(graph.shapes[graph.output_node.id]),
        "total_params": graph.total_params,
        "nodes": [
            {
                "name": n.name,
                "kind": n.kind,
                "shape": list(graph.shapes[n.id]),
                "params": n.params,
            }
            for n in graph.nodes
        ],
    }
