import numpy as np
import pytest

from cardiomr.cli import main
from cardiomr.netgraph import (
    GraphBuildError,
    NetConfig,
    build_graph,
    growth_sweep,
    param_count,
    quadratic_fit_r2,
    shape_trace,
    summarize,
    to_dot,
)


class TestNodeParams:
    def test_single_conv_with_bias(self):
        g = build_graph(NetConfig(variant="A", k=2, f=8,
                                  db_layers_down=(1,), db_layers_up=(1,),
                                  db_layers_bottleneck=1, poolings=1))
        stem = next(n for n in g.nodes if n.name == "stem/conv3x3")
        assert stem.params == 3 * 3 * 1 * 8 + 8  # 80

    def test_bn_parameter_count(self):
        g = build_graph(NetConfig(variant="B", k=4, f=8))
        bn = next(n for n in g.nodes if n.kind == "bn")
        assert bn.params == 2 * bn.out_channels

    def test_projection_param_arithmetic(self):
        # a 1x1 projection from 96 to 60 channels: conv 96*60+60, bn 192
        g = build_graph(NetConfig(variant="B", k=12, f=36,
                                  db_layers_down=(5,), db_layers_up=(5,),
                                  db_layers_bottleneck=5, poolings=1,
                                  input_shape=(1, 64, 64)))
        # down level output = 36 + 60 = 96 channels feeds the skip projection
        proj_conv = next(
            n for n in g.nodes if n.name == "up1/skip_proj/conv1x1"
        )
        assert proj_conv.params == 96 * 60 + 60
        proj_bn = next(n for n in g.nodes if n.name == "up1/skip_proj/bn")
        assert proj_bn.params == 192

    def test_pool_dropout_elu_add_have_zero_params(self):
        g = build_graph(NetConfig(variant="C"))
        for n in g.nodes:
            if n.kind in ("pool", "dropout", "elu", "add", "concat", "softmax"):
                assert n.params == 0


class TestChannelArithmetic:
    def test_down_block_concat_growth(self):
        # input 48 channels, 4 layers of k=12: output 48 + 48 = 96
        g = build_graph(NetConfig(variant="A", k=12, f=48))
        cat = next(n for n in g.nodes if n.name == "down1/cat")
        assert cat.out_channels == 48 + 4 * 12

    def test_projection_matches_up_tensor(self):
        g = build_graph(NetConfig(variant="B", k=12, f=36))
        add = next(n for n in g.nodes if n.name == "up1/skip_add")
        proj = next(n for n in g.nodes if n.name == "up1/skip_proj/conv1x1")
        assert proj.out_channels == add.out_channels == 48  # 4 layers * k

    def test_inception_ratio_split(self):
        g = build_graph(NetConfig(variant="C", k=12, f=36, inception_ratio=(2, 1, 1)))
        maps = [n.out_channels for n in g.nodes if n.name.startswith("stem/branch")]
        assert maps == [18, 9, 9]
        fuse = next(n for n in g.nodes if n.name == "stem/fuse")
        assert fuse.out_channels == 36

    def test_skewed_ratio_largest_remainder(self):
        g = build_graph(NetConfig(variant="C", k=4, f=10, inception_ratio=(2, 1, 1)))
        maps = [n.out_channels for n in g.nodes if n.name.startswith("stem/branch")]
        assert sum(maps) == 10 and maps[0] == 5


class TestShapes:
    def test_bottleneck_spatial_after_three_pools(self):
        g = build_graph(NetConfig(variant="C", input_shape=(1, 128, 128)))
        pools = [n for n in g.nodes if n.kind == "pool"]
        assert g.shapes[pools[-1].id][1:] == (16, 16)

    def test_transposed_conv_doubles(self):
        g = build_graph(NetConfig(variant="B"))
        for n in g.nodes:
            if n.kind == "tconv":
                src = g.inputs_of(n.id)[0]
                assert g.shapes[n.id][1] == 2 * g.shapes[src][1]
                assert g.shapes[n.id][2] == 2 * g.shapes[src][2]

    def test_output_shape_matches_classes_and_input(self):
        g = build_graph(NetConfig(variant="C", classes=4, input_shape=(1, 128, 128)))
        assert g.shapes[g.output_node.id] == (4, 128, 128)

    def test_odd_spatial_dim_raises_naming_node(self):
        with pytest.raises(GraphBuildError, match="down3/td/maxpool2x2"):
            build_graph(NetConfig(variant="A", input_shape=(1, 100, 100)))

    def test_shape_trace_on_other_input(self):
        g = build_graph(NetConfig(variant="C", input_shape=(1, 128, 128)))
        shapes = shape_trace(g, (1, 64, 64))
        assert shapes[g.output_node.id] == (4, 64, 64)

    def test_trace_rejects_indivisible_input(self):
        g = build_graph(NetConfig(variant="C", input_shape=(1, 128, 128)))
        with pytest.raises(GraphBuildError):
            shape_trace(g, (1, 68, 68))


class TestGraphInvariants:
    @pytest.mark.parametrize("variant", ["A", "B", "C"])
    def test_acyclic_and_reachable(self, variant):
        g = build_graph(NetConfig(variant=variant))
        seen = set()
        for src, dst in g.edges:
            assert src < dst  # construction order is topological
            seen.add(src)
            seen.add(dst)
        assert seen == {n.id for n in g.nodes}

    def test_param_total_is_additive_over_partitions(self):
        g = build_graph(NetConfig(variant="C"))
        total, breakdown = param_count(g)
        assert total == sum(p for _, _, p in breakdown)
        rng = np.random.default_rng(0)
        split = rng.random(len(g.nodes)) < 0.5
        part = sum(n.params for n, s in zip(g.nodes, split) if s)
        rest = sum(n.params for n, s in zip(g.nodes, split) if not s)
        assert part + rest == total

    def test_residual_variants_are_smaller_than_concat_variant(self):
        base = dict(k=12, f=36)
        pa = build_graph(NetConfig(variant="A", **base)).total_params
        pb = build_graph(NetConfig(variant="B", **base)).total_params
        pc = build_graph(NetConfig(variant="C", **base)).total_params
        assert pb < pa
        assert pc < pa


class TestGrowthSweep:
    def test_monotone_in_k(self):
        table = growth_sweep(NetConfig(variant="C"), range(2, 17, 2))
        params = [p for _, p in table]
        assert all(a < b for a, b in zip(params, params[1:]))

    def test_quadratic_fit(self):
        table = growth_sweep(NetConfig(variant="C"), range(2, 17, 2))
        assert quadratic_fit_r2(table) >= 0.999

    def test_f_tracks_three_k_when_unset(self):
        table = dict(growth_sweep(NetConfig(variant="C", f=None), [2, 12]))
        direct2 = build_graph(NetConfig(variant="C", k=2, f=6)).total_params
        direct12 = build_graph(NetConfig(variant="C", k=12, f=36)).total_params
        assert table[2] == direct2 and table[12] == direct12


class TestExports:
    def test_dot_contains_all_nodes(self):
        g = build_graph(NetConfig(variant="B", k=4, f=12))
        dot = to_dot(g)
        assert dot.startswith("digraph")
        for n in g.nodes:
            assert f"n{n.id} " in dot or f"n{n.id} ->" in dot

    def test_summary_is_json_ready(self):
        import json
        g = build_graph(NetConfig(variant="C"))
        s = summarize(g)
        json.dumps(s)
        assert s["total_params"] == g.total_params
        assert s["output_shape"] == [4, 128, 128]


class TestConfigValidation:
    @pytest.mark.parametrize("name, fields, argv", [
        ("f", dict(variant="A", f=-5), ["--variant", "A", "--f", "-5"]),
        ("f", dict(f=0), ["--f", "0"]),
        ("input_shape", dict(input_shape=(1, -8, -8)), ["--input", "1x-8x-8"]),
        ("input_shape", dict(input_shape=(0, 128, 128)), ["--input", "0x128x128"]),
        ("db_layers_down", dict(db_layers_down=(0, 4, 4), db_layers_up=(4, 4, 0)),
         ["--db-layers", "0", "4", "4"]),
        ("db_layers_bottleneck", dict(db_layers_bottleneck=0), ["--db-bottleneck", "0"]),
    ])
    def test_non_positive_sizes_rejected_naming_the_field(self, name, fields, argv, capsys):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            NetConfig(**fields)
        assert main(["netinfo", *argv]) == 2
        assert f"error: {name} must be >= 1" in capsys.readouterr().err

    def test_up_path_depth_checked_too(self):
        with pytest.raises(ValueError, match="^db_layers_up must be >= 1"):
            NetConfig(db_layers_up=(4, 0, 4))

    @pytest.mark.parametrize("ratio", [(-1, 1, 1), (2, 1, 1, 1), (1, 1), (0, 0, 0),
                                       (float("nan"), 1, 1), (2, float("inf"), 1)])
    def test_inception_ratio_must_be_three_finite_shares(self, ratio):
        with pytest.raises(ValueError, match="^inception_ratio must be three finite shares"):
            NetConfig(inception_ratio=ratio)

    def test_zero_inception_shares_drop_their_branch(self):
        g = build_graph(NetConfig(inception_ratio=(1, 0, 1)))
        stem = [n.name for n in g.nodes if n.name.startswith("stem/branch")]
        assert stem == ["stem/branch3x3", "stem/branch7x7"]

    @pytest.mark.parametrize("text", ["1x128", "1xax128", "0x", "1x128x128x1", ""])
    def test_netinfo_input_must_be_cxhxw(self, text, capsys):
        assert main(["netinfo", "--input", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input must be CxHxW") and repr(text) in err
