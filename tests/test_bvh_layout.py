"""Tests for the serialized BVH layout."""

import numpy as np
import pytest

from repro.bvh import (
    LayoutConfig,
    build_binary_bvh,
    build_layout,
    collapse_to_wide,
    partition_treelets,
)
from repro.bvh.layout import address_ranges_disjoint, layout_summary, treelet_prefix_bits

from tests.conftest import random_soup


@pytest.fixture(scope="module")
def built():
    wide = collapse_to_wide(build_binary_bvh(random_soup(400, seed=21)), 4)
    part = partition_treelets(wide, budget_bytes=2048)
    layout = build_layout(wide, part)
    return wide, part, layout


class TestLayout:
    def test_addresses_disjoint(self, built):
        _, _, layout = built
        assert address_ranges_disjoint(layout)

    def test_total_bytes_is_sum(self, built):
        _, _, layout = built
        assert layout.total_bytes == int(layout.item_bytes.sum())

    def test_treelets_contiguous(self, built):
        """Every item's bytes fall inside its treelet's address range."""
        _, part, layout = built
        for tid, members in enumerate(part.treelet_items):
            base = layout.treelet_base[tid]
            end = base + layout.treelet_sizes[tid]
            for item in members:
                a = layout.item_address[item]
                assert base <= a and a + layout.item_bytes[item] <= end

    def test_treelet_ranges_tile_space(self, built):
        _, part, layout = built
        order = np.argsort(layout.treelet_base)
        bases = layout.treelet_base[order]
        sizes = layout.treelet_sizes[order]
        assert bases[0] == 0
        assert np.all(bases[1:] == bases[:-1] + sizes[:-1])
        assert bases[-1] + sizes[-1] == layout.total_bytes

    def test_item_lines_cover_item(self, built):
        _, _, layout = built
        line = layout.config.line_bytes
        for item in range(0, len(layout.item_address), 17):
            lines = list(layout.item_lines(item))
            a = int(layout.item_address[item])
            b = a + int(layout.item_bytes[item])
            assert lines[0] * line <= a
            assert (lines[-1] + 1) * line >= b

    def test_treelet_of_address(self, built):
        _, part, layout = built
        for item in range(0, len(layout.item_address), 13):
            a = int(layout.item_address[item])
            assert layout.treelet_of_address(a) == part.treelet_of_item[item]

    def test_treelet_of_address_out_of_range(self, built):
        _, _, layout = built
        with pytest.raises(ValueError):
            layout.treelet_of_address(layout.total_bytes + 100)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LayoutConfig(line_bytes=33)
        with pytest.raises(ValueError):
            LayoutConfig(node_bytes=0)

    def test_prefix_bits_paper_example(self, built):
        """8 KB treelets in a 32-bit space: 19-bit treelet address (Sec 6.5)."""
        _, _, layout = built
        assert treelet_prefix_bits(layout, 8 * 1024) == 19

    def test_prefix_bits_requires_pow2(self, built):
        _, _, layout = built
        with pytest.raises(ValueError):
            treelet_prefix_bits(layout, 3000)

    def test_summary_keys(self, built):
        _, part, layout = built
        s = layout_summary(layout, part)
        assert s["treelets"] == part.treelet_count
        assert s["total_mb"] == pytest.approx(layout.total_bytes / 1048576)

    def test_base_address_offset(self):
        wide = collapse_to_wide(build_binary_bvh(random_soup(50, seed=3)), 4)
        part = partition_treelets(wide, budget_bytes=2048)
        layout = build_layout(wide, part, LayoutConfig(base_address=4096))
        assert layout.item_address.min() == 4096


class TestCompressedLayout:
    def test_compressed_config_smaller_triangles(self):
        from repro.bvh.layout import compressed_layout_config

        cfg = compressed_layout_config()
        assert cfg.triangle_bytes < LayoutConfig().triangle_bytes
        assert cfg.node_bytes == LayoutConfig().node_bytes

    def test_compressed_bvh_smaller_image(self):
        from repro.bvh import build_scene_bvh

        mesh = random_soup(300, seed=31)
        raw = build_scene_bvh(mesh, treelet_budget_bytes=2048)
        packed = build_scene_bvh(
            mesh, treelet_budget_bytes=2048, compressed_leaves=True
        )
        assert packed.layout.total_bytes < raw.layout.total_bytes
        assert packed.treelet_count <= raw.treelet_count

    def test_compressed_bvh_same_functional_results(self):
        from repro.bvh import build_scene_bvh, full_traverse
        from tests.test_bvh_traversal import make_rays

        mesh = random_soup(150, seed=32)
        raw = build_scene_bvh(mesh, treelet_budget_bytes=1024)
        packed = build_scene_bvh(
            mesh, treelet_budget_bytes=1024, compressed_leaves=True
        )
        origins, directions = make_rays(raw, 24, seed=33)
        for i in range(24):
            a = full_traverse(raw, origins[i], directions[i])
            b = full_traverse(packed, origins[i], directions[i])
            assert a.hit == b.hit
            if a.hit:
                assert a.prim_id == b.prim_id

    def test_codec_bits_flow_through(self):
        from repro.bvh.compressed import CompressedLeafCodec
        from repro.bvh.layout import compressed_layout_config

        small = compressed_layout_config(CompressedLeafCodec(bits=8))
        large = compressed_layout_config(CompressedLeafCodec(bits=16))
        assert small.triangle_bytes < large.triangle_bytes


class TestLineTreelets:
    """The prefetcher's static line tables against the layout's own
    per-address lookup and the treelets' line ranges."""

    @pytest.mark.parametrize("base_address", [0, 4096 + 16])
    @pytest.mark.parametrize("line_bytes", [32, 64])
    def test_tables_match_the_layout(self, base_address, line_bytes):
        from repro.bvh.scene_bvh import LineTreelets

        wide = collapse_to_wide(build_binary_bvh(random_soup(200, seed=5)), 4)
        part = partition_treelets(wide, budget_bytes=1024)
        layout = build_layout(
            wide, part, LayoutConfig(line_bytes=line_bytes, base_address=base_address)
        )
        treelet_lines = [tuple(layout.treelet_lines(t)) for t in range(part.treelet_count)]
        tables = LineTreelets(layout, treelet_lines, line_bytes)
        last = (base_address + layout.total_bytes) // line_bytes + 3
        for line in range(last):
            try:
                expected = layout.treelet_of_address(line * line_bytes)
            except ValueError:
                expected = None
            got = tables.owner[line] if line < len(tables.owner) else None
            assert got == expected, line
        holders = {}
        for treelet, lines in enumerate(treelet_lines):
            for line in lines:
                holders.setdefault(line, []).append(treelet)
        shared = {line: tuple(ts) for line, ts in holders.items() if len(ts) > 1}
        assert tables.shared == shared
        assert shared  # 1 KB treelets of an unaligned image share lines
