"""Tests for processors, networks, platforms, and presets."""

import numpy as np
import pytest

from repro.cluster.network import (
    CommunicationNetwork,
    segmented_network,
    uniform_network,
)
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.presets import (
    HETEROGENEOUS_PROCESSORS,
    SEGMENT_CAPACITIES,
    all_networks,
    equivalent_homogeneous_capacity,
    equivalent_homogeneous_cycle_time,
    fully_heterogeneous,
    fully_homogeneous,
    partially_heterogeneous,
    partially_homogeneous,
    thunderhead,
)
from repro.cluster.processor import ProcessorSpec
from repro.errors import ConfigurationError, PlatformError
from repro.scheduling.heho import check_equivalence, heterogeneous_efficiency


class TestProcessorSpec:
    def test_speed_reciprocal(self):
        assert ProcessorSpec("p", 0.01).speed == pytest.approx(100.0)

    def test_compute_seconds(self):
        assert ProcessorSpec("p", 0.01).compute_seconds(50.0) == pytest.approx(0.5)

    def test_max_pixels(self):
        spec = ProcessorSpec("p", 0.01, memory_mb=100.0)
        # 100 MB * 0.5 usable / (10 bands * 8 bytes) = 625,000
        assert spec.max_pixels(10, 8, 0.5) == 625_000

    def test_invalid_cycle_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessorSpec("p", 0.0)

    def test_negative_mflops_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessorSpec("p", 0.01).compute_seconds(-1.0)


class TestNetwork:
    def test_uniform(self):
        net = uniform_network(4, 10.0)
        assert net.capacity(0, 3) == 10.0
        assert net.is_uniform()

    def test_transfer_seconds(self):
        net = uniform_network(2, 10.0, latency_s=0.001)
        # 10 ms/megabit * 5 megabits + 1 ms latency
        assert net.transfer_seconds(0, 1, 5.0) == pytest.approx(0.051)

    def test_self_transfer_free(self):
        net = uniform_network(2, 10.0)
        assert net.transfer_seconds(0, 0, 100.0) == 0.0

    def test_asymmetric_rejected(self):
        cap = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(PlatformError):
            CommunicationNetwork(cap)

    def test_nonpositive_capacity_rejected(self):
        cap = np.zeros((2, 2))
        with pytest.raises(PlatformError):
            CommunicationNetwork(cap)

    def test_segmented_lookup(self):
        net = segmented_network(
            {"a": 2, "b": 2}, {("a", "a"): 1.0, ("a", "b"): 5.0, ("b", "b"): 2.0}
        )
        assert net.capacity(0, 1) == 1.0
        assert net.capacity(0, 2) == 5.0
        assert net.capacity(2, 3) == 2.0

    def test_segment_membership(self):
        net = segmented_network(
            {"a": 2, "b": 1}, {("a", "a"): 1.0, ("a", "b"): 5.0, ("b", "b"): 2.0}
        )
        assert net.segment_of(0) == "a"
        assert net.segment_of(2) == "b"

    def test_link_resource_intra_segment_none(self):
        net = segmented_network(
            {"a": 2, "b": 1}, {("a", "a"): 1.0, ("a", "b"): 5.0, ("b", "b"): 2.0}
        )
        assert net.link_resource(0, 1) is None
        assert net.link_resource(0, 2) == ("a", "b")
        assert net.link_resource(2, 0) == ("a", "b")  # canonical order

    def test_missing_pair_rejected(self):
        with pytest.raises(PlatformError):
            segmented_network({"a": 1, "b": 1}, {("a", "a"): 1.0, ("b", "b"): 1.0})


class TestPlatform:
    def test_aggregates(self, tiny_platform):
        assert tiny_platform.size == 4
        assert tiny_platform.total_speed == pytest.approx(
            1 / 0.002 + 1 / 0.004 + 2 / 0.008
        )

    def test_heterogeneity_ratio(self, tiny_platform):
        assert tiny_platform.heterogeneity_ratio() == pytest.approx(4.0)

    def test_equivalent_homogeneous(self, het_platform):
        eq = het_platform.equivalent_homogeneous()
        assert eq.size == het_platform.size
        assert eq.is_fully_homogeneous()
        assert eq.speeds[0] == pytest.approx(het_platform.speeds.mean())
        assert eq.network.mean_capacity() == pytest.approx(
            het_platform.network.mean_capacity()
        )

    def test_subset(self, het_platform):
        sub = het_platform.subset([0, 2, 5])
        assert sub.size == 3
        assert sub.processors[1].name == "p3"
        assert sub.network.capacity(0, 1) == het_platform.network.capacity(0, 2)

    def test_subset_duplicate_rejected(self, het_platform):
        with pytest.raises(PlatformError):
            het_platform.subset([0, 0])

    def test_network_size_mismatch_rejected(self):
        with pytest.raises(PlatformError):
            HeterogeneousPlatform(
                "bad", [ProcessorSpec("p", 0.01)], uniform_network(2, 1.0)
            )


class TestPresets:
    def test_table1_encoded(self):
        assert len(HETEROGENEOUS_PROCESSORS) == 16
        assert HETEROGENEOUS_PROCESSORS[2].cycle_time == 0.0026  # p3
        assert HETEROGENEOUS_PROCESSORS[9].cycle_time == 0.0451  # p10
        assert HETEROGENEOUS_PROCESSORS[9].memory_mb == 512

    def test_table2_encoded(self):
        plat = fully_heterogeneous()
        net = plat.network
        assert net.capacity(0, 1) == 19.26  # within s1
        assert net.capacity(0, 15) == 154.76  # s1-s4
        assert net.capacity(10, 15) == 14.05  # within s4

    def test_table2_symmetric_keys(self):
        for (a, b), cap in SEGMENT_CAPACITIES.items():
            assert cap > 0

    def test_segments(self):
        net = fully_heterogeneous().network
        assert net.segment_of(0) == "s1"
        assert net.segment_of(8) == "s3"
        assert net.segment_of(15) == "s4"

    def test_equivalent_constants(self):
        # Computed from Tables 1-2, not the paper's stated values.
        assert equivalent_homogeneous_cycle_time() == pytest.approx(0.00848, abs=1e-4)
        assert equivalent_homogeneous_capacity() == pytest.approx(77.9, abs=0.5)

    def test_default_homogeneous_is_equivalent(self):
        het = fully_heterogeneous()
        homo = fully_homogeneous()
        report = check_equivalence(het, homo, tolerance=0.01)
        assert report.equivalent

    def test_published_homogeneous_is_not_equivalent(self):
        het = fully_heterogeneous()
        homo = fully_homogeneous(published=True)
        report = check_equivalence(het, homo, tolerance=0.05)
        assert not report.equivalent

    def test_partial_presets(self):
        ph = partially_heterogeneous()
        assert not ph.is_homogeneous_processors()
        assert ph.network.is_uniform()
        po = partially_homogeneous()
        assert po.is_homogeneous_processors()
        assert not po.network.is_uniform()

    def test_all_networks_keys(self):
        nets = all_networks()
        assert set(nets) == {
            "fully heterogeneous",
            "fully homogeneous",
            "partially heterogeneous",
            "partially homogeneous",
        }

    def test_thunderhead(self):
        th = thunderhead(8)
        assert th.size == 8
        assert th.is_fully_homogeneous()
        with pytest.raises(ConfigurationError):
            thunderhead(0)


class TestHeHo:
    def test_efficiency_ratio(self):
        assert heterogeneous_efficiency(84.0, 81.0) == pytest.approx(81 / 84)

    def test_invalid_times_rejected(self):
        with pytest.raises(ConfigurationError):
            heterogeneous_efficiency(0.0, 1.0)
