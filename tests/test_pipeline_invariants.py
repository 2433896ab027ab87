"""Invariant and edge-case tests for the encode pipeline."""

import numpy as np
import pytest

from repro.codecs import EncoderConfig, SvtAv1Encoder, create_encoder
from repro.trace.instrument import Instrumenter
from repro.video.frame import Frame, Video
from repro.video.metrics import bitrate_kbps
from repro.video.synthetic import ContentSpec, generate


def clip(width=64, height=48, frames=3, entropy=4.0, style="game", name="p"):
    return generate(
        ContentSpec(name=name, width=width, height=height, fps=30,
                    num_frames=frames, entropy=entropy, style=style)
    )


class TestFrameTypes:
    def test_keyframe_interval(self):
        video = clip(frames=5)
        enc = SvtAv1Encoder(EncoderConfig(crf=50, preset=8,
                                          keyframe_interval=2))
        result = enc.encode(video)
        types = [f.frame_type for f in result.frame_stats]
        assert types == ["key", "inter", "key", "inter", "key"]

    def test_default_single_keyframe(self):
        result = create_encoder("svt-av1", crf=50, preset=8).encode(clip())
        types = [f.frame_type for f in result.frame_stats]
        assert types == ["key", "inter", "inter"]


class TestBitsAndQuality:
    def test_every_frame_produces_bits(self):
        result = create_encoder("x264", crf=30, preset=7).encode(clip())
        for stats in result.frame_stats:
            assert stats.bits > 0

    def test_bitrate_property_consistent(self):
        result = create_encoder("x264", crf=30, preset=7).encode(clip())
        expected = bitrate_kbps(int(result.total_bits), result.num_frames,
                                result.fps)
        assert result.bitrate_kbps == pytest.approx(expected)

    def test_recon_is_valid_video(self):
        source = clip()
        result = create_encoder("svt-av1", crf=40, preset=8).encode(source)
        recon = result.reconstructed
        assert recon.width == source.width
        assert recon.height == source.height
        for frame in recon:
            assert frame.y.data.dtype == np.uint8

    def test_flat_content_codes_tiny(self):
        """A uniform grey clip must compress to almost nothing."""
        frames = [Frame.blank(64, 48, value=128, index=i) for i in range(3)]
        flat = Video(frames, fps=30, name="flat")
        result = create_encoder("svt-av1", crf=40, preset=8).encode(flat)
        textured = create_encoder("svt-av1", crf=40, preset=8).encode(clip())
        assert result.total_bits < textured.total_bits / 4
        assert result.psnr_db > 40

    def test_high_entropy_costs_more_bits(self):
        calm = create_encoder("x264", crf=30, preset=7).encode(
            clip(entropy=0.5, style="desktop", name="calm")
        )
        busy = create_encoder("x264", crf=30, preset=7).encode(
            clip(entropy=7.0, style="chaotic", name="busy")
        )
        assert busy.total_bits > calm.total_bits


class TestInstrumenterIntegration:
    def test_external_instrumenter_accumulates(self):
        inst = Instrumenter()
        video = clip()
        create_encoder("x264", crf=30, preset=8).encode(video, inst)
        first = inst.total_instructions
        create_encoder("x264", crf=30, preset=8).encode(video, inst)
        assert inst.total_instructions == pytest.approx(2 * first)

    def test_disabled_recording_still_counts(self):
        inst = Instrumenter(record_branches=False, record_touches=False)
        create_encoder("x264", crf=30, preset=8).encode(clip(), inst)
        assert inst.total_instructions > 0
        assert inst.decision_branches > 0
        assert len(inst.branch_arrays()[0]) == 0
        assert len(inst.touch_arrays()[0]) == 0


class TestGeometry:
    def test_non_superblock_multiple_dimensions(self):
        """Frames not aligned to the superblock grid must encode."""
        video = clip(width=72, height=40)
        result = create_encoder("svt-av1", crf=40, preset=8).encode(video)
        assert result.reconstructed.width == 72
        assert result.reconstructed.height == 40

    def test_minimum_size_frame(self):
        video = clip(width=32, height=32, frames=2)
        result = create_encoder("x265", crf=30, preset=8).encode(video)
        assert result.psnr_db > 15

    def test_single_frame_intra_only(self):
        video = clip(frames=1)
        result = create_encoder("svt-av1", crf=30, preset=8).encode(video)
        assert result.frame_stats[0].frame_type == "key"
        assert result.total_bits > 0
