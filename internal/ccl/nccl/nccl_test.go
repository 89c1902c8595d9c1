package nccl

import (
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
)

func TestConfigPersonality(t *testing.T) {
	cfg := Config()
	if cfg.Launch != 20*time.Microsecond {
		t.Errorf("launch = %v, want 20µs (paper §4.2)", cfg.Launch)
	}
	if cfg.Channels != 12 {
		t.Errorf("channels = %d, want 12", cfg.Channels)
	}
	if !cfg.SupportsKind(device.NvidiaGPU) || cfg.SupportsKind(device.AMDGPU) {
		t.Error("NCCL must drive NVIDIA GPUs only")
	}
	for _, dt := range ccl.Datatypes() {
		if !cfg.Datatypes[dt] {
			t.Errorf("NCCL should support %v", dt)
		}
	}
	for _, op := range []ccl.RedOp{ccl.Sum, ccl.Prod, ccl.Max, ccl.Min} {
		if !cfg.Ops[op] {
			t.Errorf("NCCL should support %v", op)
		}
	}
}

func TestLegacyVersionDiffers(t *testing.T) {
	legacy := VersionConfig(LegacyVersion)
	modern := Config()
	if legacy.Channels >= modern.Channels {
		t.Error("NCCL 2.12 should drive fewer channels than 2.18")
	}
	if legacy.Name == modern.Name {
		t.Error("version must be part of the name")
	}
	if VersionConfig("9.9.9").Channels != modern.Channels {
		t.Error("unknown version should fall back to default personality")
	}
}
