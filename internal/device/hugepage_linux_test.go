package device

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"mpixccl/internal/sim"
)

// advised keeps every block the huge-page test advised alive for the rest
// of the process, so a rerun (-count) cannot place its small block in
// memory that still carries an earlier run's advice.
var advised []*Buffer

// A fresh block with a whole aligned 2 MiB page inside it is advised onto
// transparent huge pages; a smaller one is not. The test reads the advice
// (the mapping's hg flag), not AnonHugePages: the kernel may still back an
// advised range with small pages when memory is fragmented.
func TestFreshBlockAdvisedHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages unavailable or off (%q, %v)", mode, err)
	}
	if _, err := os.Stat("/proc/self/smaps"); err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	d := newTestDevice(sim.NewKernel())

	small := d.MustMallocScratch(64 << 10)
	if flags := vmFlags(t, addr(small)); hasFlag(flags, "hg") {
		t.Errorf("64 KiB block's mapping is advised: VmFlags %q", flags)
	}
	advised = append(advised, small)

	big := d.MustMallocScratch(8 << 20)
	advised = append(advised, big)
	interior := (addr(big) + hugePage - 1) &^ (hugePage - 1)
	if flags := vmFlags(t, interior); !hasFlag(flags, "hg") {
		t.Errorf("8 MiB block's aligned interior is not advised: VmFlags %q", flags)
	}
}

func addr(b *Buffer) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b.Bytes()))) }

func hasFlag(flags []string, f string) bool {
	for _, g := range flags {
		if g == f {
			return true
		}
	}
	return false
}

// vmFlags returns the VmFlags of the /proc/self/smaps mapping that holds a.
func vmFlags(t *testing.T, a uintptr) []string {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmFlags:"); ok {
			if in {
				return strings.Fields(rest)
			}
			continue
		}
		// A mapping's header line starts with its "lo-hi" hex range.
		field, _, _ := strings.Cut(line, " ")
		los, his, ok := strings.Cut(field, "-")
		if !ok {
			continue
		}
		lo, err1 := strconv.ParseUint(los, 16, 64)
		hi, err2 := strconv.ParseUint(his, 16, 64)
		if err1 == nil && err2 == nil {
			in = uint64(a) >= lo && uint64(a) < hi
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no mapping in /proc/self/smaps holds %#x", a)
	return nil
}
