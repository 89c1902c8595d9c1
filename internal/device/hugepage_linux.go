package device

import (
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page (THP) on x86-64 and on
// arm64 with 4 KiB base pages.
const hugePage = 2 << 20

// adviseHugePages asks the kernel to back the whole, aligned 2 MiB pages
// inside b with transparent huge pages (madvise MADV_HUGEPAGE), so the
// first write to a fresh block faults once per 2 MiB rather than once per
// 4 KiB. A block with no such page inside it is left alone. The advice
// changes only which pages back b, so a failure (a kernel without THP) is
// ignored, and under THP mode never the kernel ignores it.
func adviseHugePages(b []byte) {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (p + hugePage - 1) &^ (hugePage - 1)
	hi := (p + uintptr(len(b))) &^ (hugePage - 1)
	if hi > lo {
		_ = syscall.Madvise(b[lo-p:hi-p], syscall.MADV_HUGEPAGE)
	}
}
