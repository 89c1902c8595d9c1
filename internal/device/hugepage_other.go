//go:build !linux

package device

// adviseHugePages is a no-op where the kernel takes no huge-page advice.
func adviseHugePages([]byte) {}
