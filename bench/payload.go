package main

import "mpixccl/internal/device"

// Payloads and their checks. Every element a rank contributes is a closed
// form of (salt, rank, index): an integer below 2^19 stored as float32, so
// any sum over up to 32 ranks stays below 2^24 and is exact in float32
// whatever order a schedule reduces in. Float32 keeps the reductions on the
// same typed fast path as the gradient traffic the paper's workloads carry.

// sampleSize is how many output elements each rank checks per op when
// full-buffer verification is off.
const sampleSize = 64

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix hashes a seed and a few coordinates into one well-spread word.
func mix(seed uint64, xs ...uint64) uint64 {
	h := splitmix64(seed)
	for _, x := range xs {
		h = splitmix64(h ^ x)
	}
	return h
}

// value is element j of rank r's contribution.
func value(salt uint64, r, j int) float32 {
	h := uint32(j)*0x9E3779B1 + uint32(r)*0x85EBCA77 + uint32(salt)
	h ^= h >> 15
	h *= 0x2C1B3C6D
	h ^= h >> 12
	return float32(h & (1<<19 - 1))
}

// sumValues is the reduction of element j over ranks [0, n).
func sumValues(salt uint64, n, j int) float32 {
	var s float32
	for r := 0; r < n; r++ {
		s += value(salt, r, j)
	}
	return s
}

// fill writes rank r's contribution into the first count elements of b.
func fill(b *device.Buffer, salt uint64, r, count int) {
	for j := 0; j < count; j++ {
		b.SetFloat32(j, value(salt, r, j))
	}
}

// positions returns, in dst's storage, the output elements one check looks
// at: all of [0, n) when full is set or n is small, else sampleSize seeded
// draws. Reusing dst keeps the checks out of the allocation the benchmark
// measures.
func positions(dst []int, full bool, n int, seed uint64, coords ...uint64) []int {
	dst = dst[:0]
	if full || n <= sampleSize {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	h := mix(seed, coords...)
	for k := 0; k < sampleSize; k++ {
		h = splitmix64(h)
		dst = append(dst, int(h%uint64(n)))
	}
	return dst
}

// checkAt reports whether b holds want(i) at every position.
func checkAt(b *device.Buffer, pos []int, want func(i int) float32) bool {
	for _, i := range pos {
		if b.Float32(i) != want(i) {
			return false
		}
	}
	return true
}
