//go:build !amd64

package elem

// Without the amd64 vector bodies every sum runs the scalar kernels: the
// stubs cover no elements and vectorSum stays false.

func sumToF32(d, s []float32) int { return 0 }

func sumToF64(d, s []float64) int { return 0 }

func sumOfF32(d, a, b []float32) int { return 0 }

func sumOfF64(d, a, b []float64) int { return 0 }

func sumChainF32(outs, ins [][]byte, n int) int { return 0 }

func sumChainF64(outs, ins [][]byte, n int) int { return 0 }

func haveAVX2() bool { return false }
