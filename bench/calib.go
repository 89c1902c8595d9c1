package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On the shared hosts this benchmark runs on, a
// CPU's speed swings by up to 2x within seconds (other tenants contend for
// the physical core), and nothing inside the guest shows it: there is no
// steal time and CPU time tracks wall time. calibrate measures that speed
// with a fixed piece of Go work that uses the machine the way the
// simulator does: goroutines handing control to each other over channels,
// memmove over buffers larger than a core's L2, map updates, and a
// dependent random walk over a table larger than L2, like the pointer
// chasing of the simulator's queues, maps and goroutines. It touches no
// repository code, so no change to the repository can move it. It runs
// one worker per GOMAXPROCS thread, as many threads as the workload keeps
// busy. Its buffers live outside the Go heap and it barely allocates, so
// it does not shift the garbage collector's pacing of the workload it
// measures.
//
// The timed phase alternates slices of work with calibrations; each slice
// is scaled by the calibrations on both sides of it to the reference speed
// at which calibrate takes calibRef. The reported times are therefore
// "seconds on the reference host", and the raw times are kept alongside.

// calibRef is calibrate's typical duration on the host the baselines in
// README.md were recorded on (2-CPU Xeon, go1.24), at 1 and 2 threads.
func calibRef(procs int) time.Duration {
	if procs > 1 {
		return 9 * time.Millisecond
	}
	return 5 * time.Millisecond
}

type calibWorker struct {
	src, dst []byte
	m        map[int]int
	next     []int32 // one random cycle through every index
}

// offHeap returns n zeroed bytes mapped outside the Go heap. They are
// never unmapped: the workers live as long as the process.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]byte, n) // correct, only heavier on the heap
	}
	return b
}

func newCalibWorker() *calibWorker {
	const tableLen = 2 << 20
	w := &calibWorker{src: offHeap(4 << 20), dst: offHeap(4 << 20), m: make(map[int]int, 1024),
		next: unsafe.Slice((*int32)(unsafe.Pointer(&offHeap(4 * tableLen)[0])), tableLen)}
	// Sattolo's shuffle yields a single cycle, so the walk never settles
	// into a short loop that fits in cache.
	for i := range w.next {
		w.next[i] = int32(i)
	}
	h := uint64(1)
	for i := len(w.next) - 1; i > 0; i-- {
		h = splitmix64(h)
		j := int(h % uint64(i))
		w.next[i], w.next[j] = w.next[j], w.next[i]
	}
	return w
}

var calibWorkers []*calibWorker

func (w *calibWorker) run() {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < 4000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	for i := 0; i < 6; i++ {
		w.src[i]++
		copy(w.dst, w.src)
	}
	for i := 0; i < 60000; i++ {
		w.m[i%1024] += i
	}
	p := int32(0)
	for i := 0; i < 20000; i++ {
		p = w.next[p]
	}
	w.m[0] += int(p)
}

func calibrate() time.Duration {
	n := runtime.GOMAXPROCS(0)
	for len(calibWorkers) < n {
		calibWorkers = append(calibWorkers, newCalibWorker())
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, w := range calibWorkers[:n] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// calibration is the median of three calibrate runs.
func calibration() time.Duration {
	a, b, c := calibrate(), calibrate(), calibrate()
	switch {
	case (a <= b) == (b <= c):
		return b
	case (b <= a) == (a <= c):
		return a
	}
	return c
}
