package msccl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mpixccl/internal/ccl"
)

// Text format for custom collective schedules — the stand-in for MSCCL's
// XML algorithm files. A schedule reads:
//
//	# comment
//	algo allpairs allreduce ranks=8 chunks=8 min=256 max=262144
//	step
//	xfer 0 1 1 1 reduce
//	xfer 0 2 2 2 reduce
//	step
//	xfer 1 0 1 1 copy
//
// "algo" opens the header (name, collective, rank/chunk counts, optional
// size window); each "step" opens a set of concurrent transfers; "xfer"
// lines are FROM TO SRCCHUNK DSTCHUNK copy|reduce.

// ParseAlgo parses the text format into a validated schedule.
func ParseAlgo(text string) (*ccl.Algo, error) {
	var a *ccl.Algo
	var cur *ccl.Step
	flush := func() {
		if a != nil && cur != nil {
			a.Steps = append(a.Steps, *cur)
			cur = nil
		}
	}
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "algo":
			if a != nil {
				return nil, fmt.Errorf("msccl: line %d: duplicate algo header", ln+1)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("msccl: line %d: algo needs name and collective", ln+1)
			}
			a = &ccl.Algo{Name: fields[1], Collective: fields[2]}
			for _, kv := range fields[3:] {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("msccl: line %d: bad attribute %q", ln+1, kv)
				}
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("msccl: line %d: %q: %v", ln+1, kv, err)
				}
				switch key {
				case "ranks":
					a.Ranks = int(n)
				case "chunks":
					a.NChunks = int(n)
				case "min", "max":
					if n < 0 {
						return nil, fmt.Errorf("msccl: line %d: negative size bound %q", ln+1, kv)
					}
					if key == "min" {
						a.MinBytes = n
					} else {
						a.MaxBytes = n
					}
				default:
					return nil, fmt.Errorf("msccl: line %d: unknown attribute %q", ln+1, key)
				}
			}
		case "step":
			if a == nil {
				return nil, fmt.Errorf("msccl: line %d: step before algo header", ln+1)
			}
			flush()
			cur = &ccl.Step{}
		case "xfer":
			if cur == nil {
				return nil, fmt.Errorf("msccl: line %d: xfer outside a step", ln+1)
			}
			if len(fields) != 6 {
				return nil, fmt.Errorf("msccl: line %d: xfer needs FROM TO SRC DST KIND", ln+1)
			}
			var nums [4]int
			for i := 0; i < 4; i++ {
				n, err := strconv.Atoi(fields[i+1])
				if err != nil {
					return nil, fmt.Errorf("msccl: line %d: %v", ln+1, err)
				}
				nums[i] = n
			}
			var kind ccl.XferKind
			switch fields[5] {
			case "copy":
				kind = ccl.Copy
			case "reduce":
				kind = ccl.ReduceOp
			default:
				return nil, fmt.Errorf("msccl: line %d: unknown kind %q", ln+1, fields[5])
			}
			cur.Xfers = append(cur.Xfers, ccl.ChunkXfer{
				From: nums[0], To: nums[1], SrcChunk: nums[2], DstChunk: nums[3], Kind: kind,
			})
		default:
			return nil, fmt.Errorf("msccl: line %d: unknown directive %q", ln+1, fields[0])
		}
	}
	if a == nil {
		return nil, fmt.Errorf("msccl: no algo header found")
	}
	flush()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// FormatAlgo serializes a schedule back to the text format (ParseAlgo's
// inverse).
func FormatAlgo(a *ccl.Algo) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "algo %s %s ranks=%d chunks=%d", a.Name, a.Collective, a.Ranks, a.NChunks)
	if a.MinBytes > 0 {
		fmt.Fprintf(&sb, " min=%d", a.MinBytes)
	}
	if a.MaxBytes > 0 {
		fmt.Fprintf(&sb, " max=%d", a.MaxBytes)
	}
	sb.WriteString("\n")
	for _, step := range a.Steps {
		sb.WriteString("step\n")
		for _, x := range step.Xfers {
			kind := "copy"
			if x.Kind == ccl.ReduceOp {
				kind = "reduce"
			}
			fmt.Fprintf(&sb, "xfer %d %d %d %d %s\n", x.From, x.To, x.SrcChunk, x.DstChunk, kind)
		}
	}
	return sb.String()
}

// RingAllReduce generates a ring allreduce as an explicit schedule:
// n−1 reduce-scatter steps followed by n−1 allgather steps, chunk-per-rank.
// It exists so the interpreter can be validated against the built-in ring
// and so users have a second generator to crib from.
func RingAllReduce(n int, minBytes, maxBytes int64) *ccl.Algo {
	a := &ccl.Algo{
		Name: "ring", Collective: "allreduce",
		Ranks: n, NChunks: n, MinBytes: minBytes, MaxBytes: maxBytes,
	}
	for step := 0; step < n-1; step++ { // reduce-scatter
		var s ccl.Step
		for r := 0; r < n; r++ {
			src := (r - step - 1 + 2*n) % n
			s.Xfers = append(s.Xfers, ccl.ChunkXfer{
				From: r, To: (r + 1) % n, SrcChunk: src, DstChunk: src, Kind: ccl.ReduceOp,
			})
		}
		a.Steps = append(a.Steps, s)
	}
	for step := 0; step < n-1; step++ { // allgather
		var s ccl.Step
		for r := 0; r < n; r++ {
			src := (r - step + n) % n
			s.Xfers = append(s.Xfers, ccl.ChunkXfer{
				From: r, To: (r + 1) % n, SrcChunk: src, DstChunk: src, Kind: ccl.Copy,
			})
		}
		a.Steps = append(a.Steps, s)
	}
	return a
}

// Stats summarizes a schedule for profiling output: steps, transfers, and
// per-rank send counts (MSCCL's profiling hooks expose the same shape).
func Stats(a *ccl.Algo) string {
	sends := make(map[int]int)
	total := 0
	for _, s := range a.Steps {
		for _, x := range s.Xfers {
			sends[x.From]++
			total++
		}
	}
	ranks := make([]int, 0, len(sends))
	for r := range sends {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var sb strings.Builder
	fmt.Fprintf(&sb, "algo %s: %d steps, %d transfers\n", a.Name, len(a.Steps), total)
	for _, r := range ranks {
		fmt.Fprintf(&sb, "  rank %d sends %d chunks\n", r, sends[r])
	}
	return sb.String()
}
