package world

import (
	"bytes"
	"strings"
	"testing"

	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
)

var stacks = []Stack{StackHybrid, StackPureXCCL, StackMPI, StackOpenMPI, StackUCC, StackPureCCL}

// The rank count is settled in one place: 0 means one rank per device, and
// a negative count or one above the device count is an error on every
// stack, returned before any rank runs.
func TestRankCount(t *testing.T) {
	for _, stack := range stacks {
		for _, tc := range []struct {
			ranks, want int
		}{{0, 8}, {3, 3}, {9, -1}, {100, -1}, {-3, -1}} {
			ran := 0
			err := Run(Spec{System: "thetagpu", Nodes: 1, Ranks: tc.ranks, Stack: stack},
				func(r Rank) {
					ran++
					r.Barrier()
				})
			if tc.want < 0 {
				if err == nil || ran != 0 {
					t.Errorf("%s, %d ranks: err %v after %d ranks ran, want an error and none", stack, tc.ranks, err, ran)
				}
				continue
			}
			if err != nil || ran != tc.want {
				t.Errorf("%s, %d ranks: err %v, %d ranks ran, want %d", stack, tc.ranks, err, ran, tc.want)
			}
		}
	}
}

// total sums every sample of the named counter family.
func total(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for key, v := range samples {
		if key == name || strings.HasPrefix(key, name+"{") {
			sum += v
		}
	}
	return sum
}

// Every stack reports every layer it has into the spec's registry, and
// only those: the fabric always, the MPI runtime, the CCL and the xCCL
// dispatch where the stack has them. A 1 MiB allreduce on one thetagpu
// node goes to the CCL on the xCCL stacks and is offloaded by UCC; the
// barrier runs on MPI wherever there is an MPI layer. The intra-node link
// runs degraded for the whole run, so every stack's traffic counts.
func TestEveryStackReportsItsLayers(t *testing.T) {
	const count = 1 << 18 // 1 MiB of float32
	for _, stack := range stacks {
		t.Run(string(stack), func(t *testing.T) {
			reg := metrics.NewRegistry()
			plan := fault.NewPlan(1).AddLinkRule(fault.LinkRule{Name: "slow", Link: "intra", BWScale: 0.5})
			err := Run(Spec{System: "thetagpu", Nodes: 1, Stack: stack, Faults: plan, Metrics: reg},
				func(r Rank) {
					send := r.Device().MustMalloc(count * 4)
					recv := r.Device().MustMalloc(count * 4)
					r.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
					r.Barrier()
				})
			if err != nil {
				t.Fatal(err)
			}
			hasMPI := stack != StackPureCCL
			hasCCL := stack != StackMPI && stack != StackOpenMPI
			hasXCCL := stack == StackHybrid || stack == StackPureXCCL
			for _, layer := range []struct {
				family string
				want   bool
			}{
				{"xccl_degraded_transfers_total", true},
				{"mpi_sends_total", hasMPI},
				{"ccl_launches_total", hasCCL},
				{"xccl_ops_total", hasXCCL},
			} {
				if got := total(t, reg, layer.family) > 0; got != layer.want {
					t.Errorf("%s reported: %v, want %v", layer.family, got, layer.want)
				}
			}
		})
	}
}
