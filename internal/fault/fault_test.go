package fault

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mpixccl/internal/ccl"
)

func TestRuleScoping(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "scoped", Backend: "nccl", Op: "allreduce",
		Ranks: []int{2}, Result: ccl.ErrInternal})

	if e := p.OpError("rccl", "allreduce", 2, 0); e != nil {
		t.Errorf("wrong backend fired: %v", e)
	}
	if e := p.OpError("nccl", "bcast", 2, 0); e != nil {
		t.Errorf("wrong op fired: %v", e)
	}
	if e := p.OpError("nccl", "allreduce", 1, 0); e != nil {
		t.Errorf("wrong rank fired: %v", e)
	}
	e := p.OpError("nccl", "allreduce", 2, 0)
	if e == nil || e.Result != ccl.ErrInternal {
		t.Fatalf("scoped rule did not fire: %v", e)
	}
	if got := p.Fired("scoped"); got != 1 {
		t.Errorf("fired = %d, want 1", got)
	}
}

func TestAfterAndCountBudget(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "burst", Op: "send", Result: ccl.ErrRemote, After: 2, Count: 3})

	var fires []bool
	for i := 0; i < 8; i++ {
		fires = append(fires, p.OpError("nccl", "send", 0, 0) != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("call %d fired=%v, want %v (After=2 skips two, Count=3 bounds)", i, fires[i], want[i])
		}
	}
}

func TestTimeWindow(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "window", Op: "recv", Result: ccl.ErrInternal,
		From: 10 * time.Microsecond, Until: 20 * time.Microsecond})

	if e := p.OpError("nccl", "recv", 0, 5*time.Microsecond); e != nil {
		t.Error("fired before the window")
	}
	if e := p.OpError("nccl", "recv", 0, 15*time.Microsecond); e == nil {
		t.Error("did not fire inside the window")
	}
	if e := p.OpError("nccl", "recv", 0, 25*time.Microsecond); e != nil {
		t.Error("fired after the window")
	}
}

func TestProbabilityIsSeedDeterministic(t *testing.T) {
	pattern := func(seed uint64) []bool {
		p := NewPlan(seed)
		p.AddRule(Rule{Name: "coin", Op: "allreduce", Result: ccl.ErrRemote, Probability: 0.5})
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, p.OpError("nccl", "allreduce", 0, 0) != nil)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			fires++
		}
	}
	// 64 p=0.5 draws: both all-fire and no-fire mean a broken PRNG.
	if fires == 0 || fires == 64 {
		t.Errorf("p=0.5 rule fired %d/64 times", fires)
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fire patterns")
	}
}

func TestDelayRulesAccumulateSeparately(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "slow", Op: "allreduce", Ranks: []int{1}, Delay: 3 * time.Microsecond})
	p.AddRule(Rule{Name: "slower", Op: "allreduce", Ranks: []int{1}, Delay: 4 * time.Microsecond})

	if d := p.OpDelay("nccl", "allreduce", 1, 0); d != 7*time.Microsecond {
		t.Errorf("delay = %v, want 7µs (rules accumulate)", d)
	}
	if d := p.OpDelay("nccl", "allreduce", 0, 0); d != 0 {
		t.Errorf("unscoped rank delayed %v", d)
	}
	// Delay rules must not leak into the error hook.
	if e := p.OpError("nccl", "allreduce", 1, 0); e != nil {
		t.Errorf("delay rule injected an error: %v", e)
	}
}

func TestCommInitRules(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "init", Point: CommInit, Backend: "hccl",
		Result: ccl.ErrInternal, Count: 1})

	if e := p.CommInitError("nccl", 0, 0); e != nil {
		t.Errorf("wrong backend failed init: %v", e)
	}
	if e := p.CommInitError("hccl", 0, 0); e == nil {
		t.Error("comm-init rule did not fire")
	}
	if e := p.CommInitError("hccl", 0, 0); e != nil {
		t.Errorf("count budget exceeded: %v", e)
	}
	// CommInit rules must not fire at op call sites.
	p2 := NewPlan(1)
	p2.AddRule(Rule{Point: CommInit, Result: ccl.ErrInternal})
	if e := p2.OpError("hccl", "allreduce", 0, 0); e != nil {
		t.Errorf("comm-init rule fired at an op call: %v", e)
	}
}

func TestLinkWindowsCompose(t *testing.T) {
	p := NewPlan(1)
	p.AddLinkRule(LinkRule{Name: "a", Link: "inter", BWScale: 0.5, ChannelCap: 8,
		Until: 100 * time.Microsecond})
	p.AddLinkRule(LinkRule{Name: "b", Link: "inter", Nodes: []int{3},
		BWScale: 0.5, AlphaScale: 2, ChannelCap: 4})

	// Both windows active for a node-3 route: scales multiply, tightest cap.
	lf, ok := p.DegradedLink("inter", 0, 3, 50*time.Microsecond)
	if !ok || lf.BWScale != 0.25 || lf.AlphaScale != 2 || lf.ChannelCap != 4 {
		t.Fatalf("composed fault = %+v (ok %v)", lf, ok)
	}
	// Node scope: a route not touching node 3 only sees rule a.
	lf, ok = p.DegradedLink("inter", 0, 1, 50*time.Microsecond)
	if !ok || lf.BWScale != 0.5 || lf.ChannelCap != 8 || lf.AlphaScale != 0 {
		t.Fatalf("node-scoped fault = %+v (ok %v)", lf, ok)
	}
	// Class scope.
	if _, ok := p.DegradedLink("intra", 0, 3, 0); ok {
		t.Error("inter rules degraded an intra route")
	}
	// Window expiry: after rule a ends only rule b remains.
	lf, ok = p.DegradedLink("inter", 3, 0, 200*time.Microsecond)
	if !ok || lf.BWScale != 0.5 || lf.AlphaScale != 2 {
		t.Fatalf("post-window fault = %+v (ok %v)", lf, ok)
	}
	// DegradedNow ignores class/node scope: the aggregate signal.
	if _, ok := p.DegradedNow(50 * time.Microsecond); !ok {
		t.Error("DegradedNow missed active windows")
	}
	p2 := NewPlan(1)
	if _, ok := p2.DegradedNow(0); ok {
		t.Error("empty plan reported degradation")
	}
}

// The plan must be safe under concurrent callers (go test -race exercises
// this): rule state and the PRNG share one mutex.
func TestConcurrentAccess(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "any", Result: ccl.ErrRemote, Probability: 0.5})
	p.AddLinkRule(LinkRule{Name: "lnk", BWScale: 0.5})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.OpError("nccl", "allreduce", rank, time.Duration(i))
				p.OpDelay("nccl", "allreduce", rank, time.Duration(i))
				p.CommInitError("nccl", rank, time.Duration(i))
				p.DegradedLink("intra", 0, 1, time.Duration(i))
				p.DegradedNow(time.Duration(i))
				p.Fired("any")
			}
		}(g)
	}
	wg.Wait()
}

// A time-triggered crash rule kills its ranks from From onward for every
// query path, without consuming probes; call paths and other ranks are
// unaffected before the trigger.
func TestCrashRuleTimeTriggered(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "die", Crash: true, Ranks: []int{2}, From: 100 * time.Microsecond})

	if p.RankDead(2, 99*time.Microsecond) {
		t.Error("rank 2 dead before its crash time")
	}
	if p.OpCrash("nccl", "allreduce", 2, 50*time.Microsecond) {
		t.Error("probe before the crash time killed the rank")
	}
	if got := p.DeadRanks(99 * time.Microsecond); got != nil {
		t.Errorf("DeadRanks before trigger = %v; want none", got)
	}
	if !p.RankDead(2, 100*time.Microsecond) {
		t.Error("rank 2 alive at its crash time")
	}
	if !p.OpCrash("nccl", "allreduce", 2, 200*time.Microsecond) {
		t.Error("probe after the crash time reported the rank alive")
	}
	if p.RankDead(3, 200*time.Microsecond) {
		t.Error("unscoped rank reported dead")
	}
	if got := p.DeadRanks(200 * time.Microsecond); len(got) != 1 || got[0] != 2 {
		t.Errorf("DeadRanks = %v; want [2]", got)
	}
	if p.Fired("die") != 1 {
		t.Errorf("crash rule fired %d times; want 1", p.Fired("die"))
	}
	// A crash never surfaces as an injected call error.
	if e := p.OpError("nccl", "allreduce", 2, 200*time.Microsecond); e != nil {
		t.Errorf("crash rule injected a call error: %v", e)
	}
}

// A call-counted crash rule (After=N) kills the rank on its N+1-th matching
// probe; pure queries never advance the budget.
func TestCrashRuleCallCounted(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "die", Crash: true, Ranks: []int{1}, Op: "allreduce", After: 2})

	// Pure queries must not consume the budget.
	for i := 0; i < 10; i++ {
		if p.RankDead(1, 0) {
			t.Fatal("pure query killed the rank")
		}
	}
	if p.OpCrash("nccl", "allreduce", 1, 0) || p.OpCrash("nccl", "allreduce", 1, 0) {
		t.Fatal("rank died inside its After budget")
	}
	// Probes from other ranks or other ops must not count.
	if p.OpCrash("nccl", "allreduce", 0, 0) || p.OpCrash("nccl", "broadcast", 1, 0) {
		t.Fatal("out-of-scope probe killed the rank")
	}
	if !p.OpCrash("nccl", "allreduce", 1, 0) {
		t.Fatal("third matching probe did not kill the rank")
	}
	if !p.RankDead(1, 0) {
		t.Error("death not visible to the pure query")
	}
	if got := p.DeadRanks(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("DeadRanks = %v; want [1]", got)
	}
}

// Invalid rules must be rejected at construction with a descriptive error
// instead of silently never firing.
func TestRuleValidation(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		want string
	}{
		{"inverted window", Rule{Name: "w", Result: ccl.ErrRemote, From: 10, Until: 5}, "inverted time window"},
		{"negative after", Rule{Name: "a", Result: ccl.ErrRemote, After: -1}, "negative After budget"},
		{"negative count", Rule{Name: "c", Result: ccl.ErrRemote, Count: -2}, "negative Count budget"},
		{"bad probability", Rule{Name: "p", Result: ccl.ErrRemote, Probability: 1.5}, "outside [0, 1]"},
		{"negative delay", Rule{Name: "d", Delay: -time.Microsecond}, "negative Delay"},
		{"no effect", Rule{Name: "n"}, "neither an error nor a delay"},
		{"crash without ranks", Rule{Name: "x", Crash: true}, "must name its Ranks"},
		{"crash with result", Rule{Name: "x", Crash: true, Ranks: []int{1}, Result: ccl.ErrInternal}, "must not set Result or Delay"},
		{"crash with count", Rule{Name: "x", Crash: true, Ranks: []int{1}, Count: 1}, "must not set Count"},
	}
	for _, tc := range cases {
		err := CheckRule(tc.rule)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckRule = %v; want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := CheckRule(Rule{Name: "ok", Result: ccl.ErrRemote, From: 5, Until: 10}); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}

	linkCases := []struct {
		name string
		rule LinkRule
		want string
	}{
		{"inverted link window", LinkRule{Name: "lw", BWScale: 0.5, From: 10, Until: 5}, "inverted time window"},
		{"no-effect link rule", LinkRule{Name: "ln"}, "degrades nothing"},
		{"bandwidth gain", LinkRule{Name: "lb", BWScale: 1.5}, "BWScale 1.5 outside (0, 1]"},
		{"negative alpha", LinkRule{Name: "ln", AlphaScale: -1}, "negative AlphaScale"},
		// A faster α would also undercut the sharded engine's lookahead,
		// the unscaled inter-node α, and a cross-shard hop would land in
		// the receiving shard's past.
		{"alpha speed-up", LinkRule{Name: "la", Link: "inter", From: 30 * time.Microsecond, Until: 70 * time.Microsecond, AlphaScale: 0.5},
			"AlphaScale 0.5 below 1"},
	}
	for _, tc := range linkCases {
		err := CheckLinkRule(tc.rule)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckLinkRule = %v; want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := CheckLinkRule(LinkRule{Name: "ok", AlphaScale: 1, BWScale: 1}); err != nil {
		t.Errorf("valid link rule rejected: %v", err)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AddRule accepted an invalid rule without panicking")
		}
		if !strings.Contains(fmt.Sprint(r), "inverted time window") {
			t.Errorf("AddRule panic = %v; want the CheckRule error", r)
		}
	}()
	NewPlan(1).AddRule(Rule{Name: "bad", Result: ccl.ErrRemote, From: 10, Until: 5})
}

// Two degradation windows that overlap only partially in time must compose
// during the overlap and act alone outside it.
func TestOverlappingDegradationWindows(t *testing.T) {
	p := NewPlan(1)
	p.AddLinkRule(LinkRule{Name: "early", Link: "intra",
		From: 0, Until: 100 * time.Microsecond, BWScale: 0.5})
	p.AddLinkRule(LinkRule{Name: "late", Link: "intra",
		From: 50 * time.Microsecond, Until: 150 * time.Microsecond, BWScale: 0.4, AlphaScale: 3})

	lf, ok := p.DegradedLink("intra", 0, 0, 25*time.Microsecond)
	if !ok || lf.BWScale != 0.5 || lf.AlphaScale != 0 {
		t.Fatalf("early-only window = %+v (ok %v)", lf, ok)
	}
	lf, ok = p.DegradedLink("intra", 0, 0, 75*time.Microsecond)
	if !ok || lf.BWScale != 0.5*0.4 || lf.AlphaScale != 3 {
		t.Fatalf("overlap = %+v (ok %v); want scales multiplied", lf, ok)
	}
	lf, ok = p.DegradedLink("intra", 0, 0, 125*time.Microsecond)
	if !ok || lf.BWScale != 0.4 || lf.AlphaScale != 3 {
		t.Fatalf("late-only window = %+v (ok %v)", lf, ok)
	}
	if _, ok = p.DegradedLink("intra", 0, 0, 150*time.Microsecond); ok {
		t.Error("window fired at its exclusive Until bound")
	}
}

// Probability 0 means "always" (deterministic) and probability 1 must also
// fire every time — the boundaries must not consult the coin in a way that
// can round them into sometimes-misses.
func TestProbabilityBoundaries(t *testing.T) {
	p := NewPlan(7)
	p.AddRule(Rule{Name: "always0", Op: "send", Result: ccl.ErrRemote, Probability: 0})
	p.AddRule(Rule{Name: "always1", Op: "recv", Result: ccl.ErrRemote, Probability: 1})
	for i := 0; i < 50; i++ {
		if p.OpError("nccl", "send", 0, 0) == nil {
			t.Fatalf("P=0 (always) rule missed call %d", i)
		}
		if p.OpError("nccl", "recv", 0, 0) == nil {
			t.Fatalf("P=1 rule missed call %d", i)
		}
	}
}

// A call-counted crash rule whose After budget is never reached must leave
// the rank alive on every query path and report zero fires.
func TestCrashRuleAfterBudgetNeverReached(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "die", Crash: true, Ranks: []int{1}, Op: "allreduce", After: 5})

	for i := 0; i < 5; i++ {
		if p.OpCrash("nccl", "allreduce", 1, 0) {
			t.Fatalf("rank died on probe %d, inside its After=5 budget", i)
		}
	}
	if p.RankDead(1, time.Hour) {
		t.Error("rank dead without its budget consumed")
	}
	if got := p.DeadRanks(time.Hour); got != nil {
		t.Errorf("DeadRanks = %v; want none", got)
	}
	if _, ok := p.DeathTime(1); ok {
		t.Error("DeathTime set for a rank that never died")
	}
	if p.Fired("die") != 0 {
		t.Errorf("unreached crash rule fired %d times", p.Fired("die"))
	}
}

// Corrupt rules honor class/node/window scope and their After/Count
// budgets, return in-range distinct offsets, and report through Fired.
func TestCorruptRuleScopingAndOffsets(t *testing.T) {
	p := NewPlan(3)
	p.AddCorruptRule(CorruptRule{Name: "flip", Link: "inter", Nodes: []int{2},
		After: 1, Count: 2, FlipBytes: 4})

	if offs := p.CorruptTransfer("intra", 2, 2, 64, 0); offs != nil {
		t.Errorf("wrong link class corrupted: %v", offs)
	}
	if offs := p.CorruptTransfer("inter", 0, 1, 64, 0); offs != nil {
		t.Errorf("wrong nodes corrupted: %v", offs)
	}
	if offs := p.CorruptTransfer("inter", 0, 2, 64, 0); offs != nil {
		t.Errorf("After budget not honored: %v", offs)
	}
	for call := 0; call < 2; call++ {
		offs := p.CorruptTransfer("inter", 2, 0, 64, 0)
		if len(offs) != 4 {
			t.Fatalf("call %d: %d offsets, want 4", call, len(offs))
		}
		seen := map[int64]bool{}
		for _, o := range offs {
			if o < 0 || o >= 64 {
				t.Fatalf("offset %d out of range [0, 64)", o)
			}
			if seen[o] {
				t.Fatalf("duplicate offset %d (duplicate XORs would cancel)", o)
			}
			seen[o] = true
		}
	}
	if offs := p.CorruptTransfer("inter", 2, 0, 64, 0); offs != nil {
		t.Errorf("Count budget exceeded: %v", offs)
	}
	if p.Fired("flip") != 2 {
		t.Errorf("Fired = %d, want 2", p.Fired("flip"))
	}
	// More flips than bytes: every offset of a tiny transfer, no dupes.
	p2 := NewPlan(3)
	p2.AddCorruptRule(CorruptRule{Name: "all", FlipBytes: 10})
	if offs := p2.CorruptTransfer("intra", 0, 0, 3, 0); len(offs) != 3 {
		t.Errorf("3-byte transfer got %d offsets, want all 3", len(offs))
	}
	if offs := p2.CorruptTransfer("intra", 0, 0, 0, 0); offs != nil {
		t.Errorf("zero-byte transfer corrupted: %v", offs)
	}
}

func TestCorruptRuleValidation(t *testing.T) {
	cases := []struct {
		name string
		rule CorruptRule
		want string
	}{
		{"inverted window", CorruptRule{Name: "w", From: 10, Until: 5}, "inverted time window"},
		{"negative after", CorruptRule{Name: "a", After: -1}, "negative After budget"},
		{"negative count", CorruptRule{Name: "c", Count: -1}, "negative Count budget"},
		{"bad probability", CorruptRule{Name: "p", Probability: -0.5}, "outside [0, 1]"},
		{"negative flips", CorruptRule{Name: "f", FlipBytes: -1}, "negative FlipBytes"},
	}
	for _, tc := range cases {
		err := CheckCorruptRule(tc.rule)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckCorruptRule = %v; want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := CheckCorruptRule(CorruptRule{Name: "ok", Probability: 0.5}); err != nil {
		t.Errorf("valid corrupt rule rejected: %v", err)
	}
}

// DeathTime reports the moment a probe-counted crash fired, for bounding
// detection latency against the actual death.
func TestDeathTime(t *testing.T) {
	p := NewPlan(1)
	p.AddRule(Rule{Name: "die", Crash: true, Ranks: []int{0}, After: 1})
	if p.OpCrash("nccl", "allreduce", 0, 5*time.Microsecond) {
		t.Fatal("died inside budget")
	}
	if !p.OpCrash("nccl", "allreduce", 0, 9*time.Microsecond) {
		t.Fatal("second probe did not kill")
	}
	at, ok := p.DeathTime(0)
	if !ok || at != 9*time.Microsecond {
		t.Errorf("DeathTime = %v, %v; want 9µs, true", at, ok)
	}
}
