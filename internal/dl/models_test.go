package dl

import (
	"fmt"
	"testing"
)

// Model inventories beyond ResNet-50, for workloads with different
// gradient-size mixes: VGG-16 (few huge FC tensors — bandwidth bound) and
// BERT-Base (many same-sized transformer blocks — latency and fusion
// sensitive). TestHybridWinVariesByModel trains on them to show how the
// hybrid design's win varies with tensor-size distribution.

// vgg16 builds the VGG-16 parameter inventory: 13 conv layers, 3 fully
// connected layers (≈138M parameters, dominated by the 102M-parameter fc1).
func vgg16() *Model {
	m := &Model{Name: "vgg16"}
	add := func(name string, elems int64) {
		m.Tensors = append(m.Tensors, Tensor{Name: name, Elems: elems})
	}
	conv := func(name string, cin, cout int64) {
		add(name+"/kernel", 3*3*cin*cout)
		add(name+"/bias", cout)
	}
	cfg := []struct {
		blocks    int
		cin, cout int64
	}{
		{2, 3, 64}, {2, 64, 128}, {3, 128, 256}, {3, 256, 512}, {3, 512, 512},
	}
	for si, st := range cfg {
		cin := st.cin
		for b := 0; b < st.blocks; b++ {
			conv(fmt.Sprintf("conv%d_%d", si+1, b+1), cin, st.cout)
			cin = st.cout
		}
	}
	add("fc1/kernel", 25088*4096)
	add("fc1/bias", 4096)
	add("fc2/kernel", 4096*4096)
	add("fc2/bias", 4096)
	add("fc3/kernel", 4096*1000)
	add("fc3/bias", 1000)
	reverse(m.Tensors)
	return m
}

// bertBase builds the BERT-Base parameter inventory: 12 transformer layers
// of hidden size 768 with 4×768 feed-forward, plus embeddings
// (≈110M parameters across ~200 tensors).
func bertBase() *Model {
	m := &Model{Name: "bert-base"}
	add := func(name string, elems int64) {
		m.Tensors = append(m.Tensors, Tensor{Name: name, Elems: elems})
	}
	const h = 768
	const ff = 4 * h
	add("embeddings/word", 30522*h)
	add("embeddings/position", 512*h)
	add("embeddings/token_type", 2*h)
	add("embeddings/ln_gamma", h)
	add("embeddings/ln_beta", h)
	for l := 0; l < 12; l++ {
		p := fmt.Sprintf("layer%d", l)
		for _, part := range []string{"query", "key", "value", "attn_out"} {
			add(p+"/"+part+"/kernel", h*h)
			add(p+"/"+part+"/bias", h)
		}
		add(p+"/attn_ln_gamma", h)
		add(p+"/attn_ln_beta", h)
		add(p+"/ffn_in/kernel", h*ff)
		add(p+"/ffn_in/bias", ff)
		add(p+"/ffn_out/kernel", ff*h)
		add(p+"/ffn_out/bias", h)
		add(p+"/ffn_ln_gamma", h)
		add(p+"/ffn_ln_beta", h)
	}
	add("pooler/kernel", h*h)
	add("pooler/bias", h)
	reverse(m.Tensors)
	return m
}

func reverse(ts []Tensor) {
	for i, j := 0, len(ts)-1; i < j; i, j = i+1, j-1 {
		ts[i], ts[j] = ts[j], ts[i]
	}
}

func TestVGG16Inventory(t *testing.T) {
	m := vgg16()
	params := m.Params()
	// Canonical VGG-16 has ≈138M parameters.
	if params < 134_000_000 || params > 140_000_000 {
		t.Fatalf("params = %d, want ≈138M", params)
	}
	// fc1 dominates: one tensor with 102M parameters.
	var biggest int64
	for _, ts := range m.Tensors {
		if ts.Elems > biggest {
			biggest = ts.Elems
		}
	}
	if biggest != 25088*4096 {
		t.Fatalf("largest tensor = %d, want fc1's %d", biggest, 25088*4096)
	}
	// Backprop order: classifier first.
	if m.Tensors[0].Name != "fc3/bias" {
		t.Fatalf("first tensor = %s", m.Tensors[0].Name)
	}
}

func TestBERTBaseInventory(t *testing.T) {
	m := bertBase()
	params := m.Params()
	// BERT-Base is ≈110M parameters.
	if params < 106_000_000 || params > 113_000_000 {
		t.Fatalf("params = %d, want ≈110M", params)
	}
	if len(m.Tensors) < 180 || len(m.Tensors) > 210 {
		t.Fatalf("tensor count = %d, want ≈197", len(m.Tensors))
	}
}

// Each built-in inventory carries the name that reports and exhibits
// label it with.
func TestModelsRegistry(t *testing.T) {
	for name, mk := range map[string]func() *Model{
		"resnet50":  ResNet50,
		"vgg16":     vgg16,
		"bert-base": bertBase,
	} {
		m := mk()
		if m.Name != name {
			t.Errorf("%s: Name = %q", name, m.Name)
		}
		if m.Params() == 0 {
			t.Errorf("%s has no parameters", name)
		}
	}
}

// Workload sensitivity: VGG's giant FC tensors make training bandwidth
// bound, so the hybrid design's win over pure CCL shrinks versus BERT's
// many medium tensors.
func TestHybridWinVariesByModel(t *testing.T) {
	ratio := func(model *Model) float64 {
		run := func(engine Engine) float64 {
			rep, err := Train(Config{System: "thetagpu", Nodes: 1, BatchSize: 64,
				Steps: 1, Engine: engine, Model: model})
			if err != nil {
				t.Fatal(err)
			}
			return rep.ImgPerSec
		}
		return run(EngineXCCL) / run(EnginePureCCL)
	}
	bert := ratio(bertBase())
	vgg := ratio(vgg16())
	if bert <= 1.0 {
		t.Errorf("hybrid should win on BERT, ratio %.3f", bert)
	}
	if vgg >= bert {
		t.Errorf("bandwidth-bound VGG (%.3f) should show a smaller hybrid win than BERT (%.3f)", vgg, bert)
	}
}
