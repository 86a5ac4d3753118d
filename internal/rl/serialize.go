package rl

import (
	"encoding/json"
	"fmt"
	"os"

	"autophase/internal/nn"
)

// Snapshot is the persisted form of a trained agent: the policy network,
// the action-head layout, and the frozen observation-filter statistics, so
// inference sessions reproduce training-time behaviour exactly.
type Snapshot struct {
	Kind       string    `json:"kind"` // "ppo", "a3c", "es"
	Dims       []int     `json:"dims"`
	Policy     *nn.MLP   `json:"policy"`
	Value      *nn.MLP   `json:"value,omitempty"`
	FilterN    float64   `json:"filter_n"`
	FilterMean []float64 `json:"filter_mean"`
	FilterM2   []float64 `json:"filter_m2"`
}

func filterState(f *MeanStd) (float64, []float64, []float64) {
	if f == nil {
		return 0, nil, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n, append([]float64(nil), f.mean...), append([]float64(nil), f.m2...)
}

func restoreFilter(n float64, mean, m2 []float64) *MeanStd {
	if mean == nil {
		return nil
	}
	return &MeanStd{n: n, mean: mean, m2: m2}
}

// Snapshot captures the PPO agent's inference-relevant state.
func (p *PPO) Snapshot() *Snapshot {
	n, mean, m2 := filterState(p.Filter)
	return &Snapshot{
		Kind: "ppo", Dims: p.Policy.Dims,
		Policy: p.Policy.Net, Value: p.Value,
		FilterN: n, FilterMean: mean, FilterM2: m2,
	}
}

// RestorePPO rebuilds an inference-ready PPO agent from a snapshot.
func RestorePPO(s *Snapshot) (*PPO, error) {
	if s.Kind != "ppo" {
		return nil, fmt.Errorf("rl: snapshot kind %q is not ppo", s.Kind)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	cfg := DefaultPPO()
	p := NewPPO(cfg, s.Policy.Sizes[0], s.Dims)
	p.Policy.Net = s.Policy
	if s.Value != nil {
		p.Value = s.Value
	}
	p.Filter = restoreFilter(s.FilterN, s.FilterMean, s.FilterM2)
	return p, nil
}

// Save writes the snapshot to a JSON file.
func (s *Snapshot) Save(path string) error {
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadSnapshot reads a snapshot from a JSON file.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// DecodeSnapshot parses a JSON snapshot and checks that its parts fit
// together, so a snapshot that decodes restores and acts without panicking.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("rl: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks the snapshot's shapes against each other: the action
// heads tile the policy's output, the filter matches its input, and the
// value net maps the same input to one value. The networks' own layer
// shapes are checked when they decode.
func (s *Snapshot) validate() error {
	if s.Policy == nil || len(s.Dims) == 0 {
		return fmt.Errorf("rl: incomplete snapshot")
	}
	in, width := s.Policy.Sizes[0], s.Policy.Sizes[len(s.Policy.Sizes)-1]
	total := 0
	for _, d := range s.Dims {
		if d <= 0 || d > width {
			return fmt.Errorf("rl: action head of size %d", d)
		}
		total += d
	}
	if total != width {
		return fmt.Errorf("rl: action heads cover %d logits, policy has %d", total, width)
	}
	if s.FilterMean != nil || s.FilterM2 != nil {
		if len(s.FilterMean) != in || len(s.FilterM2) != in {
			return fmt.Errorf("rl: filter has %d means and %d moments for %d inputs",
				len(s.FilterMean), len(s.FilterM2), in)
		}
	}
	if s.FilterN < 0 {
		return fmt.Errorf("rl: filter count %g is negative", s.FilterN)
	}
	if v := s.Value; v != nil && (v.Sizes[0] != in || v.Sizes[len(v.Sizes)-1] != 1) {
		return fmt.Errorf("rl: value net maps %d inputs to %d outputs, want %d to 1",
			v.Sizes[0], v.Sizes[len(v.Sizes)-1], in)
	}
	return nil
}
