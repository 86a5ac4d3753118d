package nn

import (
	"encoding/json"
	"fmt"
)

// mlpJSON is the stable on-disk form of an MLP.
type mlpJSON struct {
	Sizes []int       `json:"sizes"`
	Act   Activation  `json:"act"`
	W     [][]float64 `json:"w"`
	B     [][]float64 `json:"b"`
}

// MarshalJSON implements json.Marshaler.
func (m *MLP) MarshalJSON() ([]byte, error) {
	return json.Marshal(mlpJSON{Sizes: m.Sizes, Act: m.Act, W: m.W, B: m.B})
}

// UnmarshalJSON implements json.Unmarshaler, validating shape consistency.
func (m *MLP) UnmarshalJSON(data []byte) error {
	var raw mlpJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if len(raw.Sizes) < 2 {
		return fmt.Errorf("nn: network needs at least 2 layer sizes")
	}
	for l, n := range raw.Sizes {
		if n <= 0 {
			return fmt.Errorf("nn: layer size %d is %d, want > 0", l, n)
		}
	}
	if raw.Act != ReLU && raw.Act != Tanh {
		return fmt.Errorf("nn: unknown activation %d", raw.Act)
	}
	if len(raw.W) != len(raw.Sizes)-1 || len(raw.B) != len(raw.Sizes)-1 {
		return fmt.Errorf("nn: layer count mismatch")
	}
	for l := 0; l+1 < len(raw.Sizes); l++ {
		// Divide rather than multiply: a product of huge sizes can wrap.
		in, out := raw.Sizes[l], raw.Sizes[l+1]
		if len(raw.W[l])%in != 0 || len(raw.W[l])/in != out {
			return fmt.Errorf("nn: layer %d weight shape mismatch", l)
		}
		if len(raw.B[l]) != out {
			return fmt.Errorf("nn: layer %d bias shape mismatch", l)
		}
	}
	m.Sizes = raw.Sizes
	m.Act = raw.Act
	m.W = raw.W
	m.B = raw.B
	return nil
}
