package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/stats"
	"repro/internal/window"
)

// BitsPerNumeric is the number of state-set bits a numeric sensor occupies
// (Eqs. 3.2-3.4 each contribute one bit).
const BitsPerNumeric = 3

// Binarizer converts a window observation into a sensor state set.
//
// Bit layout: bits [0, NB) are the binary sensors in registry order
// (Eq. 3.1); bits [NB + 3j, NB + 3j + 3) belong to numeric sensor slot j and
// encode, in order, skewness > 0 (Eq. 3.2), rising trend (Eq. 3.3), and
// mean > valueThre (Eq. 3.4). A numeric sensor that reported nothing in a
// window binarizes to 000, which is what makes fail-stop faults violate the
// correlation check immediately.
type Binarizer struct {
	layout    *window.Layout
	valueThre []float64
}

// NewBinarizer builds a binarizer for the layout using the given per-slot
// numeric thresholds (the sensors' precomputation means).
func NewBinarizer(layout *window.Layout, valueThre []float64) (*Binarizer, error) {
	if layout == nil {
		return nil, fmt.Errorf("core: nil layout")
	}
	if len(valueThre) != layout.NumNumeric() {
		return nil, fmt.Errorf("core: %d thresholds for %d numeric sensors",
			len(valueThre), layout.NumNumeric())
	}
	return &Binarizer{layout: layout, valueThre: append([]float64(nil), valueThre...)}, nil
}

// Layout returns the device layout the binarizer was built for.
func (b *Binarizer) Layout() *window.Layout { return b.layout }

// ValueThre returns a copy of the numeric thresholds.
func (b *Binarizer) ValueThre() []float64 { return append([]float64(nil), b.valueThre...) }

// NumBits returns the state-set width.
func (b *Binarizer) NumBits() int {
	return b.layout.NumBinary() + BitsPerNumeric*b.layout.NumNumeric()
}

// StateSet builds the sensor state set for one observation. The observation
// must be shaped for the binarizer's layout.
func (b *Binarizer) StateSet(o *window.Observation) (*bitvec.Vec, error) {
	v := bitvec.New(b.NumBits())
	if err := b.StateSetInto(v, o); err != nil {
		return nil, err
	}
	return v, nil
}

// StateSetInto builds the state set into a caller-owned vector, overwriting
// its contents. The vector must be NumBits wide. The detector reuses one
// vector across windows through this, keeping the per-window hot path
// allocation-free.
func (b *Binarizer) StateSetInto(v *bitvec.Vec, o *window.Observation) error {
	nb, nn := b.layout.NumBinary(), b.layout.NumNumeric()
	if len(o.Binary) != nb || len(o.Numeric) != nn {
		return fmt.Errorf("core: observation shape %d/%d does not match layout %d/%d",
			len(o.Binary), len(o.Numeric), nb, nn)
	}
	if v.Len() != b.NumBits() {
		return fmt.Errorf("core: state-set vector has %d bits, layout wants %d", v.Len(), b.NumBits())
	}
	v.Reset()
	for i, fired := range o.Binary {
		if fired {
			v.Set(i)
		}
	}
	for j, samples := range o.Numeric {
		if len(samples) == 0 {
			continue // empty window: all three bits stay 0
		}
		base := nb + BitsPerNumeric*j
		if stats.Skewness(samples) > 0 {
			v.Set(base)
		}
		if samples[len(samples)-1]-samples[0] > 0 {
			v.Set(base + 1)
		}
		if stats.Mean(samples) > b.valueThre[j] {
			v.Set(base + 2)
		}
	}
	return nil
}

// DeviceForBit maps a state-set bit index back to the owning sensor, which
// is how the identification step turns differing bits into probable faulty
// sensors (Figure 3.7).
func (b *Binarizer) DeviceForBit(bit int) (device.ID, error) {
	nb := b.layout.NumBinary()
	if bit < 0 || bit >= b.NumBits() {
		return 0, fmt.Errorf("core: bit %d out of range [0, %d)", bit, b.NumBits())
	}
	if bit < nb {
		return b.layout.BinaryID(bit), nil
	}
	return b.layout.NumericID((bit - nb) / BitsPerNumeric), nil
}

// DevicesForBits maps a set of differing bits to the deduplicated set of
// owning sensors, preserving ascending device-ID order.
func (b *Binarizer) DevicesForBits(bits []int) ([]device.ID, error) {
	out := make([]device.ID, 0, len(bits))
	for _, bit := range bits {
		id, err := b.DeviceForBit(bit)
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	return setOf(out), nil
}
