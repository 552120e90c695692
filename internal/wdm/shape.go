package wdm

import "fmt"

// Shape describes a possibly rectangular WDM switch: In input ports, Out
// output ports, K wavelengths per fiber. The paper's multistage networks
// (Section 3) are built from rectangular modules — n x m in the input
// stage, r x r in the middle, m x n in the output stage — so connection
// admissibility must be checkable against distinct side sizes.
type Shape struct {
	In, Out, K int
}

// Validate checks that all dimensions are positive.
func (s Shape) Validate() error {
	if s.In <= 0 {
		return fmt.Errorf("wdm: shape In = %d, must be positive", s.In)
	}
	if s.Out <= 0 {
		return fmt.Errorf("wdm: shape Out = %d, must be positive", s.Out)
	}
	if s.K <= 0 {
		return fmt.Errorf("wdm: shape k = %d, must be positive", s.K)
	}
	return nil
}

// InSlots and OutSlots return the wavelength-slot counts per side.
func (s Shape) InSlots() int  { return s.In * s.K }
func (s Shape) OutSlots() int { return s.Out * s.K }

// InRangeSource reports whether pw is a valid input slot.
func (s Shape) InRangeSource(pw PortWave) bool {
	return pw.Port >= 0 && int(pw.Port) < s.In && pw.Wave >= 0 && int(pw.Wave) < s.K
}

// InRangeDest reports whether pw is a valid output slot.
func (s Shape) InRangeDest(pw PortWave) bool {
	return pw.Port >= 0 && int(pw.Port) < s.Out && pw.Wave >= 0 && int(pw.Wave) < s.K
}

// CheckConnection verifies structural validity and model admissibility of
// a connection against the rectangular shape. The rules are those of
// Dim.CheckConnection with the two sides sized independently.
func (s Shape) CheckConnection(model Model, c Connection) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if !s.InRangeSource(c.Source) {
		return fmt.Errorf("wdm: source %v out of range for %dx%d k=%d switch", c.Source, s.In, s.Out, s.K)
	}
	if len(c.Dests) == 0 {
		return fmt.Errorf("wdm: connection from %v has no destinations", c.Source)
	}
	// Output ports seen so far, one bit per port; the array keeps
	// switches of up to 512 output ports off the heap.
	var small [8]uint64
	seen := small[:]
	if words := (s.Out + 63) / 64; words > len(small) {
		seen = make([]uint64, words)
	}
	for _, dst := range c.Dests {
		if !s.InRangeDest(dst) {
			return fmt.Errorf("wdm: destination %v out of range for %dx%d k=%d switch", dst, s.In, s.Out, s.K)
		}
		word, bit := int(dst.Port)/64, uint64(1)<<(uint(dst.Port)%64)
		if seen[word]&bit != 0 {
			return fmt.Errorf("wdm: two destinations of one connection share output port %d", dst.Port)
		}
		seen[word] |= bit
	}
	switch model {
	case MSW:
		for _, dst := range c.Dests {
			if dst.Wave != c.Source.Wave {
				return fmt.Errorf("wdm: MSW connection from %v uses destination wavelength λ%d != source wavelength λ%d",
					c.Source, dst.Wave, c.Source.Wave)
			}
		}
	case MSDW:
		w := c.Dests[0].Wave
		for _, dst := range c.Dests[1:] {
			if dst.Wave != w {
				return fmt.Errorf("wdm: MSDW connection from %v mixes destination wavelengths λ%d and λ%d",
					c.Source, w, dst.Wave)
			}
		}
	case MAW:
		// No wavelength restriction.
	default:
		return fmt.Errorf("wdm: unknown model %v", model)
	}
	return nil
}

// CheckAssignment verifies that every connection is admissible and that
// connections are pairwise compatible (no shared source or destination
// slot).
func (s Shape) CheckAssignment(model Model, a Assignment) error {
	srcUsed := make(map[PortWave]int, len(a))
	dstUsed := make(map[PortWave]int, s.OutSlots())
	for i, c := range a {
		if err := s.CheckConnection(model, c); err != nil {
			return fmt.Errorf("connection %d: %w", i, err)
		}
		if j, dup := srcUsed[c.Source]; dup {
			return fmt.Errorf("wdm: connections %d and %d share source slot %v", j, i, c.Source)
		}
		srcUsed[c.Source] = i
		for _, dst := range c.Dests {
			if j, dup := dstUsed[dst]; dup {
				return fmt.Errorf("wdm: connections %d and %d share destination slot %v", j, i, dst)
			}
			dstUsed[dst] = i
		}
	}
	return nil
}

// SlotSet is the set of occupied wavelength slots on one side of a
// switch: one bit per slot, indexed by PortWave.Index, so a lookup
// neither hashes nor allocates and a switch side costs ports*k bits.
type SlotSet struct {
	k    int
	bits []uint64
	n    int
}

// NewSlotSet returns an empty set over ports x k slots.
func NewSlotSet(ports, k int) SlotSet {
	return SlotSet{k: k, bits: make([]uint64, (ports*k+63)/64)}
}

// Has reports whether pw is occupied.
func (s *SlotSet) Has(pw PortWave) bool {
	i := pw.Index(s.k)
	return s.bits[i/64]&(1<<(uint(i)%64)) != 0
}

// Add marks pw occupied.
func (s *SlotSet) Add(pw PortWave) {
	if !s.Has(pw) {
		i := pw.Index(s.k)
		s.bits[i/64] |= 1 << (uint(i) % 64)
		s.n++
	}
}

// Remove marks pw free.
func (s *SlotSet) Remove(pw PortWave) {
	if s.Has(pw) {
		i := pw.Index(s.k)
		s.bits[i/64] &^= 1 << (uint(i) % 64)
		s.n--
	}
}

// Len returns the number of occupied slots.
func (s *SlotSet) Len() int { return s.n }

// Shape converts square dimensions to the equivalent Shape.
func (d Dim) Shape() Shape { return Shape{In: d.N, Out: d.N, K: d.K} }
