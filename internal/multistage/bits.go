package multistage

import "math/bits"

// Bitsets. The router's occupancy and search state are sets of module
// indices stored as []uint64, 64 members per word, least significant
// bit first. One code path serves every size: a set over 16 modules is
// one word, a set over 200 is four.

// wordsFor returns how many words a set over n members needs.
func wordsFor(n int) int { return (n + 63) / 64 }

func hasBit(s []uint64, i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

func setBit(s []uint64, i int) { s[i/64] |= 1 << (uint(i) % 64) }

func clearBit(s []uint64, i int) { s[i/64] &^= 1 << (uint(i) % 64) }

// nextBit returns the smallest member of s that is >= i, or -1. Members
// are visited in ascending order by
//
//	for i := nextBit(s, 0); i >= 0; i = nextBit(s, i+1)
func nextBit(s []uint64, i int) int {
	w := i / 64
	if w >= len(s) {
		return -1
	}
	cur := s[w] &^ (1<<(uint(i)%64) - 1)
	for cur == 0 {
		w++
		if w == len(s) {
			return -1
		}
		cur = s[w]
	}
	return w*64 + bits.TrailingZeros64(cur)
}

func isEmpty(s []uint64) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

func popCount(s []uint64) int {
	n := 0
	for _, v := range s {
		n += bits.OnesCount64(v)
	}
	return n
}

// countAnd returns |a ∩ b|.
func countAnd(a, b []uint64) int {
	n := 0
	for i, v := range a {
		n += bits.OnesCount64(v & b[i])
	}
	return n
}

// members lists the members of s in ascending order (nil when empty).
func members(s []uint64) []int {
	n := popCount(s)
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := nextBit(s, 0); i >= 0; i = nextBit(s, i+1) {
		out = append(out, i)
	}
	return out
}
