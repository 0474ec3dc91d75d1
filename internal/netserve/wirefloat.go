// Number conversion for the request scanner: the decimal a number token
// spells, as number() accumulated it, to the float64 strconv.ParseFloat
// returns for the token. Two fast tiers each return the correctly
// rounded value or decline:
//
//  1. Clinger's exact path: a mantissa of at most 2^53 and |e10| <= 22
//     are both exact float64s, so one IEEE multiply or divide rounds
//     once, correctly.
//  2. Eisel–Lemire over a 128-bit power-of-ten table for e10 in
//     [minExp10, maxExp10].
//
// What both decline — more than 19 digits, an exponent outside the
// table, a halfway case the 128-bit product cannot settle, overflow and
// underflow — float() hands to strconv.ParseFloat, which is correctly
// rounded too. So every accepted token has strconv's bits.
package netserve

import (
	"math"
	"math/big"
	"math/bits"
)

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float64 converts the decimal n spells when a fast tier can, and
// reports whether it did.
func (n *num) float64() (float64, bool) {
	if n.nd > maxDigits {
		return 0, false
	}
	if n.man <= 1<<53 && -len(pow10) < n.e10 && n.e10 < len(pow10) {
		f := float64(n.man)
		if n.e10 < 0 {
			f /= pow10[-n.e10]
		} else {
			f *= pow10[n.e10]
		}
		if n.neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire64(n.man, n.e10, n.neg)
}

// The power-of-ten table's range: wide enough for any value a client
// renders in shortest or fixed form at d-dimensional scale, small
// enough to stay a couple of KiB.
const (
	minExp10 = -64
	maxExp10 = 64
)

// detailedPowersOfTen holds 10^e10 for e10 in [minExp10, maxExp10] as a
// 128-bit mantissa rounded down, normalized so its top bit is set,
// {low, high} words — the rows of strconv's table of the same name.
var detailedPowersOfTen = powersOfTen()

func powersOfTen() (t [maxExp10 - minExp10 + 1][2]uint64) {
	for e := minExp10; e <= maxExp10; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		m := new(big.Int)
		switch {
		case e < 0: // ⌊2^(127+len) / 10^-e⌋ has exactly 128 bits
			m.Quo(m.Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		case p.BitLen() <= 128:
			m.Lsh(p, uint(128-p.BitLen()))
		default:
			m.Rsh(p, uint(p.BitLen()-128))
		}
		t[e-minExp10] = [2]uint64{m.Uint64(), m.Rsh(m, 64).Uint64()}
	}
	return t
}

// eiselLemire64 is strconv's eiselLemire64 over the table above, from
// the Go distribution's src/strconv/eisel_lemire.go:
//
//	Copyright 2020 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the Go distribution's LICENSE file.
//
// The algorithm is described at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html, whose section
// names the terse comments below follow.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, detailedPowersOfTen[exp10-minExp10][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, detailedPowersOfTen[exp10-minExp10][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
