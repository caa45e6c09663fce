// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style license that can be
// found in Go's LICENSE file (https://go.dev/LICENSE).
//
// atof64exact and eiselLemire64 are strconv's two fast decimal-to-float64
// conversions (src/strconv/atof.go and eisel_lemire.go), unchanged but for
// names and the table lookup; strconv does not export them. The table of powers of ten that
// eiselLemire64 reads is generated at init below, where strconv lists it.

package par

import (
	"math"
	"math/big"
	"math/bits"
)

// fastFloat converts num as strconv.ParseFloat converts its token, by
// strconv's own fast paths in strconv's order: an exact conversion in
// float64 arithmetic, then Eisel–Lemire. ok is false when neither
// decides: more than 19 significant digits, an exponent outside the
// table, a rounding Eisel–Lemire cannot settle, and a subnormal, infinite
// or out-of-range result. The caller then converts the token with strconv.
func (num decimal) fastFloat() (f float64, ok bool) {
	if num.digits > 19 {
		return 0, false
	}
	if f, ok := atof64exact(num.man, num.exp, num.neg); ok {
		return f, true
	}
	return eiselLemire64(num.man, num.exp, num.neg)
}

// float64pow10 holds the powers of ten that float64 represents exactly.
var float64pow10 = []float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// atof64exact converts ±mantissa × 10^exp in float64 arithmetic when that
// is exact up to one correctly rounded operation. Three common cases:
//
//	value is exact integer
//	value is exact integer * exact power of ten
//	value is exact integer / exact power of ten
//
// These all produce potentially inexact but correctly rounded answers.
func atof64exact(mantissa uint64, exp int, neg bool) (f float64, ok bool) {
	if mantissa>>52 != 0 {
		return
	}
	f = float64(mantissa)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		// an integer.
		return f, true
	// Exact integers are <= 10^15.
	// Exact powers of ten are <= 10^22.
	case exp > 0 && exp <= 15+22: // int * 10^k
		// If exponent is big but number of digits is not,
		// can move a few zeros into the integer part.
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			// the exponent was really too large.
			return
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22: // int / 10^k
		return f / float64pow10[-exp], true
	}
	return
}

// eiselLemire64 converts ±man × 10^exp10 to the nearest float64 by Lemire's
// algorithm ("Number Parsing at a Gigabyte per Second", Software: Practice
// and Experience, 2021). ok is false when it cannot decide the rounding,
// when exp10 lies outside the table, and when the result would be
// subnormal, infinite or NaN. A zero mantissa gives ±0 at any exponent.
// The terse comments refer to the sections of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < powersOfTenMinExp10 || powersOfTenMaxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	pow := &powersOfTen[exp10-powersOfTenMinExp10]
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
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
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// The first and last exponents of powersOfTen, both inclusive: strconv's
// range.
const (
	powersOfTenMinExp10 = -348
	powersOfTenMaxExp10 = +347
)

// powersOfTen holds, for each 10^e in the range above, the 128 leading
// bits of its binary expansion, rounded down, as {low, high} words: the
// high word's top bit is set, and the binary exponent is implied by the
// slope 217706/65536 ≈ log2(10) that eiselLemire64 applies.
var powersOfTen = func() (t [powersOfTenMaxExp10 - powersOfTenMinExp10 + 1][2]uint64) {
	ten := big.NewInt(10)
	// 10^-e as 2^k / 10^e, for a k that leaves the quotient at least 128
	// bits long.
	p := big.NewInt(1)
	var q, num big.Int
	for e := 0; e <= -powersOfTenMinExp10; e++ {
		num.Lsh(big.NewInt(1), uint(p.BitLen()+128))
		q.Quo(&num, p)
		t[-e-powersOfTenMinExp10] = leading128(&q)
		p.Mul(p, ten)
	}
	p.SetInt64(1)
	for e := 0; e <= powersOfTenMaxExp10; e++ {
		t[e-powersOfTenMinExp10] = leading128(p)
		p.Mul(p, ten)
	}
	return t
}()

// leading128 returns the 128 leading bits of the positive x, rounded down
// (zero-padded when x is shorter), as {low, high} words.
func leading128(x *big.Int) [2]uint64 {
	var m big.Int
	if n := x.BitLen(); n > 128 {
		m.Rsh(x, uint(n-128))
	} else {
		m.Lsh(x, uint(128-n))
	}
	var lo big.Int
	lo.And(&m, new(big.Int).SetUint64(math.MaxUint64))
	return [2]uint64{lo.Uint64(), m.Rsh(&m, 64).Uint64()}
}
