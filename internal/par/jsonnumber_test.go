package par

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// CheckFastPaths requires the decoder's fast paths to take all of body, a
// WriteJSON output: triple must decode every element of every "sim" array,
// and every number must scan in one pass and convert without strconv (to
// strconv's bits by fastFloat; an integral one also as an integer of at
// most 18 digits). It returns the triples and numbers seen.
// It is exported, from a test file only, for the par_test tests that hold
// the P-1K body to it.
func CheckFastPaths(body []byte) (triples, numbers int, err error) {
	for i := 0; i < len(body); i++ {
		switch c := body[i]; {
		case c == '"':
			if hasKey(body, i, `"sim":[`) {
				n, end, err := checkTriples(body, i+len(`"sim":[`))
				if err != nil {
					return 0, 0, err
				}
				triples += n
				i = end - 1
				continue
			}
			for i++; body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++
				}
			}
		case isNumber(c):
			num, end, bad := scanNumber(body, i)
			tok := string(body[i:end])
			if bad != "" {
				return 0, 0, fmt.Errorf("number at offset %d: %s", i, bad)
			}
			if err := checkFastFloat(tok, num); err != nil {
				return 0, 0, err
			}
			numbers++
			i = end - 1
		}
	}
	return triples, numbers, nil
}

// checkTriples runs triple over the elements of the "sim" array whose
// first element is at data[at:], checking each one's numbers as
// CheckFastPaths does, and returns their count and the offset after the
// array.
func checkTriples(data []byte, at int) (n, end int, err error) {
	d := &jsonDecoder{data: data, off: at}
	if data[at] == ']' {
		return 0, at + 1, nil
	}
	for {
		var p pairJSON
		start := d.off
		if !d.triple(&p) {
			return 0, 0, fmt.Errorf("triple at offset %d took the general path: %.40s", start, data[start:])
		}
		at := start + bytes.LastIndexByte(data[start:d.off], ':') + 1
		num, end, _ := scanNumber(data, at)
		if err := checkFastFloat(string(data[at:end]), num); err != nil {
			return 0, 0, fmt.Errorf("triple %s: %v", data[start:d.off], err)
		}
		n++
		d.off++
		switch data[d.off-1] {
		case ']':
			return n, d.off, nil
		case ',':
		default:
			return 0, 0, fmt.Errorf("offset %d: %q after a triple", d.off-1, data[d.off-1])
		}
	}
}

// checkFastFloat requires num, scanned from tok, to convert by fastFloat
// to the bits strconv gives tok, and an integral num to fit the integer
// fast path.
func checkFastFloat(tok string, num decimal) error {
	if num.integral && num.digits > 18 {
		return fmt.Errorf("integer %s has %d digits", tok, num.digits)
	}
	want, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return err
	}
	f, ok := num.fastFloat()
	if !ok {
		return fmt.Errorf("number %s left to strconv", tok)
	}
	if math.Float64bits(f) != math.Float64bits(want) {
		return fmt.Errorf("number %s: %v, strconv %v", tok, f, want)
	}
	return nil
}

func TestCheckFastPathsCatchesSlowSpellings(t *testing.T) {
	for _, body := range []string{
		`{"sim":[{"i":0,"j":1,"s":0.5},{"i":0, "j":2,"s":0.5}]}`,
		`{"sim":[{"i":0,"j":1,"s":0.5},{"j":2,"i":0,"s":0.5}]}`,
		`{"sim":[{"i":0,"j":1,"s":0.12345678901234567891}]}`,
		`{"costs":[0.12345678901234567891]}`,
		`{"costs":[5e-324]}`,
		`{"costs":[1234567890123456789]}`,
	} {
		if _, _, err := CheckFastPaths([]byte(body)); err == nil {
			t.Errorf("%s passed", body)
		}
	}
	triples, numbers, err := CheckFastPaths([]byte(`{"name":"\"sim\":[","sim":[{"i":0,"j":1,"s":0.5}],"costs":[1,-2.5e-3]}`))
	if err != nil || triples != 1 || numbers != 2 {
		t.Errorf("%d triples, %d numbers, %v; want 1, 2, nil", triples, numbers, err)
	}
}

// checkParseFloat holds parseFloat to strconv.ParseFloat on tok when tok
// is one JSON number: the same bits, or an error from both.
func checkParseFloat(t *testing.T, tok string) {
	t.Helper()
	num, end, bad := scanNumber([]byte(tok), 0)
	if bad != "" || end != len(tok) {
		return
	}
	got, err := parseFloat([]byte(tok), num)
	want, wantErr := strconv.ParseFloat(tok, 64)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, strconv error %v", tok, err, wantErr)
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v (%#x), strconv %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// parseFloatCases are hand-picked: exact and halfway cases around 2^53,
// float64's limits and subnormals, 19- and 20-digit mantissas, exponent
// spellings and the table's edges.
var parseFloatCases = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "0e999999", "-0e-999999", "0.000000000000000000000000000",
	"1", "-1", "0.1", "0.2", "0.3", "0.30000000000000004", "1e23", "8.98846567431158e307",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"9007199254740993.0000000000001", "18014398509481985", "18014398509481987",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e309",
	"-1.7976931348623157e308", "-1e309", "1e308", "1e-307", "1e-308", "1e-323", "1e-324",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"4.9406564584124654e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"1e-07", "1E+2", "1e+0", "1E-0", "123e-2", "0.000001", "1e21", "1e22",
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "99999999999999999999",
	"0.1234567890123456789", "0.12345678901234567891", "1.000000000000000000", "1.0000000000000000000",
	"1e-348", "1e-349", "1e347", "1e348", "1e-342", "1e-343", "9.999999999999999e-343",
	"7.2057594037927933e16", "3.0316488252093987e-301", "1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124", "4.4501477170144023e-308",
	// Exponents and mantissas that wrap a uint64 to a small value.
	"1e18446744073709551617", "1e-18446744073709551616", "18446744073709551617", "18446744073709551617e-19",
}

func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, tok := range parseFloatCases {
		checkParseFloat(t, tok)
	}
	rng := rand.New(rand.NewSource(25))
	for n := 0; n < 200000; n++ {
		var f float64
		switch n % 4 {
		case 0:
			f = math.Float64frombits(rng.Uint64())
		case 1:
			f = rng.Float64() // a similarity's range
		case 2:
			f = rng.ExpFloat64() * 1e6 // a cost's range
		default:
			f = math.Float64frombits(rng.Uint64() >> 1 & (1<<63 - 1)) // positive, subnormals too
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		s := strconv.FormatFloat(f, 'g', -1, 64)
		checkParseFloat(t, s)
		if got, err := parseFloat([]byte(s), mustScan(t, s)); err != nil || got != f {
			t.Fatalf("%s: %v, %v; want %v", s, got, err, f)
		}
		// The same digits at other lengths and exponents, rounded
		// anywhere rather than only at the shortest form.
		mant := strconv.FormatUint(rng.Uint64()%1e19, 10) + strconv.FormatUint(rng.Uint64()%1e4, 10)
		checkParseFloat(t, "0."+mant[:1+rng.Intn(len(mant)-1)]+"e"+strconv.Itoa(rng.Intn(700)-350))
	}
}

func mustScan(t *testing.T, tok string) decimal {
	t.Helper()
	num, end, bad := scanNumber([]byte(tok), 0)
	if bad != "" || end != len(tok) {
		t.Fatalf("%s: not one JSON number (%s at %d)", tok, bad, end)
	}
	return num
}

// FuzzParseFloat holds parseFloat to strconv.ParseFloat: each input is
// tried as given, when it is one JSON number, and as the number built from
// its digits with a decimal point at point and an exponent exp.
func FuzzParseFloat(f *testing.F) {
	for i, tok := range parseFloatCases {
		f.Add(tok, uint8(i), int16(i*37%700-350))
	}
	f.Fuzz(func(t *testing.T, s string, point uint8, exp int16) {
		checkParseFloat(t, s)
		mant := strings.Map(func(r rune) rune {
			if '0' <= r && r <= '9' {
				return r
			}
			return -1
		}, s)
		if mant == "" {
			return
		}
		k := int(point) % (len(mant) + 1)
		tok := strings.TrimLeft(mant[:k], "0")
		if tok == "" {
			tok = "0"
		}
		if k < len(mant) {
			tok += "." + mant[k:]
		}
		if exp != 0 {
			tok += "e" + strconv.Itoa(int(exp))
		}
		if strings.HasPrefix(s, "-") {
			tok = "-" + tok
		}
		checkParseFloat(t, tok)
	})
}

// TestPowersOfTenTable checks every entry of the generated table against
// its definition, by exact rational arithmetic: a 128-bit m with its top
// bit set and m·2^s ≤ 10^e < (m+1)·2^s, where s is the binary exponent
// eiselLemire64 implies for e.
func TestPowersOfTenTable(t *testing.T) {
	two, ten := big.NewRat(2, 1), big.NewRat(10, 1)
	pow := func(b *big.Rat, e int) *big.Rat {
		r := big.NewRat(1, 1)
		for ; e > 0; e-- {
			r.Mul(r, b)
		}
		for ; e < 0; e++ {
			r.Quo(r, b)
		}
		return r
	}
	for e := powersOfTenMinExp10; e <= powersOfTenMaxExp10; e++ {
		w := powersOfTen[e-powersOfTenMinExp10]
		m := new(big.Int).Lsh(new(big.Int).SetUint64(w[1]), 64)
		m.Or(m, new(big.Int).SetUint64(w[0]))
		if m.BitLen() != 128 {
			t.Fatalf("1e%d: mantissa %x has %d bits", e, m, m.BitLen())
		}
		scale := pow(two, (217706*e>>16)+1-128)
		lo := new(big.Rat).Mul(new(big.Rat).SetInt(m), scale)
		hi := new(big.Rat).Mul(new(big.Rat).SetInt(m.Add(m, big.NewInt(1))), scale)
		if p := pow(ten, e); lo.Cmp(p) > 0 || hi.Cmp(p) <= 0 {
			t.Fatalf("1e%d: %x·2^s does not round 10^e down", e, w)
		}
	}
	// Two entries as strconv lists them.
	if w := powersOfTen[43-powersOfTenMinExp10]; w != [2]uint64{0x6D9CCD05D0000000, 0xE596B7B0C643C719} {
		t.Errorf("1e43 = %#x", w)
	}
	if w := powersOfTen[0]; w != [2]uint64{0x1732C869CD60E453, 0xFA8FD5A0081C0288} {
		t.Errorf("1e-348 = %#x", w)
	}
}
