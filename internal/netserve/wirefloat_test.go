package netserve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/big"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is RFC 8259's number grammar, the tokens number() accepts.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// scanFloat reads tok as one float() of the scanner, refusing anything
// after the number.
func scanFloat(tok []byte) (float64, error) {
	s := scanner{data: tok}
	v := s.float()
	if s.err == nil && s.pos != len(tok) {
		s.fail("trailing data after number")
	}
	return v, s.err
}

// checkScanFloat holds the scanner to strconv.ParseFloat on one token:
// outside the JSON grammar it refuses; inside, it refuses exactly what
// strconv refuses (overflow) and otherwise returns strconv's bits.
func checkScanFloat(t *testing.T, tok []byte) {
	t.Helper()
	got, err := scanFloat(tok)
	if err != nil && !errors.Is(err, ErrBadRequest) {
		t.Fatalf("%q: rejection without ErrBadRequest chain: %v", tok, err)
	}
	trimmed := bytes.TrimLeft(tok, " \t\n\r") // the scanner skips JSON whitespace
	if !jsonNumber.Match(trimmed) {
		if err == nil {
			t.Fatalf("%q: accepted outside the JSON number grammar as %v", tok, got)
		}
		return
	}
	want, werr := strconv.ParseFloat(string(trimmed), 64)
	switch {
	case werr != nil && err == nil:
		t.Fatalf("%q: scanned %v, strconv refuses: %v", tok, got, werr)
	case werr == nil && err != nil:
		t.Fatalf("%q: scanner refuses (%v), strconv reads %v", tok, err, want)
	case werr == nil && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q: scanned %v (%#x), strconv %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// FuzzScanFloat renders a float64 with strconv.FormatFloat in any format
// and precision, and takes raw bytes beside it; the scanner must read
// each as strconv.ParseFloat does, bit for bit, or both must refuse.
func FuzzScanFloat(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64, format byte, prec int, raw []byte) {
		prec = prec%32 - 1 // -1 is the shortest form
		checkScanFloat(t, []byte(strconv.FormatFloat(math.Float64frombits(bits), format, prec, 64)))
		checkScanFloat(t, raw)
	})
}

// TestScanFloatTableRows checks that every row of the power-of-ten table
// is 10^e10 rounded down to 128 bits, converts through each row and
// holds the values to strconv's bits, then pins which tokens convert in
// a fast tier and which fall through to strconv itself.
func TestScanFloatTableRows(t *testing.T) {
	for e10 := minExp10; e10 <= maxExp10; e10++ {
		w := detailedPowersOfTen[e10-minExp10]
		row := new(big.Int).Lsh(new(big.Int).SetUint64(w[1]), 64)
		row.Or(row, new(big.Int).SetUint64(w[0]))
		next := new(big.Int).Add(row, big.NewInt(1))
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e10, -e10))), nil)
		// lo ≤ hi < lo' states row ≤ 10^e10 · 2^k < row+1 in integers.
		lo, hi, loNext := row, new(big.Int).Set(p), next
		switch sh := 128 - p.BitLen(); {
		case e10 < 0:
			lo, hi, loNext = new(big.Int).Mul(row, p), new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen())), new(big.Int).Mul(next, p)
		case sh >= 0:
			hi.Lsh(hi, uint(sh))
		default:
			lo, loNext = new(big.Int).Lsh(row, uint(-sh)), new(big.Int).Lsh(next, uint(-sh))
		}
		if row.BitLen() != 128 || lo.Cmp(hi) > 0 || hi.Cmp(loNext) >= 0 {
			t.Errorf("row 10^%d = %#x: not 10^%d rounded down to 128 bits", e10, w, e10)
		}
	}

	mantissas := []string{"1", "9007199254740992", "9007199254740993", "9999999999999999999",
		"12345678901234567", "31415926535897932", "98765432109876543"}
	for e10 := minExp10; e10 <= maxExp10; e10++ {
		lemire := 0 // values this row converted by Eisel–Lemire
		for _, m := range mantissas {
			tok := fmt.Sprintf("%se%d", m, e10)
			checkScanFloat(t, []byte(tok))
			man, _ := strconv.ParseUint(m, 10, 64)
			if _, ok := eiselLemire64(man, e10, false); ok {
				lemire++
			}
		}
		if lemire == 0 {
			t.Errorf("row 10^%d: no value converted through it", e10)
		}
	}

	for _, tok := range []string{
		"-0", "0e5", "-0e999", "1e22", "1e-22", "9007199254740992e22",
		"0.00000000000000000000000001234", // leading zeros are not significant
		"0.0000000000000000000001234567890123456789",
	} {
		s := scanner{data: []byte(tok)}
		if n := s.number(); s.err != nil {
			t.Fatalf("%q: %v", tok, s.err)
		} else if _, ok := n.float64(); !ok {
			t.Errorf("%q: left to strconv, want a fast tier", tok)
		}
		checkScanFloat(t, []byte(tok))
	}
	for _, tc := range []struct{ name, tok string }{
		{"20 digits", "12345678901234567890"},
		{"20 digits after leading zeros", "0.000000000000000000000012345678901234567891"},
		{"20 digits, fraction", "0.12345678901234567891"},
		{"trailing zeros past 19 digits", "1.00000000000000000000"},
		{"exponent above the table", "1e65"},
		{"exponent below the table", "12345678901234567e-82"},
		{"halfway, 2^53+1", "9007199254740993"},
		{"overflow", "1e309"},
		{"overflow by rounding", "1.7976931348623159e308"},
		{"largest finite", "1.7976931348623157e308"},
		{"smallest normal", "2.2250738585072014e-308"},
		{"subnormal", "2.2250738585072011e-308"},
		{"smallest subnormal", "4.9406564584124654e-324"},
		{"underflow", "1e-400"},
		{"exponent past the cap", "1e" + strings.Repeat("9", 400)},
		{"negative exponent past the cap", "1e-" + strings.Repeat("9", 400)},
		{"leading zeros against a capped exponent", "0." + strings.Repeat("0", 10010) + "1e100011"},
	} {
		s := scanner{data: []byte(tc.tok)}
		n := s.number()
		if s.err != nil {
			t.Fatalf("%s: %q: %v", tc.name, tc.tok, s.err)
		}
		if v, ok := n.float64(); ok {
			t.Errorf("%s: %q converted to %v in a fast tier, want strconv", tc.name, tc.tok, v)
		}
		checkScanFloat(t, []byte(tc.tok))
	}
}
