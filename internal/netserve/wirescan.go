// The request-body scanner: one forward pass over the bytes, no
// reflection. It knows the engine's shape, so a vector is parsed
// straight into a slice of dims capacity and a body is refused at the
// first element or row the engine could never use. A number token is
// checked against the RFC 8259 grammar and converted in the same pass
// (wirefloat.go): Clinger's exact path, then Eisel–Lemire, then
// strconv.ParseFloat on the token, as encoding/json converts it. The
// first two return the correctly rounded value or decline, and strconv
// is correctly rounded, so an accepted value has the same bits either
// way. A string with an escape or a non-ASCII byte goes through
// json.Unmarshal, which stays the arbiter of string semantics.
package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// scanner walks one request body. Every method skips leading
// whitespace and leaves pos just past what it consumed. The first
// mismatch sticks in err (an ErrBadRequest naming the byte offset) and
// ends every loop; what is scanned after it is discarded with the
// request.
type scanner struct {
	data []byte
	pos  int
	err  error
	// dims and maxRows bound a vector and a batch of them: parse work
	// and allocation are capped by the engine's shape, not the body's.
	dims, maxRows int
}

func (s *scanner) fail(format string, a ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("%w: offset %d: %s", ErrBadRequest, s.pos, fmt.Sprintf(format, a...))
	}
}

// space skips JSON whitespace and returns the next byte, 0 at the end
// of input (a literal NUL is valid nowhere a caller looks).
func (s *scanner) space() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// lit consumes the structural byte c.
func (s *scanner) lit(c byte) bool {
	if s.space() != c {
		s.fail("expected %q", c)
		return false
	}
	s.pos++
	return true
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool {
	if s.space(); !bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		return false
	}
	s.pos += 4
	return true
}

// str scans a string token and returns its value: the bytes between the
// quotes when they are plain ASCII, json.Unmarshal's reading of the
// token (escapes decoded, invalid UTF-8 replaced) otherwise.
func (s *scanner) str() []byte {
	if !s.lit('"') {
		return nil
	}
	start, plain := s.pos, true
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			if plain {
				return s.data[start:i]
			}
			var v string
			if err := json.Unmarshal(s.data[start-1:s.pos], &v); err != nil {
				s.fail("%v", err)
			}
			return []byte(v)
		case c == '\\':
			plain = false
			i++ // whatever is escaped, it does not end the token
		case c < 0x20 || c >= 0x80:
			plain = false // json.Unmarshal refuses the control character
		}
	}
	s.fail("unterminated string")
	return nil
}

// num is one number token and the decimal it spells, ±man × 10^e10:
// nd counts the significant digits, and past maxDigits (or with an
// exponent past expCap) man is not the whole decimal and only strconv
// can read the token.
type num struct {
	tok     []byte
	man     uint64
	nd, e10 int
	neg     bool
}

const (
	maxDigits = 19 // decimal digits a uint64 always holds
	// expCap bounds the exponent number() reads, so no digit string
	// overflows an int; a token that reaches it is left to strconv.
	expCap = 1e4
)

// leadingZeros counts the zero digits before the first nonzero one in
// a run of digits and at most one '.'.
func leadingZeros(b []byte) int {
	n := 0
	for _, c := range b {
		switch c {
		case '0':
			n++
		case '.':
		default:
			return n
		}
	}
	return n
}

// number scans one number token by the RFC 8259 grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which strconv alone
// does not enforce (it takes "+1", ".5", "1.", "01", hex, "_", "Inf"),
// and accumulates the decimal in the same forward pass.
func (s *scanner) number() num {
	s.space()
	d, i := s.data, s.pos
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start, man, e10 := i, uint64(0), 0
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		man = man*10 + uint64(d[i]-'0')
	}
	nd := i - start
	ok := nd > 0 && (d[start] != '0' || nd == 1) // no leading zero
	if ok && i < len(d) && d[i] == '.' {
		frac := i + 1
		for i = frac; i < len(d) && d[i]-'0' <= 9; i++ {
			man = man*10 + uint64(d[i]-'0')
		}
		nd, e10 = nd+i-frac, frac-i
		ok = e10 < 0
	}
	if nd > maxDigits { // man wrapped, unless enough digits were leading zeros
		nd -= leadingZeros(d[start:i])
	}
	if ok && i < len(d) && d[i]|0x20 == 'e' {
		sign := 1
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			if d[i] == '-' {
				sign = -1
			}
			i++
		}
		exp, x := i, 0
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			x = min(x*10+int(d[i]-'0'), expCap)
		}
		if x == expCap {
			nd = maxDigits + 1
		}
		ok, e10 = i > exp, e10+sign*x
	}
	if !ok {
		s.fail("malformed number")
		return num{}
	}
	n := num{tok: d[s.pos:i], man: man, nd: nd, e10: e10, neg: neg}
	s.pos = i
	return n
}

// float scans a number as float64, with the bits strconv.ParseFloat
// (and so encoding/json) gives the token: num.float64 converts it in
// place when it can, strconv reads the token when it cannot. Overflow
// (1e999) is strconv's range error and refused; underflow (1e-400) is
// 0.
func (s *scanner) float() float64 {
	n := s.number()
	if v, ok := n.float64(); ok {
		return v
	}
	v, err := strconv.ParseFloat(string(n.tok), 64)
	if err != nil {
		s.fail("%v", err)
	}
	return v
}

// integer scans a number as int: a fraction or exponent ("1.0", "1e0")
// is refused like an overflow, as encoding/json does for an int field.
func (s *scanner) integer() int {
	v, err := strconv.Atoi(string(s.number().tok))
	if err != nil {
		s.fail("%v", err)
	}
	return v
}

// list walks one comma-separated sequence between the opening and
// closing bytes, calling elem at each element; element limit+1 is
// refused before it is parsed.
func (s *scanner) list(opening, closing byte, limit int, elem func()) {
	if !s.lit(opening) {
		return
	}
	if s.space() == closing {
		s.pos++
		return
	}
	for n := 0; s.err == nil; n++ {
		if n == limit {
			s.fail("more than %d elements", limit)
			return
		}
		if elem(); s.err == nil && s.space() == closing {
			s.pos++
			return
		}
		s.lit(',')
	}
}

// vector scans an array of at most dims numbers.
func (s *scanner) vector() []float64 {
	out := make([]float64, 0, s.dims)
	s.list('[', ']', s.dims, func() { out = append(out, s.float()) })
	return out
}

// field binds one key of a request body to where its value goes; the
// destination's type picks the scan: *string, *int, *float64,
// *[]float64 (a vector) or *[][]float64 (a batch of them).
type field struct {
	name string
	dst  any
}

// object walks the body — one object, then nothing but whitespace —
// scanning each key's value into its field. Keys must equal a field's
// name byte for byte (encoding/json would fold case) and none may
// repeat (encoding/json would let the last win). A null value leaves
// its field absent, as for encoding/json; no scan below takes one, so
// null inside a vector is refused (encoding/json read it as 0.0).
func (s *scanner) object(fields ...field) error {
	seen := 0
	s.list('{', '}', len(fields), func() {
		key := s.str()
		f := slices.IndexFunc(fields, func(f field) bool { return f.name == string(key) })
		if f < 0 || seen&(1<<f) != 0 {
			s.fail("unknown or repeated field %q", key) // or str has failed already
			return
		}
		seen |= 1 << f
		if !s.lit(':') || s.null() {
			return
		}
		switch dst := fields[f].dst.(type) {
		case *string:
			*dst = string(s.str())
		case *int:
			*dst = s.integer()
		case *float64:
			*dst = s.float()
		case *[]float64:
			*dst = s.vector()
		case *[][]float64:
			s.list('[', ']', s.maxRows, func() { *dst = append(*dst, s.vector()) })
		}
	})
	if s.space(); s.pos != len(s.data) {
		s.fail("trailing data after JSON body")
	}
	return s.err
}
