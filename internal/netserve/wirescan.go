// The request-body scanner: one forward pass over the bytes, no
// reflection. It knows the engine's shape, so a vector is parsed
// straight into a slice of dims capacity and a body is refused at the
// first element or row the engine could never use. Number tokens are
// checked against the RFC 8259 grammar and then converted by strconv,
// as encoding/json converts them, so an accepted value has the same
// bits either way; a string with an escape or a non-ASCII byte goes
// through json.Unmarshal, which stays the arbiter of string semantics.
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

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && d[i]-'0' <= 9 {
		i++
	}
	return i
}

// number scans one number token by the RFC 8259 grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which strconv alone
// does not enforce (it takes "+1", ".5", "1.", "01", hex, "_", "Inf").
func (s *scanner) number() []byte {
	s.space()
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	j := digits(d, i)
	ok := j > i && (d[i] != '0' || j == i+1) // no leading zero
	if i = j; ok && i < len(d) && d[i] == '.' {
		j = digits(d, i+1)
		ok, i = j > i+1, j
	}
	if ok && i < len(d) && d[i]|0x20 == 'e' {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j = digits(d, i)
		ok, i = j > i, j
	}
	if !ok {
		s.fail("malformed number")
		return nil
	}
	tok := d[s.pos:i]
	s.pos = i
	return tok
}

// float scans a number as float64. Overflow (1e999) is strconv's range
// error and refused; underflow (1e-400) is 0, as for encoding/json.
func (s *scanner) float() float64 {
	v, err := strconv.ParseFloat(string(s.number()), 64)
	if err != nil {
		s.fail("%v", err)
	}
	return v
}

// integer scans a number as int: a fraction or exponent ("1.0", "1e0")
// is refused like an overflow, as encoding/json does for an int field.
func (s *scanner) integer() int {
	v, err := strconv.Atoi(string(s.number()))
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
