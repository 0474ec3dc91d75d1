package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// The encoding/json decoding that the scanner in wirescan.go replaced,
// kept as the reference the fuzz targets and BenchmarkDecode compare
// against. Validation after the parse is the production code's own.

// decodeStrict unmarshals one JSON value with unknown fields rejected
// and trailing garbage refused — except a trailing ']' or '}', where
// dec.More() is false: the first of the four differences Tightened
// names.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON body", ErrBadRequest)
	}
	return nil
}

func refDecode[T any](data []byte, validate func(*T) error) (*T, error) {
	var req T
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := validate(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

func RefDecodeQueryRequest(data []byte, dims, maxK int) (*QueryRequest, error) {
	return refDecode(data, func(req *QueryRequest) error { return req.validate(dims, maxK) })
}

func RefDecodeBatchRequest(data []byte, dims, maxK, maxBatch int) (*BatchRequest, error) {
	return refDecode(data, func(req *BatchRequest) error { return req.validate(dims, maxK, maxBatch) })
}

func RefDecodeSubscribeRequest(data []byte, dims, maxK int) (*SubscribeRequest, error) {
	return refDecode(data, func(req *SubscribeRequest) error { return req.validate(dims, maxK) })
}

// Tightened walks data's tokens and names the documented difference
// between the scanner and the reference that it shows — "key case",
// "duplicate key", "null element" or "trailing closer" — or "" when it
// shows none (or is not one JSON object of the given fields at all), in
// which case the two decoders must agree on it.
func Tightened(data []byte, fields []string) string {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return ""
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		key := tok.(string) // an object's key position holds a string or an error
		if !slices.Contains(fields, key) {
			if slices.ContainsFunc(fields, func(f string) bool { return strings.EqualFold(f, key) }) {
				return "key case"
			}
			return ""
		}
		if seen[key] {
			return "duplicate key"
		}
		seen[key] = true
		for depth := 0; ; {
			tok, err := dec.Token()
			if err != nil {
				return ""
			}
			switch tok {
			case json.Delim('['), json.Delim('{'):
				depth++
			case json.Delim(']'), json.Delim('}'):
				depth--
			case nil:
				if depth > 0 {
					return "null element"
				}
			}
			if depth == 0 {
				break
			}
		}
	}
	if _, err := dec.Token(); err != nil { // the closing brace
		return ""
	}
	rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")
	if len(rest) > 0 && (rest[0] == ']' || rest[0] == '}') {
		return "trailing closer"
	}
	return ""
}
