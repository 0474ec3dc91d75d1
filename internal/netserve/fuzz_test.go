package netserve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"pimmine/internal/netserve"
	"pimmine/internal/quant"
)

// The shape every decoder test and fuzz target decodes against.
const (
	fuzzDims     = 3
	fuzzMaxK     = 16
	fuzzMaxBatch = 8
)

func decodeQuery(data []byte) (*netserve.QueryRequest, error) {
	return netserve.DecodeQueryRequest(data, fuzzDims, fuzzMaxK)
}

func decodeBatch(data []byte) (*netserve.BatchRequest, error) {
	return netserve.DecodeBatchRequest(data, fuzzDims, fuzzMaxK, fuzzMaxBatch)
}

func decodeSubscribe(data []byte) (*netserve.SubscribeRequest, error) {
	return netserve.DecodeSubscribeRequest(data, fuzzDims, fuzzMaxK)
}

// TestDecodeQueryRequest pins the decoders' typed rejections on the
// interesting hand-written inputs (the fuzzers then explore around
// them).
func TestDecodeQueryRequest(t *testing.T) {
	t.Parallel()
	const q, s, b = "query", "subscribe", "batch"
	cases := []struct {
		target  string
		name    string
		body    string
		wantErr error // nil = must decode
	}{
		{q, "valid", `{"tenant":"a","query":[0.1,0.2,0.3],"k":5}`, nil},
		{q, "valid boundary", `{"query":[0,1,0.5],"k":16}`, nil},
		{q, "valid whitespace, nulls for absent", " {\n\t\"tenant\" : null , \"mode\":null,\"query\" : [ 0 , 1e-400 , -0 ] ,\r\n \"k\" : 1 } \n", nil},
		{q, "valid escaped key and tenant", `{"query":[0.1,0.2,0.3],"k":1,"tenant":"\ud800\n"}`, nil},
		{q, "malformed json", `{"query":[0.1`, netserve.ErrBadRequest},
		{q, "trailing garbage", `{"query":[0.1,0.2,0.3],"k":1}{"x":1}`, netserve.ErrBadRequest},
		{q, "unknown field", `{"query":[0.1,0.2,0.3],"k":1,"mode":"turbo"}`, netserve.ErrBadRequest},
		{q, "wrong dims", `{"query":[0.1,0.2],"k":1}`, netserve.ErrBadRequest},
		{q, "one dim too many", `{"query":[0.1,0.2,0.3,0.4],"k":1}`, netserve.ErrBadRequest},
		{q, "missing query", `{"k":1}`, netserve.ErrBadRequest},
		{q, "null query", `{"query":null,"k":1}`, netserve.ErrBadRequest},
		{q, "k zero", `{"query":[0.1,0.2,0.3],"k":0}`, netserve.ErrBadRequest},
		{q, "k oversize", `{"query":[0.1,0.2,0.3],"k":17}`, netserve.ErrBadRequest},
		{q, "k fraction", `{"query":[0.1,0.2,0.3],"k":1.0}`, netserve.ErrBadRequest},
		{q, "k exponent", `{"query":[0.1,0.2,0.3],"k":1e0}`, netserve.ErrBadRequest},
		{q, "out of range", `{"query":[0.1,2.5,0.3],"k":1}`, quant.ErrOutOfRange},
		{q, "negative value", `{"query":[-0.1,0.2,0.3],"k":1}`, quant.ErrOutOfRange},
		{q, "json NaN literal", `{"query":[NaN,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		{q, "json Inf exponent", `{"query":[1e999,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		{q, "leading zero", `{"query":[01,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		{q, "bare fraction", `{"query":[.5,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		{q, "bare point", `{"query":[1.,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		{q, "plus sign", `{"query":[+1,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		{q, "hex", `{"query":[0x1,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		{q, "underscore", `{"query":[0.1_0,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		{q, "control byte in string", "{\"tenant\":\"a\nb\",\"query\":[0.1,0.2,0.3],\"k\":1}", netserve.ErrBadRequest},
		{q, "bad escape", `{"tenant":"\q","query":[0.1,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		// The four tightenings against the encoding/json decoder.
		{q, "trailing brace", `{"query":[0.1,0.2,0.3],"k":1}}`, netserve.ErrBadRequest},
		{q, "trailing brackets", `{"query":[0.1,0.2,0.3],"k":1} ]]]garbage`, netserve.ErrBadRequest},
		{q, "null element", `{"query":[0.1,0.2,null],"k":1}`, netserve.ErrBadRequest},
		{q, "key case", `{"Query":[0.1,0.2,0.3],"k":1}`, netserve.ErrBadRequest},
		{q, "key case, Kelvin sign", "{\"query\":[0.1,0.2,0.3],\"\u212a\":1}", netserve.ErrBadRequest},
		{q, "duplicate key", `{"query":[0.1,0.2,0.3,0.4],"query":[0.1,0.2,0.3],"k":1}`, netserve.ErrBadRequest},

		{b, "valid", `{"queries":[[0.1,0.2,0.3],[0.4,0.5,0.6]],"k":2}`, nil},
		{b, "empty", `{"queries":[],"k":2}`, netserve.ErrBadRequest},
		{b, "full", `{"queries":[` + strings.Repeat(`[0.1,0.2,0.3],`, fuzzMaxBatch-1) + `[0.1,0.2,0.3]],"k":2}`, nil},
		{b, "one row too many", `{"queries":[` + strings.Repeat(`[0.1,0.2,0.3],`, fuzzMaxBatch) + `[0.1,0.2,0.3]],"k":2}`, netserve.ErrBadRequest},
		{b, "out of range", `{"queries":[[0.1,0.2,0.3],[0.4,1.5,0.6]],"k":2}`, quant.ErrOutOfRange},
		{b, "trailing brace", `{"queries":[[0.1,0.2,0.3]],"k":2}}`, netserve.ErrBadRequest},
		{b, "trailing brackets", `{"queries":[[0.1,0.2,0.3]],"k":2} ]]]garbage`, netserve.ErrBadRequest},
		{b, "null element", `{"queries":[[0.1,0.2,0.3],[0.1,null,0.3]],"k":2}`, netserve.ErrBadRequest},
		{b, "null row", `{"queries":[[0.1,0.2,0.3],null],"k":2}`, netserve.ErrBadRequest},
		{b, "key case", `{"QUERIES":[[0.1,0.2,0.3]],"k":2}`, netserve.ErrBadRequest},
		{b, "duplicate key", `{"queries":[[0.1,0.2,0.3]],"k":2,"k":2}`, netserve.ErrBadRequest},

		{s, "valid knn", `{"query":[0.1,0.2,0.3],"k":2,"max_events":4}`, nil},
		{s, "valid radius, nulls for absent", `{"query":[0.1,0.2,0.3],"k":null,"radius":0.5,"max_events":null}`, nil},
		{s, "k and radius", `{"query":[0.1,0.2,0.3],"k":2,"radius":0.5}`, netserve.ErrBadRequest},
		{s, "neither", `{"query":[0.1,0.2,0.3]}`, netserve.ErrBadRequest},
		{s, "negative max_events", `{"query":[0.1,0.2,0.3],"k":2,"max_events":-1}`, netserve.ErrBadRequest},
		{s, "trailing brace", `{"query":[0.1,0.2,0.3],"k":2}}`, netserve.ErrBadRequest},
		{s, "trailing brackets", `{"query":[0.1,0.2,0.3],"k":2} ]]]garbage`, netserve.ErrBadRequest},
		{s, "null element", `{"query":[null,0.2,0.3],"radius":0.5}`, netserve.ErrBadRequest},
		{s, "key case", `{"query":[0.1,0.2,0.3],"Radius":0.5}`, netserve.ErrBadRequest},
		{s, "duplicate key", `{"query":[0.1,0.2,0.3],"radius":0.5,"radius":0.5}`, netserve.ErrBadRequest},
	}
	for _, tc := range cases {
		var req any // a typed pointer once a decoder has run
		var err error
		switch tc.target {
		case q:
			req, err = decodeQuery([]byte(tc.body))
		case b:
			req, err = decodeBatch([]byte(tc.body))
		case s:
			req, err = decodeSubscribe([]byte(tc.body))
		}
		name := tc.target + "/" + tc.name
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
			continue
		}
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want chain through %v", name, err, tc.wantErr)
		}
		// Every rejection must carry the wire sentinel so the server can
		// map it to 400.
		if !errors.Is(err, netserve.ErrBadRequest) {
			t.Errorf("%s: rejection %v does not wrap ErrBadRequest", name, err)
		}
		if !reflect.ValueOf(req).IsNil() {
			t.Errorf("%s: rejected decode still returned a request", name)
		}
	}

	// What the scanner hands over is what encoding/json would have: the
	// escaped key is the query, the lone surrogate is U+FFFD.
	req, err := decodeQuery([]byte(`{"query":[0.1,0.2,0.3],"k":1,"tenant":"\ud800\n"}`))
	if err != nil || req.Tenant != "\ufffd\n" || len(req.Query) != fuzzDims {
		t.Errorf("escaped body decoded to %+v, %v", req, err)
	}
}

// wireSeeds is the seed corpus shared by the three fuzz targets: vec
// renders the target's vector field ("query":[…] or "queries":[[…]])
// around the given elements. testdata/fuzz holds the same bodies.
func wireSeeds(vec func(elems string) string) []string {
	v := vec("0.1,0.2,0.3")
	return []string{
		`{"tenant":"a",` + v + `,"k":5}`,
		`{` + vec("0,1,0.5") + `,"k":16,"mode":"exact"}`,
		`{` + vec("0.1,2.5,0.3") + `,"k":1}`,
		`{` + vec("-0,1e-400,1E+0") + `,"k":1}`,
		`{` + vec("1e999,0,0") + `,"k":1}`,
		`{` + vec("01,0,0") + `,"k":1}`,
		`{` + vec(".5,0,0") + `,"k":1}`,
		`{` + vec("1.,0,0") + `,"k":1}`,
		`{` + vec("0.1,0.2,0.3,0.4") + `,"k":1}`,
		`{` + vec("0.1,0.2,null") + `,"k":1}`,
		`{` + v + `,"k":1.0}`,
		`{` + v + `,"k":1e0}`,
		`{` + v + `,"k":null,"radius":0.25}`,
		`{` + v + `,"k":17}`,
		`{` + v + `,"k":1,"mode":"turbo"}`,
		`{` + v + `,"k":1,"tenant":"\ud800"}`,
		"{" + v + ",\"k\":1,\"tenant\":\"\xff\"}",
		`{"queries":[[0.1,0.2,0.3]],"k":2,"query":[0.1,0.2,0.3]}`,
		" {\n\t\"tenant\" : null ,\r\n " + strings.ReplaceAll(strings.ReplaceAll(v, ",", " , "), "[", "[ ") + " , \"k\" : 2 } \n",
		`{` + v + `,"k":1}}`,
		`{` + v + `,"k":1} ]]]garbage`,
		`{` + v + `,"k":1}{"x":1}`,
		`{` + strings.ToUpper(v) + `,"k":1}`,
		"{" + v + ",\"\u212a\":1}", // the Kelvin sign folds to k
		`{` + v + `,` + v + `,"k":1}`,
		`{` + v + `,"radius":0.5,"max_events":2}`,
		`{"query":[0.1`,
		`null`,
		``,
	}
}

func addSeeds(f *testing.F, vec func(elems string) string) {
	for _, s := range wireSeeds(vec) {
		f.Add([]byte(s))
	}
}

func queryVec(elems string) string { return `"query":[` + elems + `]` }

func batchVec(elems string) string { return `"queries":[[` + elems + `],[0.5,0.5,0.5]]` }

// sameBits reports whether two decoded requests are equal field by
// field, floats by bit pattern (-0 is not 0).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}

// checkOracle holds one body to the contract between a scanner-backed
// decoder and its encoding/json reference, and returns the scanner's
// request (nil when it refused):
//
//	P1  scan accepts ⇒ ref accepts, every field equal (floats by bits):
//	    the scanner accepts nothing new
//	P2  ref accepts ⇒ json.Marshal of its request — compact, indented and
//	    with the keys in another order — is accepted by scan, fields equal
//	    to ref's reading of the same bytes (omitempty drops a -0)
//	P3  ref accepts, scan refuses ⇒ the body shows one of the four
//	    documented tightenings
//	P4  both refuse and no tightening shows ⇒ the quantization sentinels
//	    ride along on both errors or on neither
func checkOracle[T any](t *testing.T, data []byte, scan, ref func([]byte) (*T, error)) *T {
	t.Helper()
	got, err := scan(data)
	want, rerr := ref(data)
	// The request's keys, from its struct tags: the scanner's are written
	// out by hand, and P2 is what holds them to the tags.
	var fields []string
	for i, rt := 0, reflect.TypeFor[T](); i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		fields = append(fields, name)
	}
	tightened := netserve.Tightened(data, fields)
	switch {
	case err != nil && !errors.Is(err, netserve.ErrBadRequest):
		t.Fatalf("rejection without ErrBadRequest chain: %v", err)
	case err != nil && got != nil:
		t.Fatal("error with non-nil request")
	case err == nil && rerr != nil:
		t.Fatalf("P1: scanner accepted what the reference refuses: %v", rerr)
	case err == nil && !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)):
		t.Fatalf("P1: scanner decoded %+v, reference %+v", got, want)
	case err != nil && rerr == nil && tightened == "":
		t.Fatalf("P3: scanner refuses (%v) a body the reference accepts, outside the documented differences", err)
	case err != nil && rerr != nil && tightened == "":
		for _, sentinel := range []error{quant.ErrOutOfRange, quant.ErrNotFinite} {
			if errors.Is(err, sentinel) != errors.Is(rerr, sentinel) {
				t.Fatalf("P4: %v rides on one of\n\tscanner:   %v\n\treference: %v", sentinel, err, rerr)
			}
		}
	}
	if rerr != nil {
		return got
	}
	compact, merr := json.Marshal(want)
	if merr != nil {
		t.Fatalf("re-encode: %v", merr)
	}
	var indented bytes.Buffer
	var byKey map[string]json.RawMessage
	if err := json.Indent(&indented, compact, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(compact, &byKey); err != nil {
		t.Fatal(err)
	}
	sorted, merr := json.Marshal(byKey) // sorted keys: not the struct's order
	if merr != nil {
		t.Fatal(merr)
	}
	for _, enc := range [][]byte{compact, indented.Bytes(), sorted} {
		again, err := scan(enc)
		want, rerr := ref(enc)
		if err != nil || rerr != nil {
			t.Fatalf("P2: re-encoded request %s refused: scanner %v, reference %v", enc, err, rerr)
		}
		if !sameBits(reflect.ValueOf(again), reflect.ValueOf(want)) {
			t.Fatalf("P2: %s decoded to %+v, want %+v", enc, again, want)
		}
	}
	return got
}

// checkVec fails unless q is a vector the engine may see: the right
// dimensionality, every value finite and in [0,1].
func checkVec(t *testing.T, q []float64) {
	t.Helper()
	if len(q) != fuzzDims {
		t.Fatalf("accepted query with %d dims", len(q))
	}
	for _, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			t.Fatalf("accepted out-of-contract value %v", v)
		}
	}
}

// FuzzDecodeQueryRequest fuzzes the wire decoder: whatever the bytes,
// it must never panic, every rejection must wrap ErrBadRequest (the
// typed 400), every accepted request must satisfy the validated
// invariants — dims match, k in range, all values finite in [0,1] — and
// the decoder must stand in checkOracle's relation to encoding/json.
func FuzzDecodeQueryRequest(f *testing.F) {
	addSeeds(f, queryVec)
	f.Fuzz(func(t *testing.T, data []byte) {
		req := checkOracle(t, data, decodeQuery, func(data []byte) (*netserve.QueryRequest, error) {
			return netserve.RefDecodeQueryRequest(data, fuzzDims, fuzzMaxK)
		})
		if req == nil {
			return
		}
		if req.K < 1 || req.K > fuzzMaxK {
			t.Fatalf("accepted k=%d", req.K)
		}
		checkVec(t, req.Query)
	})
}

// FuzzDecodeBatchRequest is FuzzDecodeQueryRequest for the batch body.
func FuzzDecodeBatchRequest(f *testing.F) {
	addSeeds(f, batchVec)
	f.Add([]byte(`{"queries":[` + strings.Repeat(`[0,0,0],`, fuzzMaxBatch) + `[0,0,0]],"k":1}`))
	f.Add([]byte(`{"queries":[[0.1,0.2,0.3],null],"k":1}`))
	f.Add([]byte(`{"queries":[],"k":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req := checkOracle(t, data, decodeBatch, func(data []byte) (*netserve.BatchRequest, error) {
			return netserve.RefDecodeBatchRequest(data, fuzzDims, fuzzMaxK, fuzzMaxBatch)
		})
		if req == nil {
			return
		}
		if req.K < 1 || req.K > fuzzMaxK {
			t.Fatalf("accepted k=%d", req.K)
		}
		if len(req.Queries) < 1 || len(req.Queries) > fuzzMaxBatch {
			t.Fatalf("accepted a batch of %d", len(req.Queries))
		}
		for _, q := range req.Queries {
			checkVec(t, q)
		}
	})
}

// FuzzDecodeSubscribeRequest is FuzzDecodeQueryRequest for the
// subscribe body: exactly one of k and radius, max_events not negative.
func FuzzDecodeSubscribeRequest(f *testing.F) {
	addSeeds(f, queryVec)
	f.Add([]byte(`{"query":[0.1,0.2,0.3],"k":2,"radius":0.5}`))
	f.Add([]byte(`{"query":[0.1,0.2,0.3],"k":2,"radius":-0}`))
	f.Add([]byte(`{"query":[0.1,0.2,0.3],"radius":1e-400}`))
	f.Add([]byte(`{"query":[0.1,0.2,0.3],"k":2,"max_events":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req := checkOracle(t, data, decodeSubscribe, func(data []byte) (*netserve.SubscribeRequest, error) {
			return netserve.RefDecodeSubscribeRequest(data, fuzzDims, fuzzMaxK)
		})
		if req == nil {
			return
		}
		knn := req.K >= 1 && req.K <= fuzzMaxK && req.Radius == 0
		watch := req.K <= 0 && req.Radius > 0
		if knn == watch {
			t.Fatalf("accepted k=%d radius=%v", req.K, req.Radius)
		}
		if req.MaxEvents < 0 {
			t.Fatalf("accepted max_events=%d", req.MaxEvents)
		}
		checkVec(t, req.Query)
	})
}
