package resultstore

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"turbulence/internal/core"
	"turbulence/internal/wire"
)

// everyField returns a Comparison whose every leaf field, found by
// reflection, holds a distinct non-zero value: negative ints, and floats
// that include a NaN with a payload, -0 and both infinities. A field
// added later is set too, so a codec that does not carry it fails the
// round trip below.
func everyField(t testing.TB) core.Comparison {
	floats := []float64{
		math.Float64frombits(0x7ff8_0000_dead_beef), // NaN with a payload
		math.Copysign(0, -1),
		math.Inf(1),
		math.Inf(-1),
		-1.25e-300,
		math.SmallestNonzeroFloat64,
	}
	var c core.Comparison
	n := 0
	var fill func(v reflect.Value, name string)
	fill = func(v reflect.Value, name string) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), name+"."+v.Type().Field(i).Name)
			}
		case reflect.Int:
			v.SetInt(-int64(n) * 1_000_003)
		case reflect.Float64:
			if n%2 == 0 {
				v.SetFloat(floats[(n/2)%len(floats)])
			} else {
				v.SetFloat(float64(n) + 0.5)
			}
		case reflect.String:
			v.SetString(name + "\x00é")
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("%s: field kind %s has no record encoding; extend record.go and bump storeFormat", name, v.Kind())
		}
	}
	fill(reflect.ValueOf(&c).Elem(), "Comparison")
	return c
}

// sameBits reports whether a and b hold the same bits in every leaf field.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
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

// TestRecordEveryField round-trips a Comparison with every field set
// through the entry record and requires every field back bit for bit.
func TestRecordEveryField(t *testing.T) {
	want := everyField(t)
	const digest = "3f9a-every-field"
	body := appendEntry(nil, digest, &want)
	var got core.Comparison
	d, err := decodeEntry(body, &got)
	if err != nil || d != digest {
		t.Fatalf("decodeEntry = %q, %v; want %q, nil", d, err, digest)
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("round trip lost bits:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(appendEntry(nil, d, &got), body) {
		t.Fatal("decoded entry re-encodes to different bytes")
	}
}

// TestRecordStrict pins what a malformed body is: each mutation of a
// well-formed entry or header record must be refused.
func TestRecordStrict(t *testing.T) {
	c := everyField(t)
	entry := appendEntry(nil, "digest", &c)
	header := appendHeader(nil, storeHeader{Magic: storeMagic, Format: storeFormat, Wire: wire.Version, Engine: wire.EngineVersion})
	if _, err := decodeHeader(header); err != nil {
		t.Fatalf("well-formed header refused: %v", err)
	}
	mutate := func(b []byte, f func([]byte) []byte) []byte { return f(bytes.Clone(b)) }
	entries := map[string][]byte{
		"wrong tag":         mutate(entry, func(b []byte) []byte { b[0] = 'H'; return b }),
		"empty":             {},
		"short body":        entry[:len(entry)-1],
		"trailing byte":     append(bytes.Clone(entry), 0),
		"bool byte above 1": mutate(entry, func(b []byte) []byte { b[len(b)-1] = 2; return b }),
		"digest overruns":   mutate(entry, func(b []byte) []byte { b[1] = 0x80; return b }),
		"header as entry":   header,
	}
	for name, body := range entries {
		var got core.Comparison
		if _, err := decodeEntry(body, &got); err == nil {
			t.Errorf("%s: decodeEntry accepted a malformed record", name)
		}
	}
	headers := map[string][]byte{
		"short body":    header[:len(header)-1],
		"trailing byte": append(bytes.Clone(header), 0),
		"entry":         entry,
	}
	for name, body := range headers {
		if _, err := decodeHeader(body); err == nil {
			t.Errorf("%s: decodeHeader accepted a malformed record", name)
		}
	}
}

// FuzzStoreRecords feeds arbitrary bytes to the header and entry
// decoders, the parsers of the store file, which is outside input. They
// must never panic, no body may be both, and every accepted body must
// re-encode to exactly its own bytes.
func FuzzStoreRecords(f *testing.F) {
	c := everyField(f)
	f.Add(appendHeader(nil, storeHeader{Magic: storeMagic, Format: storeFormat, Wire: wire.Version, Engine: wire.EngineVersion}))
	f.Add(appendEntry(nil, "d0", cmpFor(0)))
	f.Add(appendEntry(nil, "3f9a-every-field", &c))
	f.Add(appendEntry(nil, "", &core.Comparison{}))
	f.Add([]byte{entryTag})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		h, herr := decodeHeader(body)
		if herr == nil {
			if got := appendHeader(nil, h); !bytes.Equal(got, body) {
				t.Fatalf("header %+v re-encodes to\n%x\nnot\n%x", h, got, body)
			}
		}
		var c core.Comparison
		digest, eerr := decodeEntry(body, &c)
		if eerr == nil {
			if herr == nil {
				t.Fatal("body decodes both as a header and as an entry")
			}
			if got := appendEntry(nil, digest, &c); !bytes.Equal(got, body) {
				t.Fatalf("entry %q %+v re-encodes to\n%x\nnot\n%x", digest, c, got, body)
			}
		}
	})
}
