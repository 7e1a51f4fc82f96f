package capture

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadFile feeds arbitrary bytes to the trace-file reader, which the
// ethereal CLI runs on files from disk: it must never panic, and any file
// it accepts must re-serialise through WriteFile and re-read to equal
// records — the analysis fields re-derived from the rebuilt datagrams
// match the ones derived from the original bytes. The seed corpus under
// testdata/fuzz comes from a golden pair run (go run ./scripts/fuzzcorpus).
func FuzzReadFile(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, buildTestTrace(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, file []byte) {
		tr, err := ReadFile(bytes.NewReader(file))
		if err != nil {
			if tr != nil {
				t.Fatalf("ReadFile returned a trace with error %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteFile(&out, tr); err != nil {
			t.Fatalf("WriteFile of an accepted trace: %v", err)
		}
		again, err := ReadFile(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if again.Len() != tr.Len() {
			t.Fatalf("re-read %d records, want %d", again.Len(), tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			if a, b := tr.At(i), again.At(i); !reflect.DeepEqual(a, b) {
				t.Fatalf("record %d changed through WriteFile:\n%+v\n%+v", i, a, b)
			}
		}
	})
}
