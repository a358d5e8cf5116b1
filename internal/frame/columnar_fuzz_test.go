package frame

import (
	"bytes"
	"testing"
)

// FuzzDecodeColumnar feeds arbitrary bytes to DecodeColumnar, the decoder
// behind a served table upsert. It must never panic, on decode or on any
// later cell access. An accepted buffer must round-trip: its frame
// encodes, the encoding decodes to an equal frame, and encoding that
// frame again gives the same bytes. Its null bitmaps must agree with the
// CSV ingest of the same table, except for valid cells whose text is
// itself a null token, which CSV cannot tell from a null. The seed
// corpus under testdata/fuzz holds the encodings columnar_test.go builds,
// valid and hostile.
func FuzzDecodeColumnar(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, err := DecodeColumnar("t", buf)
		if err != nil {
			return
		}
		touchCells(got)
		enc, err := EncodeColumnar(got)
		if err != nil {
			t.Fatalf("accepted frame does not encode: %v", err)
		}
		back, err := DecodeColumnar("t", enc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !got.Equal(back) {
			t.Fatal("re-encoded frame differs from the accepted one")
		}
		if again, err := EncodeColumnar(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not stable across a round trip (err %v)", err)
		}
		checkCSVNulls(t, got)
	})
}

// touchCells reads every cell of f through every accessor.
func touchCells(f *Frame) {
	for ci := 0; ci < f.NumCols(); ci++ {
		c := f.ColumnAt(ci)
		c.NullCount()
		for i := 0; i < c.Len(); i++ {
			c.IsNull(i)
			c.At(i)
			c.Key(i)
			c.FormatCell(i)
		}
	}
}

// checkCSVNulls writes f as CSV, ingests it back and compares the null
// bitmaps cell by cell.
func checkCSVNulls(t *testing.T, f *Frame) {
	t.Helper()
	if f.NumCols() == 0 {
		return // a header-only CSV with no columns has nothing to compare
	}
	var b bytes.Buffer
	if err := f.WriteCSV(&b); err != nil {
		t.Fatalf("write CSV: %v", err)
	}
	csv, err := ReadCSV("t", &b)
	if err != nil {
		t.Fatalf("CSV ingest of an accepted table: %v", err)
	}
	if csv.NumCols() != f.NumCols() || csv.NumRows() != f.NumRows() {
		t.Fatalf("CSV ingest holds %dx%d cells, columnar %dx%d", csv.NumRows(), csv.NumCols(), f.NumRows(), f.NumCols())
	}
	for ci := 0; ci < f.NumCols(); ci++ {
		c, cc := f.ColumnAt(ci), csv.ColumnAt(ci)
		for i := 0; i < c.Len(); i++ {
			if want := c.IsNull(i) || IsNullToken(c.FormatCell(i)); cc.IsNull(i) != want {
				t.Fatalf("column %q row %d: CSV null %v, columnar null %v (cell %q)", c.Name(), i, cc.IsNull(i), c.IsNull(i), c.FormatCell(i))
			}
		}
	}
}
