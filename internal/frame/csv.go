package frame

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// IsNullToken reports whether a raw CSV cell denotes a null: the empty
// string plus the NA, N/A and null markers in any letter case. The marker
// spellings are matched case-insensitively so the set is consistent ("NA"
// and "na" cannot disagree); "NaN" is deliberately NOT a null — it is a
// representable float value and is stored as one. It is the single null
// predicate for every ingest path — CSV inference and the columnar pack
// pipeline both route through it, so a CSV-backed table and its packed
// columnar twin carry bit-identical null bitmaps.
//
// Lakes ingested before the marker set grew beyond "" may see cells like
// "NA" shift from string values to nulls on re-ingest, which can change a
// column's inferred type and its discovery ranking; see CHANGES.md for the
// migration note.
func IsNullToken(s string) bool {
	if s == "" {
		return true
	}
	if len(s) > 4 {
		return false
	}
	return strings.EqualFold(s, "NA") || strings.EqualFold(s, "N/A") || strings.EqualFold(s, "null")
}

// ReadCSV parses a CSV stream with a header row into a Frame, inferring a
// type per column: int64 if every non-null cell parses as an integer, else
// float64, else bool, else string. Cells matching IsNullToken are nulls. A
// leading UTF-8 byte-order mark is stripped from the header (spreadsheet
// exports routinely prepend one, which would otherwise mangle the first
// column's name and break name-based join matching).
func ReadCSV(name string, r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("frame: read csv header for %q: %w", name, err)
	}
	if len(header) > 0 {
		header[0] = strings.TrimPrefix(header[0], "\ufeff")
	}
	raw := make([][]string, len(header))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("frame: read csv row for %q: %w", name, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("frame: csv row has %d fields, want %d", len(rec), len(header))
		}
		for j, cell := range rec {
			raw[j] = append(raw[j], cell)
		}
	}
	f := New(name)
	for j, colName := range header {
		if err := f.AddColumn(inferColumn(colName, raw[j])); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// ReadCSVFile reads a CSV file; the table name is the base filename without
// its extension.
func ReadCSVFile(path string) (*Frame, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	return ReadCSV(name, fh)
}

// WriteCSV serialises the frame with a header row. Nulls become empty cells.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(rec []string) error {
		if len(rec) == 1 && rec[0] == "" {
			// csv.Writer writes a lone empty field as an empty line,
			// which ReadCSV skips; quoted, the row survives.
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			_, err := io.WriteString(w, "\"\"\n")
			return err
		}
		return cw.Write(rec)
	}
	if err := write(f.ColumnNames()); err != nil {
		return err
	}
	row := make([]string, f.NumCols())
	for i, n := 0, f.NumRows(); i < n; i++ {
		for j, c := range f.cols {
			row[j] = c.FormatCell(i)
		}
		if err := write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the frame to the given path, creating parent
// directories as needed.
func (f *Frame) WriteCSVFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteCSV(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// inferColumn picks the narrowest type that parses every non-null cell.
// Null detection goes through IsNullToken so every representation of a
// null ("", NA, null) lands in the bitmap identically, whichever storage
// backend the table later ends up in.
func inferColumn(name string, cells []string) *Column {
	allInt, allFloat, allBool := true, true, true
	anyNull := false
	for _, s := range cells {
		if IsNullToken(s) {
			anyNull = true
			continue
		}
		if allInt {
			if _, err := strconv.ParseInt(s, 10, 64); err != nil {
				allInt = false
			}
		}
		if allFloat {
			if _, err := strconv.ParseFloat(s, 64); err != nil {
				allFloat = false
			}
		}
		if allBool {
			if s != "true" && s != "false" {
				allBool = false
			}
		}
	}
	var valid []bool
	if anyNull {
		valid = make([]bool, len(cells))
		for i, s := range cells {
			valid[i] = !IsNullToken(s)
		}
	}
	switch {
	case allInt:
		vals := make([]int64, len(cells))
		for i, s := range cells {
			if !IsNullToken(s) {
				vals[i], _ = strconv.ParseInt(s, 10, 64)
			}
		}
		return NewIntColumn(name, vals, valid)
	case allFloat:
		vals := make([]float64, len(cells))
		for i, s := range cells {
			if !IsNullToken(s) {
				vals[i], _ = strconv.ParseFloat(s, 64)
			}
		}
		return NewFloatColumn(name, vals, valid)
	case allBool:
		vals := make([]bool, len(cells))
		for i, s := range cells {
			if !IsNullToken(s) {
				vals[i] = s == "true"
			}
		}
		return NewBoolColumn(name, vals, valid)
	default:
		vals := make([]string, len(cells))
		for i, s := range cells {
			if !IsNullToken(s) {
				vals[i] = s
			}
		}
		return NewStringColumn(name, vals, valid)
	}
}
