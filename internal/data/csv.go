package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV encodes the point set with a header row: x, y, t, then one column
// per attribute.
func WriteCSV(w io.Writer, ps *PointSet) error {
	if err := ps.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := []string{"x", "y", "t"}
	header = append(header, ps.AttrNames()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := 0; i < ps.Len(); i++ {
		row[0] = strconv.FormatFloat(ps.X[i], 'f', -1, 64)
		row[1] = strconv.FormatFloat(ps.Y[i], 'f', -1, 64)
		var t int64
		if ps.T != nil {
			t = ps.T[i]
		}
		row[2] = strconv.FormatInt(t, 10)
		for k, c := range ps.Attrs {
			row[3+k] = strconv.FormatFloat(c.Values[i], 'f', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// appendRow parses one CSV record into the point set.
func appendRow(ps *PointSet, rec, header []string, line int) error {
	if len(rec) != len(header) {
		return fmt.Errorf("data: csv line %d has %d fields, want %d", line, len(rec), len(header))
	}
	x, err := strconv.ParseFloat(rec[0], 64)
	if err != nil {
		return fmt.Errorf("data: csv line %d x: %w", line, err)
	}
	y, err := strconv.ParseFloat(rec[1], 64)
	if err != nil {
		return fmt.Errorf("data: csv line %d y: %w", line, err)
	}
	t, err := strconv.ParseInt(rec[2], 10, 64)
	if err != nil {
		return fmt.Errorf("data: csv line %d t: %w", line, err)
	}
	ps.X = append(ps.X, x)
	ps.Y = append(ps.Y, y)
	ps.T = append(ps.T, t)
	for k := range ps.Attrs {
		v, err := strconv.ParseFloat(rec[3+k], 64)
		if err != nil {
			return fmt.Errorf("data: csv line %d attr %q: %w", line, ps.Attrs[k].Name, err)
		}
		ps.Attrs[k].Values = append(ps.Attrs[k].Values, v)
	}
	return nil
}

// ReadCSV decodes a point set written by WriteCSV. The first three columns
// must be x, y, t; any further columns become attributes named by the
// header.
func ReadCSV(r io.Reader, name string) (*PointSet, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: reading csv header: %w", err)
	}
	if len(header) < 3 || header[0] != "x" || header[1] != "y" || header[2] != "t" {
		return nil, fmt.Errorf("data: csv header %v, want x,y,t,...", header)
	}
	ps := &PointSet{Name: name}
	for _, n := range header[3:] {
		ps.Attrs = append(ps.Attrs, Column{Name: n})
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: reading csv line %d: %w", line+1, err)
		}
		line++
		if err := appendRow(ps, rec, header, line); err != nil {
			return nil, err
		}
	}
	return ps, nil
}
