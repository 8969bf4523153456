package metrics

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"

	"repro/internal/stats"
)

func sampleRecords() []JobRecord {
	var recs []JobRecord
	for i := 0; i < 40; i++ {
		recs = append(recs, JobRecord{
			ID:            "j" + strconv.Itoa(i),
			App:           "FT",
			Malleable:     i%2 == 0,
			ExecutionTime: 100 + float64(i)*7,
			ResponseTime:  150 + float64(i)*9,
			WaitTime:      float64(i) * 2,
			AvgProcs:      2 + float64(i%5),
			MaxProcs:      2 + i%7,
		})
	}
	return recs
}

func TestAggregateMatchesBatchSelectors(t *testing.T) {
	recs := sampleRecords()
	a := NewAggregate()
	a.ObserveAll(recs)

	if a.Jobs != len(recs) {
		t.Fatalf("Jobs = %d, want %d", a.Jobs, len(recs))
	}
	var avgProcs, maxProcs []float64
	for _, r := range recs {
		if r.Malleable {
			avgProcs = append(avgProcs, r.AvgProcs)
			maxProcs = append(maxProcs, float64(r.MaxProcs))
		}
	}
	if a.Malleable != len(avgProcs) {
		t.Fatalf("Malleable = %d, want %d", a.Malleable, len(avgProcs))
	}
	// A serial feed is bit-identical to the batch mean over the same
	// order (stats.Online accumulates the sum the same way).
	if got, want := a.MeanExecution(), stats.Mean(ExecTimesOf(recs)); got != want {
		t.Errorf("MeanExecution = %v, want %v", got, want)
	}
	if got, want := a.MeanResponse(), stats.Mean(ResponseTimesOf(recs)); got != want {
		t.Errorf("MeanResponse = %v, want %v", got, want)
	}
	if got, want := a.AvgProcs.Online.Mean(), stats.Mean(avgProcs); got != want {
		t.Errorf("AvgProcs mean = %v, want %v", got, want)
	}
	if got, want := a.MaxProcs.Online.Max(), stats.Max(maxProcs); got != want {
		t.Errorf("MaxProcs max = %v, want %v", got, want)
	}
}

func TestAggregateMergeMatchesSerial(t *testing.T) {
	recs := sampleRecords()
	serial := NewAggregate()
	serial.ObserveAll(recs)

	a, b := NewAggregate(), NewAggregate()
	a.ObserveAll(recs[:15])
	b.ObserveAll(recs[15:])
	a.Merge(b)

	if a.Jobs != serial.Jobs || a.Malleable != serial.Malleable {
		t.Fatalf("merged counts %d/%d, serial %d/%d", a.Jobs, a.Malleable, serial.Jobs, serial.Malleable)
	}
	if a.Exec.Online.Mean() != serial.Exec.Online.Mean() {
		t.Errorf("merged exec mean %v, serial %v", a.Exec.Online.Mean(), serial.Exec.Online.Mean())
	}
	if math.Abs(a.Response.Online.Variance()-serial.Response.Online.Variance()) > 1e-9 {
		t.Errorf("merged response variance %v, serial %v", a.Response.Online.Variance(), serial.Response.Online.Variance())
	}
	if a.Exec.Sketch.Quantile(0.5) != serial.Exec.Sketch.Quantile(0.5) {
		t.Errorf("merged exec median %v, serial %v", a.Exec.Sketch.Quantile(0.5), serial.Exec.Sketch.Quantile(0.5))
	}
	// Merging a nil aggregate is a no-op.
	jobs := a.Jobs
	a.Merge(nil)
	if a.Jobs != jobs {
		t.Error("Merge(nil) changed the aggregate")
	}
}

// TestWriteCSVRoundTrip parses WriteCSV's output back and asserts that
// every row aligns with its header column and that floats use the
// fixed three-decimal format.
func TestWriteCSVRoundTrip(t *testing.T) {
	recs := []JobRecord{
		{
			ID: "wm-000", App: "FT", Malleable: true, Site: "VU",
			SubmitTime: 0, StartTime: 12.5, EndTime: 112.625,
			ExecutionTime: 100.125, ResponseTime: 112.625, WaitTime: 12.5,
			AvgProcs: 3.14159, MaxProcs: 8, InitProcs: 2,
		},
		{
			ID: "wm-001", App: "GADGET2", Malleable: false, Site: "Delft",
			SubmitTime: 120, StartTime: 130, EndTime: 730,
			ExecutionTime: 600, ResponseTime: 610, WaitTime: 10,
			AvgProcs: 2, MaxProcs: 2, InitProcs: 2,
		},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output does not parse as CSV: %v", err)
	}
	if len(rows) != 1+len(recs) {
		t.Fatalf("rows = %d, want header + %d records", len(rows), len(recs))
	}
	header := rows[0]
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			t.Fatalf("record %d has %d fields, header has %d", i, len(row), len(header))
		}
	}
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("missing column %q in header %v", name, header)
		return -1
	}
	// Spot-check column alignment against the source records.
	if got := rows[1][col("id")]; got != "wm-000" {
		t.Errorf("id = %q", got)
	}
	if got := rows[1][col("malleable")]; got != "true" {
		t.Errorf("malleable = %q", got)
	}
	if got := rows[2][col("site")]; got != "Delft" {
		t.Errorf("site = %q", got)
	}
	// Floats are formatted with exactly three decimals; ints are bare.
	if got := rows[1][col("avg_procs")]; got != "3.142" {
		t.Errorf("avg_procs = %q, want %q", got, "3.142")
	}
	if got := rows[1][col("exec")]; got != "100.125" {
		t.Errorf("exec = %q, want %q", got, "100.125")
	}
	if got := rows[2][col("max_procs")]; got != "2" {
		t.Errorf("max_procs = %q, want %q", got, "2")
	}
	// Parsed numeric fields round-trip to the source values within the
	// three-decimal precision.
	resp, err := strconv.ParseFloat(rows[2][col("response")], 64)
	if err != nil {
		t.Fatalf("response does not parse: %v", err)
	}
	if math.Abs(resp-recs[1].ResponseTime) > 0.0005 {
		t.Errorf("response round-trip = %v, want %v", resp, recs[1].ResponseTime)
	}
}

// TestWriteCSVZeroRecords asserts the header is still written for an
// empty record set.
func TestWriteCSVZeroRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want just the header", len(rows))
	}
	if rows[0][0] != "id" || len(rows[0]) != 13 {
		t.Fatalf("header = %v", rows[0])
	}
}
