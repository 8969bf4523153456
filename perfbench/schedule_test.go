package main

import (
	"bytes"
	"testing"
	"time"
)

func TestScheduleIsByteReproducible(t *testing.T) {
	a := encodeSchedule(poissonSchedule(42, "hot", 100, 20*time.Second))
	b := encodeSchedule(poissonSchedule(42, "hot", 100, 20*time.Second))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and class gave different schedules")
	}
	if bytes.Equal(a, encodeSchedule(poissonSchedule(43, "hot", 100, 20*time.Second))) {
		t.Fatal("different seeds gave the same schedule")
	}
	if bytes.Equal(a, encodeSchedule(poissonSchedule(42, "cold", 100, 20*time.Second))) {
		t.Fatal("different classes share one stream")
	}
}

func TestScheduleShape(t *testing.T) {
	const rate, window = 20.0, 30 * time.Second
	s := poissonSchedule(9, "cold", rate, window)
	if len(s) != 600 {
		t.Fatalf("got %d arrivals, want rate·window = 600", len(s))
	}
	var gaps []float64
	prev := time.Duration(0)
	for i, a := range s {
		if a.Due < prev || a.Due >= window {
			t.Fatalf("arrival %d due %v: not sorted within the window", i, a.Due)
		}
		gaps = append(gaps, (a.Due - prev).Seconds())
		prev = a.Due
	}
	// Exponential gaps: mean 1/rate, and a coefficient of variation near 1
	// (evenly spaced arrivals would give 0).
	m := mean(gaps)
	v := 0.0
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	cv := (v / float64(len(gaps))) / (m * m)
	if m < 0.9/rate || m > 1.1/rate || cv < 0.7 || cv > 1.3 {
		t.Fatalf("gap mean %.4fs (want ~%.4fs), squared CV %.2f (want ~1)", m, 1/rate, cv)
	}
	if poissonSchedule(1, "hot", 0, window) != nil {
		t.Fatal("zero rate should schedule nothing")
	}
}
